//! Chaos acceptance suite for the supervised streaming layer: over a fixed
//! seed matrix (extendable via `MQD_CHAOS_SEED` for the CI matrix), every
//! plan must inject at least one shard panic and one output stall (the
//! only two fault kinds), and every run must finish inside the restart
//! budget the supervisor works out from its plan, with zero delay-budget
//! violations among non-degraded emissions, emit a valid lambda-cover, and
//! produce a byte-for-byte reproducible fault report. A kill/restore pass
//! proves checkpoint recovery end to end.

use mqd_datagen::{generate_labeled_posts, LabeledStreamConfig, MINUTE_MS};
use mqd_stream::{
    encode_checkpoint, resume_supervised, run_supervised_reference, run_supervised_stream,
    FaultKind, FaultPlan, ShardEngineKind, SupervisedRun,
};
use mqdiv::core::{coverage, FixedLambda, Instance};

const LAMBDA: i64 = 30_000;
const TAU: i64 = 10_000;
const SHARDS: usize = 4;

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1, 7, 42, 1234, 4242];
    if let Ok(s) = std::env::var("MQD_CHAOS_SEED") {
        if let Ok(extra) = s.parse() {
            if !seeds.contains(&extra) {
                seeds.push(extra);
            }
        }
    }
    seeds
}

fn day_scale_instance() -> Instance {
    let posts = generate_labeled_posts(&LabeledStreamConfig {
        num_labels: 6,
        per_label_per_minute: 8.0,
        overlap: 1.3,
        duration_ms: 10 * MINUTE_MS,
        seed: 99,
        ..Default::default()
    });
    Instance::from_posts(posts, 6).expect("datagen produces valid posts")
}

#[test]
fn chaos_matrix_holds_the_delay_budget() {
    let inst = day_scale_instance();
    for seed in chaos_seeds() {
        for kind in [ShardEngineKind::ScanPlus, ShardEngineKind::GreedyPlus] {
            let plan = FaultPlan::for_instance(&inst, SHARDS, seed, TAU);
            let panics = plan
                .faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::Panic))
                .count();
            let stalls = plan
                .faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::Stall { .. }))
                .count();
            assert!(panics >= 1, "seed {seed}: no panic injected");
            assert!(stalls >= 1, "seed {seed}: no stall injected");

            let res = run_supervised_stream(&inst, LAMBDA, TAU, SHARDS, kind, &plan)
                .expect("supervised run failed");

            assert!(
                !res.report.restarts.is_empty(),
                "seed {seed} {kind:?}: injected panic did not trigger a restart"
            );
            assert_eq!(
                res.report.tau_violations_unflagged, 0,
                "seed {seed} {kind:?}: non-degraded emission over budget"
            );
            assert!(
                res.report.max_unflagged_delay <= TAU,
                "seed {seed} {kind:?}: max unflagged delay {} > tau",
                res.report.max_unflagged_delay
            );
            assert!(
                res.result.is_cover(&inst, &FixedLambda(LAMBDA)),
                "seed {seed} {kind:?}: emitted sub-stream is not a cover"
            );
        }
    }
}

#[test]
fn fault_reports_are_byte_reproducible() {
    let inst = day_scale_instance();
    for seed in chaos_seeds() {
        let plan = FaultPlan::for_instance(&inst, SHARDS, seed, TAU);
        let kind = ShardEngineKind::ScanPlus;
        let threaded = run_supervised_stream(&inst, LAMBDA, TAU, SHARDS, kind, &plan)
            .expect("threaded run failed");
        let reference = run_supervised_reference(&inst, LAMBDA, TAU, SHARDS, kind, &plan)
            .expect("reference run failed");
        let again = run_supervised_stream(&inst, LAMBDA, TAU, SHARDS, kind, &plan)
            .expect("repeat run failed");
        assert_eq!(
            threaded.report.to_json(),
            reference.report.to_json(),
            "seed {seed}: threaded report differs from sequential"
        );
        assert_eq!(
            threaded.report.to_json(),
            again.report.to_json(),
            "seed {seed}: report not reproducible across runs"
        );
        assert_eq!(threaded.emissions, reference.emissions, "seed {seed}");
    }
}

#[test]
fn kill_restore_passes_coverage_verification() {
    let inst = day_scale_instance();
    let kind = ShardEngineKind::GreedyPlus;
    let plan = FaultPlan::for_instance(&inst, SHARDS, 4242, TAU);
    let full = run_supervised_reference(&inst, LAMBDA, TAU, SHARDS, kind, &plan)
        .expect("uninterrupted run failed");

    let kill_at = (inst.len() / 3) as u32;
    let mut run = SupervisedRun::new(&inst, LAMBDA, TAU, SHARDS, kind, &plan);
    while run.position() < kill_at && run.step().expect("pre-kill step failed") {}
    let bytes = encode_checkpoint(&mut run);
    drop(run); // the process dies here

    let mut resumed =
        resume_supervised(&inst, LAMBDA, TAU, SHARDS, kind, &plan, &bytes).expect("resume failed");
    resumed.run_all().expect("post-resume run failed");
    let res = resumed.finish().expect("post-resume finish failed");

    assert_eq!(
        res.emissions, full.emissions,
        "restored run's output differs from the uninterrupted run"
    );
    let mut selected: Vec<u32> = res.emissions.iter().map(|e| e.post).collect();
    selected.sort_unstable();
    selected.dedup();
    assert!(
        coverage::is_cover(&inst, &FixedLambda(LAMBDA), &selected),
        "restored run's output is not a lambda-cover"
    );
    // Delay bound: tau + checkpoint interval covers in-flight posts; here
    // the checkpoint sits at a delivery boundary, so tau itself holds for
    // every unflagged emission.
    assert_eq!(res.report.tau_violations_unflagged, 0);
}
