//! Cross-crate equivalence tests for the parallel execution layer: every
//! parallel path must be byte-identical to its sequential counterpart at
//! any thread count, on realistic datagen streams. These are the
//! determinism guarantees DESIGN.md's "Threading model" section promises.

use mqd_core::algorithms::solve_greedy_sc_threads;
use mqd_core::{coverage, FixedLambda, Instance};
use mqd_datagen::{generate_labeled_posts, LabeledStreamConfig, MINUTE_MS};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_stream::{
    run_sharded_reference, run_supervised_stream, solve_batch_users_threads, BatchUser, FaultPlan,
    ShardEngineKind,
};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// A few minutes of the calibrated synthetic Twitter stream.
fn stream_instance(seed: u64, num_labels: usize, minutes: i64, skew: f64) -> Instance {
    let posts = generate_labeled_posts(&LabeledStreamConfig {
        num_labels,
        per_label_per_minute: 30.0,
        overlap: 1.3,
        start_ms: 0,
        duration_ms: minutes * MINUTE_MS,
        label_skew: skew,
        diurnal_amplitude: 0.0,
        seed,
    });
    Instance::from_posts(posts, num_labels).expect("datagen stream is well-formed")
}

#[test]
fn greedy_sc_identical_across_thread_counts() {
    for (seed, labels, skew) in [(11, 3, 0.0), (12, 6, 0.8), (13, 10, 1.5)] {
        let inst = stream_instance(seed, labels, 4, skew);
        let f = FixedLambda(5_000);
        let base = solve_greedy_sc_threads(1, &inst, &f);
        assert!(coverage::is_cover(&inst, &f, &base.selected), "seed {seed}");
        for &t in THREAD_COUNTS {
            let sol = solve_greedy_sc_threads(t, &inst, &f);
            assert_eq!(
                sol.selected, base.selected,
                "GreedySC diverged: seed {seed}, {t} threads"
            );
        }
    }
}

#[test]
fn violations_identical_across_thread_counts() {
    for (seed, labels) in [(21, 4), (22, 8)] {
        let inst = stream_instance(seed, labels, 3, 0.5);
        let f = FixedLambda(7_000);
        // A deliberately partial selection so violations are non-empty.
        let selected: Vec<u32> = (0..inst.len() as u32).step_by(5).collect();
        let base = coverage::violations_threads(1, &inst, &f, &selected);
        assert!(!base.is_empty() || inst.len() < 5, "seed {seed}");
        for &t in THREAD_COUNTS {
            let v = coverage::violations_threads(t, &inst, &f, &selected);
            assert_eq!(v, base, "violations diverged: seed {seed}, {t} threads");
        }
    }
}

#[test]
fn batch_multiuser_identical_and_valid_across_thread_counts() {
    let inst = stream_instance(31, 8, 3, 0.6);
    let mut rng = StdRng::seed_from_u64(31);
    let users: Vec<BatchUser> = (0..20)
        .map(|_| {
            let k = rng.random_range(1..=4usize);
            BatchUser {
                labels: (0..k).map(|_| rng.random_range(0..8u16)).collect(),
                lambda: rng.random_range(1_000..12_000i64),
            }
        })
        .collect();
    let base = solve_batch_users_threads(1, &inst, &users);
    for &t in THREAD_COUNTS {
        let digests = solve_batch_users_threads(t, &inst, &users);
        assert_eq!(digests, base, "batch digests diverged at {t} threads");
    }
}

#[test]
fn sharded_streaming_matches_reference_and_respects_tau() {
    let inst = stream_instance(41, 6, 3, 0.4);
    let (lambda, tau) = (6_000i64, 4_000i64);
    let f = FixedLambda(lambda);
    for kind in [
        ShardEngineKind::Scan,
        ShardEngineKind::ScanPlus,
        ShardEngineKind::Greedy,
        ShardEngineKind::GreedyPlus,
    ] {
        for &shards in THREAD_COUNTS {
            let par = run_supervised_stream(&inst, lambda, tau, shards, kind, &FaultPlan::none())
                .expect("a fault-free supervised run cannot fail")
                .result;
            let seq = run_sharded_reference(&inst, lambda, tau, shards, kind);
            assert_eq!(
                par.emissions, seq.emissions,
                "{kind:?} emissions diverged at {shards} shards"
            );
            assert_eq!(par.selected, seq.selected, "{kind:?} at {shards} shards");
            assert!(
                coverage::is_cover(&inst, &f, &par.selected),
                "{kind:?} at {shards} shards is not a cover"
            );
            assert!(
                par.max_delay <= tau,
                "{kind:?} at {shards} shards: delay {} > tau {tau}",
                par.max_delay
            );
        }
    }
}

#[test]
fn global_thread_config_does_not_change_results() {
    // The env/CLI-facing entry points route through configured_threads();
    // pinning the global override must never change any answer.
    let inst = stream_instance(51, 5, 2, 0.0);
    let f = FixedLambda(5_000);
    let base = solve_greedy_sc_threads(1, &inst, &f);
    for n in [1usize, 3] {
        mqd_par::set_threads(Some(n));
        let sol = mqd_core::algorithms::solve_greedy_sc(&inst, &f);
        assert_eq!(sol.selected, base.selected, "override {n}");
    }
    mqd_par::set_threads(None);
}
