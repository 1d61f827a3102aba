//! Micro-benchmarks for the offline MQDP solvers (std-only harness).

use mqd_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mqd_bench::{ten_minute_instance, OPT_FEASIBLE_PER_LABEL_PER_MIN};
use mqd_core::algorithms::{
    solve_greedy_sc, solve_greedy_sc_scan_max, solve_opt, solve_scan, solve_scan_plus, LabelOrder,
    OptConfig,
};
use mqd_core::{coverage, FixedLambda, VariableLambda};

fn bench_offline_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline_solvers");
    for &l in &[2usize, 5, 20] {
        let inst = ten_minute_instance(l, 30.0, 1.2, 42).unwrap();
        let f = FixedLambda(15_000);
        g.bench_with_input(BenchmarkId::new("scan", l), &inst, |b, inst| {
            b.iter(|| black_box(solve_scan(inst, &f)))
        });
        g.bench_with_input(BenchmarkId::new("scan_plus", l), &inst, |b, inst| {
            b.iter(|| black_box(solve_scan_plus(inst, &f, LabelOrder::Input)))
        });
        g.bench_with_input(BenchmarkId::new("greedy_lazy", l), &inst, |b, inst| {
            b.iter(|| black_box(solve_greedy_sc(inst, &f)))
        });
    }
    g.finish();
}

fn bench_greedy_selection_strategies(c: &mut Criterion) {
    // The ablation the paper discusses in Section 7.3: scan-max vs heap.
    let inst = ten_minute_instance(5, 30.0, 1.2, 7).unwrap();
    let f = FixedLambda(30_000);
    let mut g = c.benchmark_group("greedy_selection");
    g.bench_function("lazy_heap", |b| {
        b.iter(|| black_box(solve_greedy_sc(&inst, &f)))
    });
    g.bench_function("scan_max", |b| {
        b.iter(|| black_box(solve_greedy_sc_scan_max(&inst, &f)))
    });
    g.finish();
}

fn bench_opt_small(c: &mut Criterion) {
    let inst = ten_minute_instance(2, OPT_FEASIBLE_PER_LABEL_PER_MIN, 1.2, 3).unwrap();
    c.bench_function("opt_dp_10min_L2", |b| {
        b.iter(|| black_box(solve_opt(&inst, 5_000, &OptConfig::default()).unwrap()))
    });
}

fn bench_coverage_verification(c: &mut Criterion) {
    let inst = ten_minute_instance(5, 60.0, 1.2, 9).unwrap();
    let f = FixedLambda(30_000);
    let sol = solve_scan(&inst, &f);
    c.bench_function("verify_cover", |b| {
        b.iter(|| black_box(coverage::is_cover(&inst, &f, &sol.selected)))
    });
}

fn bench_variable_lambda(c: &mut Criterion) {
    let inst = ten_minute_instance(5, 60.0, 1.2, 13).unwrap();
    c.bench_function("variable_lambda_precompute", |b| {
        b.iter(|| black_box(VariableLambda::compute(&inst, 30_000)))
    });
}

criterion_group!(
    benches,
    bench_offline_solvers,
    bench_greedy_selection_strategies,
    bench_opt_small,
    bench_coverage_verification,
    bench_variable_lambda,
);
criterion_main!(benches);
