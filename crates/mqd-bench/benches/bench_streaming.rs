//! Micro-benchmarks for the streaming engines (std-only harness).

use mqd_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mqd_bench::ten_minute_instance;
use mqd_core::FixedLambda;
use mqd_stream::{run_stream, InstantScan, StreamGreedy, StreamScan};

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_engines");
    for &l in &[2usize, 5, 20] {
        let inst = ten_minute_instance(l, 30.0, 1.2, 42).unwrap();
        let f = FixedLambda(15_000);
        let tau = 10_000;
        g.bench_with_input(BenchmarkId::new("stream_scan", l), &inst, |b, inst| {
            b.iter(|| {
                let mut e = StreamScan::new(l, inst.len());
                black_box(run_stream(inst, &f, tau, &mut e))
            })
        });
        g.bench_with_input(BenchmarkId::new("stream_scan_plus", l), &inst, |b, inst| {
            b.iter(|| {
                let mut e = StreamScan::new_plus(l, inst.len());
                black_box(run_stream(inst, &f, tau, &mut e))
            })
        });
        g.bench_with_input(BenchmarkId::new("stream_greedy", l), &inst, |b, inst| {
            b.iter(|| {
                let mut e = StreamGreedy::new(l, inst.len());
                black_box(run_stream(inst, &f, tau, &mut e))
            })
        });
        g.bench_with_input(BenchmarkId::new("instant", l), &inst, |b, inst| {
            b.iter(|| {
                let mut e = InstantScan::new(l);
                black_box(run_stream(inst, &f, 0, &mut e))
            })
        });
    }
    g.finish();
}

fn bench_tau_sensitivity(c: &mut Criterion) {
    let inst = ten_minute_instance(5, 30.0, 1.2, 7).unwrap();
    let f = FixedLambda(30_000);
    let mut g = c.benchmark_group("greedy_window_tau");
    for &tau_s in &[1i64, 10, 60] {
        g.bench_with_input(BenchmarkId::from_parameter(tau_s), &tau_s, |b, &tau_s| {
            b.iter(|| {
                let mut e = StreamGreedy::new(5, inst.len());
                black_box(run_stream(&inst, &f, tau_s * 1000, &mut e))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engines, bench_tau_sensitivity);
criterion_main!(benches);
