//! Experiment harness reproducing every table and figure of the paper's
//! Section 7 evaluation, plus ablations. Each binary under `src/bin/`
//! regenerates one artifact and writes a markdown/CSV report to `reports/`;
//! see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub mod args;
pub mod measure;
pub mod microbench;
pub mod report;
pub mod workloads;

pub use args::BenchArgs;
pub use measure::{micros_per_post, must, run_stream_by_name, time_it, STREAM_ENGINES};
pub use microbench::{Bencher, BenchmarkId, Criterion};
pub use report::{f1, f3, Report, Table};
pub use workloads::{
    day_instance, ten_minute_instance, CALIBRATED_PER_LABEL_PER_MIN, OPT_FEASIBLE_PER_LABEL_PER_MIN,
};
