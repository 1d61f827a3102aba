//! Experiment harness reproducing every table and figure of the paper's
//! Section 7 evaluation, plus ablations. [`EXPERIMENTS`] is the table of
//! them; the `repro` binary runs entries by id and writes each one's
//! markdown/CSV report to `reports/`. See `DESIGN.md` §6 for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub mod args;
mod experiments;
mod grid;
mod measure;
pub mod report;
pub mod workloads;

pub use args::BenchArgs;
pub use experiments::{Experiment, EXPERIMENTS};
pub use workloads::{ten_minute_instance, OPT_FEASIBLE_PER_LABEL_PER_MIN};
