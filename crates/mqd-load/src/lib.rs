//! `mqd-load`: the open-loop scenario driver behind `mqdiv load`
//! (DESIGN.md §17).
//!
//! A closed-loop client paces itself off the server: a slow response
//! delays the next request, so queueing delay disappears from the numbers
//! (coordinated omission). This crate generates load the way production
//! traffic arrives: a deterministic schedule of send deadlines ([`plan`])
//! built by named scenario composers ([`scenario`]), fired at the
//! deadline whether or not earlier responses came back ([`pacer`]), with
//! latency measured from the *scheduled* send time ([`runner`]) into a
//! log-bucketed histogram ([`hist`]). Every choice derives from one seed,
//! and the plan and the report rendering ([`report`]) are byte-stable.
//!
//! The only executor is the live one: real `mqdiv serve` / `mqdiv route`
//! endpoints over TCP. Its job is robustness evidence (typed rejections,
//! slowloris resolution, SLO verdicts in the e2es); performance numbers
//! come from `benchmark/` (DESIGN.md §18).

#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod pacer;
pub mod plan;
pub mod report;
pub mod runner;
pub mod scenario;

pub use clock::{Clock, RealClock};
pub use hist::Hist;
pub use plan::{Action, Op, Plan, SlowConn};
pub use report::{evaluate_slo, render_report, Counts, RunOutcome, SlowOutcome};
pub use runner::run_live;
pub use scenario::{build, ScenarioCfg, CATALOG};
