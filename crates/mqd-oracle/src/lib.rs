//! Differential + metamorphic correctness oracle for the MQDP solvers.
//!
//! The repo ships five offline solvers, a streaming family, a batched
//! multi-user solver, and a checkpointing supervisor — all claiming the
//! same coverage semantics (Definitions 1–2 of the EDBT 2014 paper) and
//! the theorem bounds of Sections 4–6. This crate machine-checks those
//! claims against each other and against an independent model:
//!
//! * [`generate`](mod@generate) — seeded instance families (profiles), including
//!   adversarial boundary cases;
//! * [`reference`](mod@reference) — a naive, windowless, `i128` re-implementation of the
//!   coverage semantics that shares no code with `mqd_core::coverage`;
//! * [`invariants`] — the executable theorems (see the table there);
//! * [`metamorphic`] — input transformations with provably invariant
//!   optima;
//! * [`shrink`] — greedy minimization of failing cases into `.tsv` repros;
//! * [`runner`] — the `(profile, seed)` sweep behind `mqdiv oracle`.
//!
//! The harness's teeth are proven by a mutation smoke test: flipping the
//! coverage comparator (`<=` to `<`) behind the debug-only hook
//! `mqd_core::coverage::test_hooks` must make the sweep fail with a
//! shrunk reproducer.

#![warn(missing_docs)]

pub mod generate;
pub mod invariants;
pub mod metamorphic;
pub mod reference;
pub mod runner;
pub mod shrink;

pub use generate::{generate, Case, Profile};
pub use invariants::{check_case, check_case_caught, Failure};
pub use runner::{run_oracle, FailureReport, OracleConfig, OracleSummary};
