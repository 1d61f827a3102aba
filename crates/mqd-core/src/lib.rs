//! Core library for **Multi-Query Diversification in Microblogging Posts**
//! (Cheng, Arvanitis, Chrobak, Hristidis — EDBT 2014).
//!
//! Given a set of posts, each carrying a value on an ordered *diversity
//! dimension* (time, sentiment, ...) and a set of matched *labels* (user
//! queries), MQDP asks for the minimum subset of posts that lambda-covers
//! every label occurrence of every post. This crate provides:
//!
//! * the data model ([`Instance`], [`Post`], [`LabelId`]) and coverage
//!   semantics ([`coverage`]),
//! * fixed and density-proportional thresholds ([`FixedLambda`],
//!   [`VariableLambda`] — Section 6),
//! * the exact dynamic program [`algorithms::solve_opt`] (Section 4.1),
//! * the approximations [`algorithms::solve_greedy_sc`] (Section 4.2,
//!   `ln(|P||L|)` bound) and [`algorithms::solve_scan`] /
//!   [`algorithms::solve_scan_plus`] (Section 4.3, `s` bound),
//! * the NP-hardness gadget of Section 3 ([`hardness`]) used to
//!   machine-check Lemma 1 in the test suite.
//!
//! Streaming variants live in the companion crate `mqd-stream`.
//!
//! # Quick example
//!
//! ```
//! use mqd_core::{Instance, FixedLambda, algorithms::solve_scan, coverage};
//!
//! // Four posts on a timeline with two queries (0 and 1), lambda = 10.
//! let inst = Instance::from_values(
//!     vec![(0, vec![0]), (10, vec![0]), (20, vec![0, 1]), (30, vec![1])],
//!     2,
//! ).unwrap();
//! let lambda = FixedLambda(10);
//! let solution = solve_scan(&inst, &lambda);
//! assert!(coverage::is_cover(&inst, &lambda, &solution.selected));
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod coverage;
mod error;
pub mod hardness;
mod instance;
mod lambda;
pub mod metrics;
mod post;
pub mod record;
mod solution;
pub mod wire;

pub use error::MqdError;
pub use instance::{Instance, InstanceBuilder};
pub use lambda::{FixedLambda, LambdaProvider, VariableLambda};
pub use post::{LabelId, Post, PostId, SENTIMENT_SCALE};
pub use solution::Solution;
