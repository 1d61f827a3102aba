//! In-memory, time-partitioned post store for the MQDP serving layer.
//!
//! The offline pipeline solves one TSV file and exits; a serving deployment
//! instead holds a growing corpus and answers many `(label set, lambda,
//! time range)` queries against slices of it. This crate provides the three
//! pieces that make that cheap:
//!
//! * [`Store`] — an append-only, time-partitioned store. Posts arrive in
//!   arrival order (monotone non-decreasing dimension value, the same
//!   contract as the streaming pipeline) and land in bounded-size
//!   *segments*, each with an inverted label → posting-list index, so a
//!   query touches only the segments and postings its labels and range
//!   intersect — never the full corpus.
//! * [`query`] — the reference slice-and-solve path ([`run_query`]):
//!   carve a [`mqd_core::Instance`] out of the store for a `(labels,
//!   range)` pair and run one of the paper's solvers over it; and the
//!   server's cold path ([`answer_cold`]), which answers fixed-λ Scan and
//!   Scan+ by walking the label postings instead. The oracle's loopback
//!   agreement check holds every served answer to the reference's bytes.
//! * [`CoverCache`] — a per-`(labels, lambda, algorithm, range)` answer
//!   cache maintained *incrementally*: each append is checked against every
//!   entry's (label, value-range) footprint; entries outside it revalidate
//!   untouched, fixed-lambda Scan entries inside it are repaired in place
//!   (byte-identical to a cold solve), and everything else goes stale —
//!   still servable at its watermark generation — until a background
//!   refresher re-solves it. See the [`cache`] module docs for the
//!   protocol.
//!
//! Like the rest of the workspace, this crate depends only on `std`.

#![warn(missing_docs)]

pub mod cache;
pub mod query;
mod store;

pub use cache::{CacheStats, CoverCache, Lookup, DEFAULT_DEBT_BOUND, DEFAULT_MAX_LAG};
pub use query::{
    answer_cold, repair_state, repairable, run_query, run_query_cover, run_query_with_repair,
    solve_slice, validate_spec, Algorithm, QuerySpec,
};
pub use store::{Slice, Store, StoreStats, SEGMENT_TARGET_ROWS};
