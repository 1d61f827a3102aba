//! Generic set-cover substrate for the MQDP algorithms.
//!
//! The paper reduces MQDP to set cover (Section 4.2) and reuses greedy set
//! cover inside the streaming window algorithm (Section 5.2). This crate
//! provides that machinery independent of posts and labels:
//!
//! * [`bitset::BitSet`] — flat coverage bitmaps,
//! * [`fenwick::PresenceFenwick`] — windowed uncovered-element counting for
//!   the implicit (non-materialized) greedy used on large instances: one
//!   bit per element, popcounts plus a per-word Fenwick tree,
//! * [`queue::GainQueue`] — the gain-bucket queue every lazy greedy in the
//!   workspace selects from,
//! * [`greedy`] — scan-max greedy set cover over materialized sets.

#![warn(missing_docs)]

pub mod bitset;
pub mod fenwick;
pub mod greedy;
pub mod queue;

pub use bitset::BitSet;
pub use fenwick::PresenceFenwick;
pub use greedy::greedy_cover;
pub use queue::GainQueue;
