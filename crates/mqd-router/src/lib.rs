//! Label-sharded scatter-gather router for the MQDP serving protocol.
//!
//! A single `mqd-server` holds the whole corpus; this crate scales the
//! serving layer *out* while keeping the serving contract — byte-identical
//! answers — intact. The router is a second std-only TCP process that
//! speaks the same line/JSON protocol to clients — its frontend is
//! `mqd-server`'s connection engine ([`mqd_server::conn`]) behind a
//! scatter-gather handler, so this crate holds no transport code — and
//! partitions the corpus across N shard backends by label: label `l` belongs to shard
//! [`mqd_core::wire::shard_of_label`]`(l, N)`, and backend `j` of the
//! ordered backend list serves shard `j mod N` (so `backends / N` replicas
//! per shard).
//!
//! * **Ingest** fans each row to every replica of every shard owning one
//!   of the row's labels, preserving arrival order, so each backend holds
//!   exactly the sub-corpus its labels select. The row keeps its *full*
//!   label set — answer rendering intersects labels with the query set,
//!   so shard-local rendering stays byte-identical to a single node.
//! * **`QUERY`** scatter-gathers: a query whose labels live on one shard
//!   forwards verbatim; a multi-shard fixed-λ Scan decomposes into
//!   per-shard `COVER` halves whose union *is* the single-node answer
//!   (per-label greedy covers are independent); everything else (`Scan+`,
//!   `GreedySC`, `OPT`, `PROP` — global objectives) gathers the raw shard
//!   slices via `SLICE`, reconstructs the global slice by a deterministic
//!   dedup-by-id merge, and solves locally through the same
//!   [`mqd_store::run_query`] definition the backends use.
//! * **`SUBSCRIBE`** relays from the owning shard and *fails over*: when
//!   a backend dies mid-stream the router reconnects to the next replica
//!   and resumes with `AFTER <already relayed>` — the emission sequence is
//!   a pure function of (instance, parameters), so the client sees zero
//!   duplicated and zero missing emissions, and `DONE` totals are
//!   unchanged (they are skip-independent by the PR 7 contract).
//! * **`STATS`** reports router-exact corpus counters (the core fields the
//!   oracle's `cluster-agreement` invariant byte-compares against a single
//!   node) plus per-shard generation watermarks and per-backend liveness.
//!
//! Every `QUERY` response is stamped with the vector of per-shard
//! generation watermarks the router has routed, so a client can tell
//! exactly which ingest prefix an answer reflects.

#![warn(missing_docs)]

mod backend;
mod merge;
mod router;

pub use backend::{BackendPool, Topology};
pub use merge::{merge_rows, solve_merged};
pub use router::{Router, RouterConfig};
