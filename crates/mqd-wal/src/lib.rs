//! Durable persistence for [`mqd_store::Store`].
//!
//! The serving layer's store is memory-only; this crate gives it a
//! crash-safe on-disk life without touching its query semantics:
//!
//! * [`wal`] — an append-only, fsync'd write-ahead log. Every row is one
//!   independently-checksummed frame (no cross-frame delta coding), so a
//!   torn or truncated final frame is detected and cleanly truncated on
//!   replay — never a panic, never a phantom row. Frames are encoded into
//!   one buffer and reach the file at the ack: one write and one fsync
//!   per request, fail-stop after the first write that fails.
//! * [`segment`] — sealed, immutable on-disk blocks of one window of rows
//!   each, in the MQDL row codec [`mqd_core::record`] owns. A block carries
//!   nothing derived from its rows; recovery rebuilds the in-memory index
//!   by replaying them.
//! * [`durable`] — [`DurableStore`]: the orchestration layer. What it
//!   keeps in a data dir is `LOCK` + `wal` + full-window blocks. Appends go
//!   WAL-first (ack only after [`DurableStore::sync`]), a segment-sized
//!   window of rows that completes is sealed into a block straight from
//!   the store's segment (its frames leave the WAL, or never reach it), and
//!   retention GC drops whole windows that no live λ-window lease can
//!   ever touch again. Recovery replays blocks + WAL tail and restores the
//!   store byte-identically (rows, generation, stats) to the
//!   uninterrupted process at the same ingest prefix.
//! * [`fsio`] — the single sanctioned home of durable filesystem mutation
//!   (atomic tempfile+rename writes, deletes, truncation — each paired
//!   with the directory/file fsync that makes it actually durable — and
//!   the data dir's single-writer lock). `disallowed-methods` in this
//!   crate's `clippy.toml` keeps every other module out of the mutation
//!   business.
//!
//! All formats use the shared [`mqd_core::wire`] varint + FNV-1a framing;
//! the file magics (`WAL!`, `MQDS`) are minted in `mqd_core::wire` and
//! only aliased here. `tests/seal_bytes.rs` opens a data dir written with
//! those bytes (`tests/golden/`), so an alias that drifts fails there.
//! Like the rest of the workspace, this crate depends only on `std`.

#![warn(missing_docs)]

pub mod durable;
pub mod fsio;
pub mod segment;
pub mod wal;

pub use durable::{DurableOptions, DurableStats, DurableStore};
pub use segment::{decode_segment, encode_segment, SegmentFile};
pub use wal::Wal;
