//! [`DurableStore`]: an [`mqd_store::Store`] with a crash-safe disk life.
//!
//! ## Data layout
//!
//! A data directory is `LOCK` + `wal` + zero or more `seg-<first_seq>.mqds`,
//! where every block ([`crate::segment`] format) holds exactly
//! `segment_rows` rows starting at a multiple of `segment_rows`, and the
//! WAL ([`crate::wal`] format) holds exactly the rows after the last
//! block. The global row sequence number (`seq`, 0-based, equal to the
//! store generation after that row) partitions into fixed *windows* of
//! `segment_rows` rows — the same unit the in-memory store uses for its
//! segments, which is what keeps the recovered process's segmentation
//! (and therefore its `STATS`) byte-identical to the uninterrupted one.
//! `LOCK` carries the exclusive advisory lock that keeps a second process
//! out of the directory for as long as this store lives.
//!
//! ## Write path
//!
//! `append` is one [`Store::append_logged`] pass: the row is validated
//! against the store contract **first** (an invalid row is never logged)
//! and its labels normalized once, its WAL frame is encoded from that
//! normalized row into the log's buffer, then the row enters memory.
//! [`DurableStore::sync`] is the ack barrier: it writes the request's
//! frames through in one write and fsyncs them, and the server calls it
//! before answering `+OK`, so an
//! acked row is always replayable (and a row that was only appended is
//! not: a kill before `sync` loses it, unacked). When a window completes,
//! it is sealed into one block (atomic tempfile+rename, directory synced)
//! from the store's own segment ([`Store::segment_rows`], its rows
//! rebuilt from the postings once per window) — memory segment *k* is disk
//! window *k* — and the WAL is reset, which discards the window's
//! still-buffered frames: a window that fills inside one request costs
//! the block's two fsyncs and never reaches the log. A crash between seal
//! and reset leaves both the block and a stale WAL, which recovery
//! deduplicates by seq. Nothing else writes blocks: a shutdown, graceful
//! or not, leaves the unfinished window in the WAL. A log write that
//! fails makes the store fail-stop for writes ([`crate::wal`], "Fail-stop").
//!
//! ## Retention GC
//!
//! With a `retain` span configured, [`DurableStore::run_gc`] drops leading
//! blocks whose newest value lies below both the retention horizon
//! (`tip - retain`) and the caller-supplied live-lease horizon (the
//! smallest `from` / largest λ window any live cache entry, subscription,
//! or named checkpoint may still touch). Whole blocks only, and never the
//! newest one, whose `first_seq` tells the next `open` where the retained
//! history (and so the WAL tail) starts. The in-memory store drops exactly
//! the same segments, so a query can never observe a half-collected
//! window, and a restart replays exactly the retained suffix (cumulative
//! counters are re-seeded via [`mqd_store::Store::set_origin`]).

use std::fs::File;
use std::path::{Path, PathBuf};

use mqd_core::record::RowRef;
use mqd_core::MqdError;
use mqd_store::{Store, StoreStats, SEGMENT_TARGET_ROWS};

use crate::fsio;
use crate::segment::{decode_segment, encode_segment};
use crate::wal::Wal;

/// Options for opening a durable store.
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Fsync on the durability points (WAL ack barrier, block seal,
    /// directory mutations). Disabling trades crash safety for ingest
    /// throughput; ordering guarantees are kept either way.
    pub fsync: bool,
    /// Rows per window (= in-memory segment target = sealed block size).
    pub segment_rows: usize,
    /// Retention span in value units; windows whose values all lie more
    /// than this far behind the newest value become GC candidates. `None`
    /// retains everything.
    pub retain: Option<i64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: true,
            segment_rows: SEGMENT_TARGET_ROWS,
            retain: None,
        }
    }
}

/// Durability counters, as reported under `"durable"` in `STATS`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DurableStats {
    /// Current WAL size in bytes (0 for a memory-only store).
    pub wal_bytes: u64,
    /// Blocks sealed (one per completed window).
    pub segments_flushed: u64,
    /// Rows replayed from disk when this process opened the store.
    pub recovered_rows: u64,
    /// Windows dropped by retention GC over this process's lifetime.
    pub gc_segments: u64,
}

/// One sealed block on disk: a full window.
struct BlockMeta {
    max_value: i64,
    path: PathBuf,
}

/// The disk half of a durable store.
struct Disk {
    dir: PathBuf,
    wal: Wal,
    /// Sealed blocks in seq order: contiguous full windows. Block `i`
    /// holds the rows of the store's segment `i` (GC drops both in
    /// lockstep), so the unsealed rows are the segments from
    /// `blocks.len()` on.
    blocks: Vec<BlockMeta>,
    /// Seq after the last sealed block: where the WAL tail starts.
    sealed_seq: u64,
    /// Next global row sequence number.
    next_seq: u64,
    window: u64,
    fsync: bool,
    retain: Option<i64>,
    /// Holds the data dir's exclusive lock until the store drops.
    _lock: File,
}

/// An [`mqd_store::Store`] with optional WAL + sealed-segment persistence.
/// Memory-only mode ([`DurableStore::memory`]) behaves exactly like the
/// bare store, so the server has a single code path.
pub struct DurableStore {
    store: Store,
    disk: Option<Disk>,
    segments_flushed: u64,
    recovered_rows: u64,
    gc_segments: u64,
}

impl DurableStore {
    /// A memory-only store (no data dir): nothing is persisted.
    pub fn memory() -> Self {
        DurableStore {
            store: Store::new(),
            disk: None,
            segments_flushed: 0,
            recovered_rows: 0,
            gc_segments: 0,
        }
    }

    /// Opens (creating or recovering) the durable store in `dir`, which
    /// stays locked against other openers until the store drops.
    ///
    /// Recovery order: leftover `.tmp` files are removed; sealed blocks
    /// are decoded once each, in seq order, and replayed (a block that is
    /// not the next full, aligned window is a typed
    /// [`MqdError::Corrupt`], never skipped or deleted); then the WAL
    /// tail is replayed — tolerating a torn final frame (truncated, never
    /// a panic) and deduplicating frames whose seq a sealed block already
    /// covers. Complete windows the crash left in the WAL are sealed
    /// before returning.
    pub fn open(dir: &Path, opts: &DurableOptions) -> Result<Self, MqdError> {
        fsio::ensure_dir(dir)?;
        let lock = fsio::lock_dir(dir)?;
        let mut store = Store::with_segment_target(opts.segment_rows);
        let window = store.segment_target() as u64;

        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // Crashed mid-write leftovers are not data.
                fsio::remove_durable(&entry.path(), opts.fsync)?;
            } else if name.starts_with("seg-") && name.ends_with(".mqds") {
                paths.push(entry.path());
            }
        }
        // Zero-padded names: path order is seq order.
        paths.sort();
        let mut blocks: Vec<BlockMeta> = Vec::with_capacity(paths.len());
        let mut expected = 0u64;
        for path in paths {
            let seg = decode_segment(&std::fs::read(&path)?)?;
            if blocks.is_empty() {
                // Retention GC may have dropped any number of leading
                // windows; history resumes at the first block kept.
                expected = seg.first_seq;
                store.set_origin(expected);
            }
            if seg.first_seq != expected
                || !expected.is_multiple_of(window)
                || seg.rows.len() as u64 != window
            {
                return Err(MqdError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "block {} holds {} rows from seq {}, expected the full {window}-row \
                         window at seq {expected} (missing, overlapping or short block)",
                        path.display(),
                        seg.rows.len(),
                        seg.first_seq
                    ),
                });
            }
            blocks.push(BlockMeta {
                max_value: seg.rows.values().last().copied().unwrap_or(0),
                path,
            });
            // Straight from the block's columns: no row is a `Record`.
            for row in seg.rows.iter() {
                store.append_logged(row, |_| Ok(()))?;
            }
            expected += window;
        }
        let mut recovered_rows = blocks.len() as u64 * window;

        // WAL tail: skip frames a sealed block already covers (the
        // seal-then-reset crash window), then replay the rest in order.
        let rec = Wal::open(&dir.join("wal"), opts.fsync)?;
        let sealed_seq = expected;
        let mut stale_frames = false;
        for (seq, row) in rec.rows {
            if seq < expected {
                stale_frames = true;
                continue;
            }
            if seq != expected {
                return Err(MqdError::Corrupt {
                    offset: 0,
                    reason: format!("WAL frame seq {seq} leaves a gap (expected {expected})"),
                });
            }
            store.append(row)?;
            recovered_rows += 1;
            expected += 1;
        }

        let mut out = DurableStore {
            store,
            disk: Some(Disk {
                dir: dir.to_path_buf(),
                wal: rec.wal,
                blocks,
                sealed_seq,
                next_seq: expected,
                window,
                fsync: opts.fsync,
                retain: opts.retain,
                _lock: lock,
            }),
            segments_flushed: 0,
            recovered_rows,
            gc_segments: 0,
        };
        // A kill after the WAL write of a window's final row but before
        // its seal leaves one or more complete windows in the WAL: seal
        // them now, so every block on disk stays exactly one window. A
        // kill between a seal and its reset leaves frames a block covers:
        // drop those too, restoring "WAL contents == unsealed rows".
        out.seal(stale_frames)?;
        Ok(out)
    }

    /// The wrapped store (all read paths go through this).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Current generation (bumps on every append).
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// Store-wide counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Durability counters.
    pub fn durable_stats(&self) -> DurableStats {
        DurableStats {
            wal_bytes: self.disk.as_ref().map_or(0, |d| d.wal.bytes()),
            segments_flushed: self.segments_flushed,
            recovered_rows: self.recovered_rows,
            gc_segments: self.gc_segments,
        }
    }

    /// Whether retention GC is configured.
    pub fn wants_gc(&self) -> bool {
        self.disk.as_ref().is_some_and(|d| d.retain.is_some())
    }

    /// Appends one row (a [`RowRef`] of a decoded batch, or a `&Record`):
    /// validate, WAL frame (buffered), then memory. Not durable until
    /// [`DurableStore::sync`] — the server syncs once per ingest request,
    /// before acking. After a failed log write every call returns
    /// [`MqdError::Io`] and appends nothing.
    pub fn append<'a>(&mut self, row: impl Into<RowRef<'a>>) -> Result<(), MqdError> {
        let disk = &mut self.disk;
        self.store.append_logged(row.into(), |normalized| {
            if let Some(disk) = disk.as_mut() {
                disk.wal.append(disk.next_seq, normalized)?;
                disk.next_seq += 1;
            }
            Ok(())
        })?;
        if self
            .disk
            .as_ref()
            .is_some_and(|d| d.next_seq.is_multiple_of(d.window))
        {
            self.seal(false)?;
        }
        Ok(())
    }

    /// The ack barrier: writes the WAL frames appended since the last
    /// sync through to the file and fsyncs them.
    pub fn sync(&mut self) -> Result<(), MqdError> {
        match self.disk.as_mut() {
            Some(disk) => disk.wal.sync(),
            None => Ok(()),
        }
    }

    /// Seals every complete unsealed window into its own block, read from
    /// the store's segment of the same index; the unfinished window stays
    /// in the WAL. Block writes are atomic and directory-synced *before*
    /// the WAL shrinks, so a crash in between only leaves benign
    /// duplicates. The WAL shrinks when a block was written or the caller
    /// found `stale_frames` (frames a block already covers) in it: a reset
    /// when no unsealed row remains, an atomic rewrite to the unfinished
    /// window otherwise (recovery only; a live append seals on the
    /// boundary).
    fn seal(&mut self, stale_frames: bool) -> Result<(), MqdError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(());
        };
        let mut shrink = stale_frames;
        while let Some(rows) = self
            .store
            .segment_rows(disk.blocks.len())
            .filter(|rows| rows.len() as u64 == disk.window)
        {
            let first_seq = disk.sealed_seq;
            let path = disk.dir.join(format!("seg-{first_seq:016}.mqds"));
            let max_value = rows.values().last().copied().unwrap_or(0);
            fsio::write_atomic(&path, &encode_segment(first_seq, rows.iter()), disk.fsync)?;
            disk.blocks.push(BlockMeta { max_value, path });
            disk.sealed_seq += disk.window;
            self.segments_flushed += 1;
            shrink = true;
        }
        if !shrink {
            return Ok(());
        }
        match self.store.segment_rows(disk.blocks.len()) {
            Some(tail) => disk.wal.rewrite(disk.sealed_seq, tail.iter()),
            None => disk.wal.reset(),
        }
    }

    /// Retention GC. `live_horizon` is the smallest value any live lease
    /// (cache entry slice, active subscription, named checkpoint — each
    /// widened by its λ window) may still touch; pass `i64::MAX` when no
    /// lease exists. Drops leading blocks that are entirely below both
    /// horizons — never the newest block — from disk *and* the in-memory
    /// store in lockstep. Returns the number of windows dropped.
    pub fn run_gc(&mut self, live_horizon: i64) -> Result<u64, MqdError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(0);
        };
        let Some(retain) = disk.retain else {
            return Ok(0);
        };
        let Some(tip) = self.store.last_value() else {
            return Ok(0);
        };
        let horizon = tip.saturating_sub(retain).min(live_horizon);
        // The newest block always stays: its `first_seq` is the only
        // durable record of where the retained history starts, and `open`
        // needs it to place the WAL tail.
        let dead = disk
            .blocks
            .iter()
            .take(disk.blocks.len().saturating_sub(1))
            .take_while(|b| b.max_value < horizon)
            .count();
        for b in disk.blocks.drain(..dead) {
            fsio::remove_durable(&b.path, disk.fsync)?;
        }
        self.store.drop_leading_segments(dead);
        self.gc_segments += dead as u64;
        Ok(dead as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::record::Record;

    fn row(id: u64, value: i64, labels: &[u16]) -> Record {
        Record {
            id,
            value,
            labels: labels.to_vec(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mqd-durable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(window: usize) -> DurableOptions {
        DurableOptions {
            fsync: false, // tests exercise logic, not the disk cache
            segment_rows: window,
            retain: None,
        }
    }

    fn ingest(ds: &mut DurableStore, range: std::ops::Range<u64>) {
        for i in range {
            ds.append(&row(i, i as i64 * 10, &[(i % 3) as u16]))
                .unwrap();
        }
        ds.sync().unwrap();
    }

    #[test]
    fn recovery_matches_the_uninterrupted_store() {
        let dir = tmpdir("recover");
        // 10 rows over 4-row windows: 2 sealed blocks + 2 rows in the WAL.
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..10);
        let want_stats = ds.store_stats();
        assert_eq!(ds.durable_stats().segments_flushed, 2);
        drop(ds); // the WAL tail is replayed, as after a kill

        let ds2 = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds2.store_stats(), want_stats);
        assert_eq!(ds2.durable_stats().recovered_rows, 10);
        // Same slices, byte for byte.
        let a = ds2.store().slice(&[0, 1, 2], i64::MIN, i64::MAX);
        assert_eq!(a.instance.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_continues_the_sequence_exactly() {
        let dir = tmpdir("continue");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..6);
        drop(ds);
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.generation(), 6);
        ingest(&mut ds, 6..9);
        assert_eq!(ds.generation(), 9);
        assert_eq!(ds.store_stats().segments, 3); // 4 + 4 + 1
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `seg-*.mqds` names in `dir`, sorted, after checking that each
    /// decodes to exactly one aligned `window`-row block.
    fn full_window_blocks(dir: &Path, window: u64) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".mqds"))
            .collect();
        names.sort();
        for name in &names {
            let seg = decode_segment(&std::fs::read(dir.join(name)).unwrap()).unwrap();
            assert_eq!(seg.rows.len() as u64, window, "{name}");
            assert_eq!(seg.first_seq % window, 0, "{name}");
            assert_eq!(*name, format!("seg-{:016}.mqds", seg.first_seq));
        }
        names
    }

    #[test]
    fn a_dir_is_full_window_blocks_plus_the_wal_tail() {
        // A store dropped mid-window leaves only full-window blocks on
        // disk and the tail in the WAL; the next window seals as one block.
        let dir = tmpdir("one-shape");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..6);
        drop(ds);
        assert_eq!(full_window_blocks(&dir, 4), ["seg-0000000000000000.mqds"]);
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.durable_stats().recovered_rows, 6);
        assert!(ds.durable_stats().wal_bytes > crate::wal::HEADER_LEN);
        ingest(&mut ds, 6..8); // completes window 1: one seal, one block
        assert_eq!(ds.durable_stats().segments_flushed, 1);
        assert_eq!(ds.durable_stats().wal_bytes, crate::wal::HEADER_LEN);
        assert_eq!(
            full_window_blocks(&dir, 4),
            ["seg-0000000000000000.mqds", "seg-0000000000000004.mqds"]
        );
        drop(ds);
        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.store_stats().rows, 8);
        assert_eq!(ds.durable_stats().recovered_rows, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_block_that_is_not_the_next_full_window_is_corrupt_never_deleted() {
        let dir = tmpdir("bad-shape");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..9); // blocks [0,4) and [4,8) + WAL tail [8,9)
        drop(ds);
        let rows = |range: std::ops::Range<u64>| -> Vec<Record> {
            range
                .map(|i| row(i, i as i64 * 10, &[(i % 3) as u16]))
                .collect()
        };
        let mut v1 = crate::segment::MAGIC.to_vec();
        v1.extend_from_slice(&[1, 8, 0]); // version 1, first_seq 8, filler
        mqd_core::wire::seal_framed(&mut v1, mqd_core::wire::FRAME_FOOTER);
        let second = dir.join("seg-0000000000000004.mqds");
        let good = std::fs::read(&second).unwrap();
        for (name, blob, what) in [
            (
                "seg-0000000000000002.mqds",
                encode_segment(2, &rows(2..4)),
                "overlapping",
            ),
            (
                "seg-0000000000000004.mqds",
                encode_segment(4, &rows(4..6)),
                "short",
            ),
            (
                "seg-0000000000000004.mqds",
                encode_segment(6, &rows(6..10)),
                "gapped",
            ),
            ("seg-0000000000000008.mqds", v1, "previous-format"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, blob).unwrap();
            match DurableStore::open(&dir, &opts(4)) {
                Err(MqdError::Corrupt { .. }) => {}
                Err(other) => panic!("{what} block: unexpected error kind {other:?}"),
                Ok(_) => panic!("{what} block accepted"),
            }
            assert!(path.exists(), "{what} block must not be deleted");
            std::fs::remove_file(&path).unwrap();
            std::fs::write(&second, &good).unwrap();
        }
        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.store_stats().rows, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_data_dir_has_one_writer_at_a_time() {
        let dir = tmpdir("lock");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..2);
        match DurableStore::open(&dir, &opts(4)) {
            Err(MqdError::Io(msg)) => assert!(msg.contains("in use by another process"), "{msg}"),
            Err(other) => panic!("unexpected error kind {other:?}"),
            Ok(_) => panic!("second open of a live data dir succeeded"),
        }
        ingest(&mut ds, 2..3); // the holder is unaffected
        drop(ds);
        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.store_stats().rows, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_windows_left_pending_by_a_crash_are_sealed_at_open() {
        let dir = tmpdir("pending-window");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..3);
        drop(ds);
        // Re-create the crash window: the WAL holds the final rows of
        // window 0 and all of window 1 (kill landed after the WAL writes
        // but before any seal).
        let rec = Wal::open(&dir.join("wal"), false).unwrap();
        let mut wal = rec.wal;
        for i in 3..9u64 {
            wal.append(i, &row(i, i as i64 * 10, &[(i % 3) as u16]))
                .unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.store_stats().rows, 9);
        // Windows 0 and 1 sealed as separate boundary-aligned blocks; the
        // tail row stays in the WAL.
        assert_eq!(
            full_window_blocks(&dir, 4),
            ["seg-0000000000000000.mqds", "seg-0000000000000004.mqds"]
        );
        // GC still walks the leading windows (no oversized group blocks
        // it), but with a WAL tail pending it keeps the newest block: that
        // block carries the origin the next open places the tail by.
        let mut o = opts(4);
        o.retain = Some(0);
        drop(ds);
        let mut ds = DurableStore::open(&dir, &o).unwrap();
        assert_eq!(ds.run_gc(i64::MAX).unwrap(), 1);
        assert_eq!(full_window_blocks(&dir, 4), ["seg-0000000000000004.mqds"]);
        ingest(&mut ds, 9..10);
        let want = ds.store_stats();
        assert_eq!(want.generation, 10);
        drop(ds);
        let ds = DurableStore::open(&dir, &o).unwrap();
        assert_eq!(ds.store_stats(), want);
        assert_eq!(ds.durable_stats().recovered_rows, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_seal_crash_is_deduplicated() {
        let dir = tmpdir("dedupe");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..4); // sealed block, WAL reset
        drop(ds);
        // Re-create the crash window: a WAL that still carries the sealed
        // rows (seal completed, reset did not).
        let rec = Wal::open(&dir.join("wal"), false).unwrap();
        let mut wal = rec.wal;
        for i in 0..4u64 {
            wal.append(i, &row(i, i as i64 * 10, &[(i % 3) as u16]))
                .unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(
            ds.store_stats().rows,
            4,
            "stale frames must not double-apply"
        );
        drop(ds);
        // And the rewritten WAL reopens clean.
        let ds = DurableStore::open(&dir, &opts(4)).unwrap();
        assert_eq!(ds.store_stats().rows, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_mode_is_the_plain_store() {
        let mut ds = DurableStore::memory();
        ingest(&mut ds, 0..10);
        assert_eq!(ds.durable_stats(), DurableStats::default());
        assert_eq!(ds.store_stats().rows, 10);
    }

    #[test]
    fn invalid_rows_are_rejected_before_the_wal() {
        let dir = tmpdir("reject");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ds.append(&row(1, 10, &[0])).unwrap();
        let wal_bytes = ds.durable_stats().wal_bytes;
        assert!(ds.append(&row(2, 5, &[0])).is_err()); // non-monotone
        assert!(ds.append(&row(3, 20, &[])).is_err()); // empty labels
        assert_eq!(
            ds.durable_stats().wal_bytes,
            wal_bytes,
            "rejected rows must never reach the WAL"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_drops_only_dead_complete_windows_in_lockstep() {
        let dir = tmpdir("gc");
        let mut o = opts(4);
        o.retain = Some(100);
        let mut ds = DurableStore::open(&dir, &o).unwrap();
        // Values 0,10,...,190: windows span 40 value units each.
        ingest(&mut ds, 0..20);
        let before = ds.store_stats();
        assert_eq!(before.segments, 5);

        // A live lease pinning everything: nothing may drop.
        assert_eq!(ds.run_gc(i64::MIN).unwrap(), 0);

        // No lease: horizon = 190 - 100 = 90 -> window 0 (max 30) and
        // window 1 (max 70) die; window 2 (max 110) survives.
        assert_eq!(ds.run_gc(i64::MAX).unwrap(), 2);
        let after = ds.store_stats();
        assert_eq!(after.segments, 3);
        assert_eq!(after.rows, 20, "cumulative counters survive GC");
        assert_eq!(after.generation, 20);
        assert_eq!(after.min_value, Some(80));
        assert_eq!(ds.durable_stats().gc_segments, 2);
        // GC is idempotent at the same tip.
        assert_eq!(ds.run_gc(i64::MAX).unwrap(), 0);

        // A restart replays only the retained suffix and reports the
        // exact same stats (set_origin seeds the cumulative counters).
        drop(ds);
        let ds = DurableStore::open(&dir, &o).unwrap();
        assert_eq!(ds.store_stats(), after);
        assert_eq!(ds.durable_stats().recovered_rows, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_never_drops_the_newest_window() {
        let dir = tmpdir("gc-newest");
        let mut o = opts(4);
        o.retain = Some(0);
        let mut ds = DurableStore::open(&dir, &o).unwrap();
        ingest(&mut ds, 0..8); // exactly two sealed windows

        // retain=0: horizon is the tip itself, both windows are "dead",
        // but the newest must survive.
        assert_eq!(ds.run_gc(i64::MAX).unwrap(), 1);
        assert_eq!(ds.store_stats().segments, 1);
        // One row after a quiet gap puts the last block below the horizon
        // too; it still stays, or a restart could not place the WAL tail.
        ds.append(&row(8, 10_000, &[0])).unwrap();
        ds.sync().unwrap();
        assert_eq!(ds.run_gc(i64::MAX).unwrap(), 0);
        let want = ds.store_stats();
        drop(ds);
        let ds = DurableStore::open(&dir, &o).unwrap();
        assert_eq!(ds.store_stats(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What a SIGKILL leaves behind: a copy of the data dir's files as
    /// they are on disk right now (the live dir holds the `LOCK`).
    fn killed_copy(dir: &Path, tag: &str) -> PathBuf {
        let copy = tmpdir(tag);
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        copy
    }

    fn wal_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join("wal")).unwrap().len()
    }

    #[test]
    fn write_path_a_window_sized_batch_never_touches_the_wal() {
        let dir = tmpdir("bypass");
        let mut o = opts(8);
        o.fsync = true;
        let mut ds = DurableStore::open(&dir, &o).unwrap();
        for i in 0..8u64 {
            ds.append(&row(i, i as i64 * 10, &[(i % 3) as u16]))
                .unwrap();
            assert_eq!(wal_len(&dir), crate::wal::HEADER_LEN, "row {i}");
        }
        ds.sync().unwrap();
        assert_eq!(wal_len(&dir), crate::wal::HEADER_LEN);
        assert_eq!(ds.durable_stats().wal_bytes, crate::wal::HEADER_LEN);
        assert_eq!(ds.durable_stats().segments_flushed, 1);
        assert_eq!(full_window_blocks(&dir, 8), ["seg-0000000000000000.mqds"]);
        let want = ds.store_stats();
        let killed = killed_copy(&dir, "bypass-killed");
        drop(ds);
        for d in [&dir, &killed] {
            let ds = DurableStore::open(d, &o).unwrap();
            assert_eq!(ds.store_stats(), want);
            assert_eq!(ds.durable_stats().recovered_rows, 8);
            drop(ds);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn write_path_a_batch_straddling_a_window_reopens_to_the_acked_prefix() {
        for fsync in [true, false] {
            let dir = tmpdir(&format!("straddle-{fsync}"));
            let mut o = opts(4);
            o.fsync = fsync;
            let mut ds = DurableStore::open(&dir, &o).unwrap();
            ingest(&mut ds, 0..3); // acked, in the WAL file
            ingest(&mut ds, 3..10); // seals [0,4) and [4,8) on the way, tail [8,10)
            assert_eq!(ds.durable_stats().segments_flushed, 2);
            assert_eq!(wal_len(&dir), ds.durable_stats().wal_bytes);
            let want = ds.store_stats();
            let killed = killed_copy(&dir, &format!("straddle-killed-{fsync}"));
            let ds2 = DurableStore::open(&killed, &o).unwrap();
            assert_eq!(ds2.store_stats(), want, "every acked row, fsync {fsync}");
            assert_eq!(ds2.durable_stats().wal_bytes, wal_len(&dir));
            let a = ds2.store().slice(&[0, 1, 2], i64::MIN, i64::MAX);
            let b = ds.store().slice(&[0, 1, 2], i64::MIN, i64::MAX);
            assert_eq!(a.instance.posts(), b.instance.posts());
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&killed).unwrap();
        }
    }

    #[test]
    fn write_path_a_kill_before_sync_leaves_exactly_the_last_synced_prefix() {
        let dir = tmpdir("unsynced");
        let mut ds = DurableStore::open(&dir, &opts(4)).unwrap();
        ingest(&mut ds, 0..6); // block [0,4) + acked tail [4,6)
        let acked = ds.store_stats();
        // A request dies between its appends and its sync: one that stays
        // inside the window, then one that crosses the boundary (the seal
        // makes [4,8) durable early, which is allowed; a gap is not).
        ds.append(&row(6, 60, &[0])).unwrap();
        let killed = killed_copy(&dir, "unsynced-killed-a");
        let re = DurableStore::open(&killed, &opts(4)).unwrap();
        assert_eq!(re.store_stats(), acked, "unsynced rows were never acked");
        std::fs::remove_dir_all(&killed).unwrap();

        ds.append(&row(7, 70, &[1])).unwrap();
        ds.append(&row(8, 80, &[2])).unwrap();
        let killed = killed_copy(&dir, "unsynced-killed-b");
        let re = DurableStore::open(&killed, &opts(4)).unwrap();
        assert_eq!(re.store_stats().rows, 8, "sealed window, no row past it");
        assert_eq!(re.durable_stats().wal_bytes, crate::wal::HEADER_LEN);
        std::fs::remove_dir_all(&killed).unwrap();

        ds.sync().unwrap();
        let killed = killed_copy(&dir, "unsynced-killed-c");
        let re = DurableStore::open(&killed, &opts(4)).unwrap();
        assert_eq!(re.store_stats(), ds.store_stats());
        std::fs::remove_dir_all(&killed).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_path_a_failed_log_write_stops_the_store_for_writes() {
        let dir = tmpdir("fail-stop");
        let mut o = opts(8);
        o.fsync = true;
        let mut ds = DurableStore::open(&dir, &o).unwrap();
        ingest(&mut ds, 0..3);
        let acked = ds.store_stats();
        ds.disk.as_mut().unwrap().wal.break_writes();
        ds.append(&row(3, 30, &[0])).unwrap(); // buffered: no I/O yet
        assert!(matches!(ds.sync(), Err(MqdError::Io(_))));
        let generation = ds.generation();
        for i in 4..7u64 {
            let refused = ds.append(&row(i, i as i64 * 10, &[0]));
            assert!(matches!(refused, Err(MqdError::Io(_))), "{refused:?}");
        }
        assert_eq!(ds.generation(), generation, "a refused row enters nothing");
        assert!(matches!(ds.sync(), Err(MqdError::Io(_))));
        drop(ds);
        let ds = DurableStore::open(&dir, &o).unwrap();
        assert_eq!(
            ds.store_stats(),
            acked,
            "reopen yields the last acked prefix"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
