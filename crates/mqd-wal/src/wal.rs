//! The write-ahead log: one independently-checksummed frame per row,
//! written through once per request.
//!
//! ```text
//! file   := "WAL!" version:u8 frame*
//! frame  := len:varint body checksum:u64_be      (checksum = FNV-1a(body))
//! body   := seq:varint id:varint value:zigzag nlabels:varint label:varint*
//! ```
//!
//! Frames are self-delimiting and carry no cross-frame state (no delta
//! coding), so replay can stop cleanly at the first frame that is torn,
//! truncated, or fails its checksum: everything before it is intact by
//! checksum, everything at and after it was never acked with an fsync'd
//! ack and is dropped by truncating the file. `seq` is the global row
//! sequence number; it ties WAL frames to sealed segments so the
//! seal-then-reset crash window (both the block *and* the stale WAL
//! exist) deduplicates on recovery instead of double-applying.
//!
//! ## Write path
//!
//! [`Wal::append`] only encodes: the frame goes onto one reused buffer, no
//! syscall, no allocation beyond that buffer's growth. [`Wal::sync`] is
//! the one place frames reach the file (one `write`, then one `fdatasync`
//! when fsync is on and the file holds bytes no fsync has covered), so a
//! request of any size costs one write and one fsync at its ack. A kill
//! between `append` and `sync` loses the buffered frames, which is the
//! contract: nothing is acked before `sync` returns. Without fsync the
//! write still happens at `sync`, so an acked frame is in the page cache
//! and survives SIGKILL either way. [`Wal::reset`] and [`Wal::rewrite`]
//! define the log's contents from scratch, so they discard the buffer
//! unwritten; frames of a window that seals inside one request therefore
//! never reach the file at all.
//!
//! ## Fail-stop
//!
//! A row is in memory before its frame is in the file, so a flush, fsync,
//! truncate or rewrite that fails leaves the file behind the process in a
//! way no later write can repair (a torn frame, or a seq gap that replay
//! would read as the end of the log). The log then refuses every further
//! mutation with [`MqdError::Io`]; reopening recovers the last acked
//! prefix.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mqd_core::record::{Record, RowRef};
use mqd_core::wire::{fnv1a, put_varint, zigzag, Cursor};
use mqd_core::MqdError;

use crate::fsio;

/// File magic — aliased from the sanctioned wire module.
pub const MAGIC: [u8; 4] = *mqd_core::wire::WAL_MAGIC;
/// Format version.
pub const VERSION: u8 = 1;
/// Bytes before the first frame.
pub const HEADER_LEN: u64 = 5;

/// Largest plausible frame body. A length prefix beyond this is treated
/// as tail corruption (truncate point), not an allocation request.
const MAX_FRAME_BODY: u64 = 1 << 20;

/// An open write-ahead log. Appends collect in memory; [`Wal::sync`] is
/// the durability point the server awaits before acking.
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: bool,
    /// Frames appended since the last write-through, back to back.
    buf: Vec<u8>,
    /// Bytes the file holds (header + written frames).
    file_len: u64,
    /// The file holds written frames no fsync has covered yet.
    unsynced: bool,
    /// A write-through, fsync, truncate or rewrite failed (see the module
    /// docs): every later mutation is refused.
    failed: bool,
}

/// The outcome of opening a WAL: the handle plus the replayable rows.
pub struct WalRecovery {
    /// The opened log, positioned for appends.
    pub wal: Wal,
    /// Intact frames in order: `(seq, row)`.
    pub rows: Vec<(u64, Record)>,
    /// Bytes of torn/corrupt tail that were truncated away (0 on a clean
    /// open).
    pub truncated_bytes: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying every intact frame
    /// and truncating a torn tail. A missing, empty, or sub-header-length
    /// file becomes a fresh log (a short file is a torn initial header —
    /// nothing was ever acked through it); a full-length header with the
    /// wrong magic or version is a typed error (the file is not a WAL).
    pub fn open(path: &Path, fsync: bool) -> Result<WalRecovery, MqdError> {
        let mut file = fsio::open_rw(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let wal = |file, file_len| Wal {
            file,
            path: path.to_path_buf(),
            fsync,
            buf: Vec::new(),
            file_len,
            unsynced: false,
            failed: false,
        };

        if data.len() < HEADER_LEN as usize {
            // Missing, empty, or shorter than the header: a fresh log, or
            // a header torn by a power cut before its sync (data dirs
            // made by versions that wrote magic and version separately
            // can also hold one torn by a kill). No frame — and therefore
            // no acked row — can precede a complete header, so a
            // sub-header file is a torn initial creation, not fatal
            // corruption: rewrite the header and serve an empty log.
            file.seek(SeekFrom::Start(0))?;
            fsio::truncate_file(&file, 0, fsync)?;
            let mut wal = wal(file, 0);
            wal.write_header()?;
            return Ok(WalRecovery {
                wal,
                rows: Vec::new(),
                truncated_bytes: data.len() as u64,
            });
        }
        if !data.starts_with(&MAGIC) {
            return Err(MqdError::Corrupt {
                offset: 0,
                reason: "not a WAL file (bad magic)".into(),
            });
        }
        let version = data[4]; // lint:allow(panic-path): length checked against HEADER_LEN above
        if version != VERSION {
            return Err(MqdError::Corrupt {
                offset: 4,
                reason: format!("unsupported WAL version {version}"),
            });
        }

        let mut rows = Vec::new();
        let mut good_end = HEADER_LEN as usize;
        let mut expected_seq: Option<u64> = None;
        while good_end < data.len() {
            match decode_frame(&data, good_end, expected_seq) {
                Some((next, seq, row)) => {
                    expected_seq = Some(seq + 1);
                    rows.push((seq, row));
                    good_end = next;
                }
                // Torn/corrupt tail: keep the intact prefix, drop the rest.
                None => break,
            }
        }
        let truncated_bytes = (data.len() - good_end) as u64;
        if truncated_bytes > 0 {
            fsio::truncate_file(&file, good_end as u64, fsync)?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        Ok(WalRecovery {
            wal: wal(file, good_end as u64),
            rows,
            truncated_bytes,
        })
    }

    /// One write, so a kill cannot leave part of the header behind.
    fn write_header(&mut self) -> Result<(), MqdError> {
        let [a, b, c, d] = MAGIC;
        self.file.write_all(&[a, b, c, d, VERSION])?;
        if self.fsync {
            self.file.sync_all()?;
        }
        self.file_len = HEADER_LEN;
        Ok(())
    }

    /// Runs one mutation under the fail-stop rule: refused once the log
    /// has failed, and a failure here is the log's last mutation.
    fn mutate<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, MqdError>,
    ) -> Result<T, MqdError> {
        if self.failed {
            return Err(MqdError::Io(format!(
                "WAL {} failed an earlier write; restart to recover the acked prefix",
                self.path.display()
            )));
        }
        let out = op(self);
        self.failed = out.is_err();
        out
    }

    /// Appends one frame to the buffer — not in the file, let alone
    /// durable, until [`Wal::sync`].
    pub fn append<'a>(&mut self, seq: u64, row: impl Into<RowRef<'a>>) -> Result<(), MqdError> {
        self.mutate(|wal| {
            put_frame(&mut wal.buf, seq, row.into());
            Ok(())
        })
    }

    /// Writes the buffered frames through to the file.
    fn flush(&mut self) -> Result<(), MqdError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.file_len += self.buf.len() as u64;
            self.buf.clear();
            self.unsynced = true;
        }
        Ok(())
    }

    /// Atomically replaces the log's contents with exactly `rows`
    /// (contiguous seqs from `first_seq`), discarding buffered frames: the
    /// new file is built aside and renamed over the old one through
    /// [`fsio::write_atomic`], so a crash mid-rewrite leaves either the
    /// old complete log or the new one — never a half-truncated file that
    /// loses acked rows. Used when the log must shrink to a *non-empty*
    /// suffix (recovery finds frames a block already covers, or complete
    /// windows, ahead of an unfinished tail); a shrink to empty can use the
    /// cheaper [`Wal::reset`] because no unsealed acked row remains. The
    /// rows are borrowed ([`RowRef`]s, e.g. a store segment's view) or owned.
    pub fn rewrite<'a, I>(&mut self, first_seq: u64, rows: I) -> Result<(), MqdError>
    where
        I: IntoIterator<Item: Into<RowRef<'a>>, IntoIter: ExactSizeIterator>,
    {
        let rows = rows.into_iter();
        self.mutate(|wal| {
            let mut image = Vec::with_capacity(HEADER_LEN as usize + 32 * rows.len());
            image.extend_from_slice(&MAGIC);
            image.push(VERSION);
            for (i, row) in rows.enumerate() {
                put_frame(&mut image, first_seq + i as u64, row.into());
            }
            fsio::write_atomic(&wal.path, &image, wal.fsync)?;
            // The old handle points at the replaced inode; reopen the new
            // file positioned for appends.
            wal.file = fsio::open_rw(&wal.path)?;
            wal.file.seek(SeekFrom::End(0))?;
            wal.buf.clear();
            wal.file_len = image.len() as u64;
            wal.unsynced = false;
            Ok(())
        })
    }

    /// The durability point: writes the buffered frames through, then
    /// fsyncs if the file holds bytes no fsync has covered. The server
    /// acks `+OK` only after this returns. Without fsync the write alone
    /// is the ack point (it survives a kill, not a power cut).
    pub fn sync(&mut self) -> Result<(), MqdError> {
        self.mutate(|wal| {
            wal.flush()?;
            if wal.fsync && wal.unsynced {
                wal.file.sync_data()?;
                wal.unsynced = false;
            }
            Ok(())
        })
    }

    /// Empties the log back to a bare header, after its rows were sealed
    /// into a durable segment block: buffered frames are discarded, and
    /// the file is truncated (and synced) unless it is header-only
    /// already. The block write (and its directory sync) must complete
    /// first: a crash between seal and reset leaves a stale WAL whose
    /// seqs the recovery path deduplicates.
    pub fn reset(&mut self) -> Result<(), MqdError> {
        self.mutate(|wal| {
            wal.buf.clear();
            if wal.file_len > HEADER_LEN {
                fsio::truncate_file(&wal.file, HEADER_LEN, wal.fsync)?;
                wal.file.seek(SeekFrom::Start(HEADER_LEN))?;
                wal.file_len = HEADER_LEN;
                wal.unsynced = false;
            }
            Ok(())
        })
    }

    /// Logical log size in bytes (header and buffered frames included):
    /// what the file holds once [`Wal::sync`] returns.
    pub fn bytes(&self) -> u64 {
        self.file_len + self.buf.len() as u64
    }
}

impl Drop for Wal {
    /// Best-effort write-through of frames appended but never synced.
    /// Nothing acked depends on it (an ack follows [`Wal::sync`]); it
    /// keeps a store that is dropped without a final `sync` replayable in
    /// full.
    fn drop(&mut self) {
        if !self.failed {
            let _ = self.flush();
        }
    }
}

/// Encoded length of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Encodes one frame (length-prefixed checksummed body) onto `buf`. The
/// body's length is computed ahead of the body, so the prefix, the body
/// and the checksum all go straight onto `buf`.
fn put_frame(buf: &mut Vec<u8>, seq: u64, row: RowRef<'_>) {
    let labels = row.labels.iter().map(|&l| varint_len(l as u64));
    let body_len = varint_len(seq)
        + varint_len(row.id)
        + varint_len(zigzag(row.value))
        + varint_len(row.labels.len() as u64)
        + labels.sum::<usize>();
    buf.reserve(varint_len(body_len as u64) + body_len + 8);
    put_varint(buf, body_len as u64);
    let body_at = buf.len();
    put_varint(buf, seq);
    put_varint(buf, row.id);
    put_varint(buf, zigzag(row.value));
    put_varint(buf, row.labels.len() as u64);
    for &l in row.labels {
        put_varint(buf, l as u64);
    }
    let body = buf.get(body_at..).unwrap_or_default();
    debug_assert_eq!(body.len(), body_len, "varint_len disagrees with put_varint");
    let checksum = fnv1a(body);
    buf.extend_from_slice(&checksum.to_be_bytes());
}

/// Decodes the frame at `at`. Returns `(end_offset, seq, row)` for an
/// intact frame whose seq continues `expected`, `None` for anything torn,
/// corrupt, or out of sequence — the caller truncates there.
fn decode_frame(data: &[u8], at: usize, expected: Option<u64>) -> Option<(usize, u64, Record)> {
    let mut c = Cursor::new(data.get(at..)?);
    let body_len = c.get_varint().ok()?;
    if body_len > MAX_FRAME_BODY {
        return None;
    }
    let body_start = at + c.position();
    let body_end = body_start.checked_add(body_len as usize)?;
    let frame_end = body_end.checked_add(8)?;
    if frame_end > data.len() {
        return None;
    }
    let body = data.get(body_start..body_end)?;
    let stored = u64::from_be_bytes(data.get(body_end..frame_end)?.try_into().ok()?);
    if fnv1a(body) != stored {
        return None;
    }
    let mut b = Cursor::new(body);
    let seq = b.get_varint().ok()?;
    if let Some(want) = expected {
        if seq != want {
            return None;
        }
    }
    let id = b.get_varint().ok()?;
    let value = b.get_varint_i64().ok()?;
    // Each label is at least one body byte, so a count past the cursor's
    // remaining bytes is torn/corrupt — and preallocating for it would let
    // a hostile frame request the allocation before validation runs.
    let nlabels = b.get_varint().ok()?;
    let mut labels = Vec::with_capacity(b.plausible_len(nlabels, 1, "label").ok()?);
    for _ in 0..nlabels {
        let l = b.get_varint().ok()?;
        labels.push(u16::try_from(l).ok()?);
    }
    if b.has_remaining() {
        return None;
    }
    Some((frame_end, seq, Record { id, value, labels }))
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test scaffolding needs no power-cut pairing"
)]
mod tests {
    use super::*;

    fn row(id: u64, value: i64, labels: &[u16]) -> Record {
        Record {
            id,
            value,
            labels: labels.to_vec(),
        }
    }

    impl Wal {
        /// Swaps the handle for a read-only one, so the next write-through
        /// fails the way a dead disk would.
        pub(crate) fn break_writes(&mut self) {
            self.file = File::open(&self.path).unwrap();
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mqd-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal");
        let mut rec = Wal::open(&path, true).unwrap();
        assert!(rec.rows.is_empty());
        for i in 0..10u64 {
            rec.wal
                .append(i, &row(i + 1, i as i64 * 7, &[0, (i % 3) as u16]))
                .unwrap();
        }
        rec.wal.sync().unwrap();
        let bytes = rec.wal.bytes();
        drop(rec);

        let rec2 = Wal::open(&path, true).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.wal.bytes(), bytes);
        assert_eq!(rec2.rows.len(), 10);
        assert_eq!(rec2.rows[3].0, 3);
        assert_eq!(rec2.rows[3].1, row(4, 21, &[0, 0]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        let mut rec = Wal::open(&path, false).unwrap();
        for i in 0..5u64 {
            rec.wal.append(i, &row(i, i as i64, &[1])).unwrap();
        }
        rec.wal.sync().unwrap();
        drop(rec);
        // Chop mid-frame: the last frame is torn.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();

        let rec = Wal::open(&path, false).unwrap();
        assert_eq!(rec.rows.len(), 4, "intact prefix survives");
        assert!(rec.truncated_bytes > 0);
        drop(rec);
        // After truncation the file reopens clean.
        let rec = Wal::open(&path, false).unwrap();
        assert_eq!(rec.rows.len(), 4);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_bitflip_truncates_from_the_flip() {
        let dir = tmpdir("flip");
        let path = dir.join("wal");
        let mut rec = Wal::open(&path, false).unwrap();
        for i in 0..8u64 {
            rec.wal.append(i, &row(i, i as i64, &[2])).unwrap();
        }
        rec.wal.sync().unwrap();
        drop(rec);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();

        let rec = Wal::open(&path, false).unwrap();
        // Some prefix survives; nothing fabricated, order intact.
        assert!(rec.rows.len() < 8);
        for (i, (seq, r)) in rec.rows.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(r.id, i as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_header_reopens_as_a_fresh_log() {
        let dir = tmpdir("torn-hdr");
        let path = dir.join("wal");
        // Every sub-header prefix — including garbage a torn write could
        // leave — recovers to an empty log instead of refusing to boot.
        for keep in 0..HEADER_LEN as usize {
            std::fs::write(&path, &b"WAL!\x01"[..keep]).unwrap();
            let rec = Wal::open(&path, false).unwrap();
            assert!(rec.rows.is_empty(), "torn to {keep} bytes");
            assert_eq!(rec.truncated_bytes, keep as u64);
            assert_eq!(rec.wal.bytes(), HEADER_LEN);
            drop(rec);
            let rec = Wal::open(&path, false).unwrap();
            assert_eq!(rec.truncated_bytes, 0, "rewritten header must be clean");
        }
        std::fs::write(&path, b"XY").unwrap();
        assert!(Wal::open(&path, false).is_ok(), "short garbage is torn too");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let dir = tmpdir("rewrite");
        let path = dir.join("wal");
        let mut rec = Wal::open(&path, false).unwrap();
        for i in 0..6u64 {
            rec.wal.append(i, &row(i, i as i64, &[0])).unwrap();
        }
        // Shrink to the suffix [4, 6), as a boundary seal would.
        let tail: Vec<Record> = (4..6u64).map(|i| row(i, i as i64, &[0])).collect();
        rec.wal.rewrite(4, &tail).unwrap();
        // Appends continue seamlessly on the new file.
        rec.wal.append(6, &row(6, 6, &[0])).unwrap();
        rec.wal.sync().unwrap();
        drop(rec);
        let rec = Wal::open(&path, false).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        let seqs: Vec<u64> = rec.rows.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        let dir = tmpdir("hdr");
        let path = dir.join("wal");
        std::fs::write(&path, b"NOPE\x01junkjunkjunk").unwrap();
        let err = match Wal::open(&path, false) {
            Ok(_) => panic!("bad header accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, MqdError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmpdir("reset");
        let path = dir.join("wal");
        let mut rec = Wal::open(&path, false).unwrap();
        for i in 0..4u64 {
            rec.wal.append(i, &row(i, 0, &[0])).unwrap();
        }
        rec.wal.reset().unwrap();
        assert_eq!(rec.wal.bytes(), HEADER_LEN);
        // Appends continue with later seqs after a reset.
        rec.wal.append(4, &row(4, 1, &[0])).unwrap();
        rec.wal.sync().unwrap();
        drop(rec);
        let rec = Wal::open(&path, false).unwrap();
        assert_eq!(rec.rows.len(), 1);
        assert_eq!(rec.rows[0].0, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The frame encoder this one replaced: body in one `Vec`, frame in
    /// another. Logs written by either must read back under the other.
    fn reference_frame(seq: u64, row: &Record) -> Vec<u8> {
        let mut body = Vec::new();
        put_varint(&mut body, seq);
        put_varint(&mut body, row.id);
        mqd_core::wire::put_varint_i64(&mut body, row.value);
        put_varint(&mut body, row.labels.len() as u64);
        for &l in &row.labels {
            put_varint(&mut body, l as u64);
        }
        let mut frame = Vec::new();
        put_varint(&mut frame, body.len() as u64);
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&fnv1a(&body).to_be_bytes());
        frame
    }

    #[test]
    fn write_path_frames_are_the_bytes_the_two_buffer_encoder_wrote() {
        let many: Vec<u16> = (0..400).map(|i| i * 163).collect(); // body > 127 bytes, 1-3 byte labels
        let cases = [
            (0, row(0, 0, &[0])),
            (127, row(128, -1, &[127, 128])),
            (u64::MAX, row(u64::MAX, i64::MIN, &[u16::MAX])),
            (1 << 35, row(1 << 56, i64::MAX, &many)),
            (16_383, row(16_384, 1 << 20, &many[..60])),
        ];
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for (seq, r) in &cases {
            put_frame(&mut buf, *seq, r.as_row());
            want.extend_from_slice(&reference_frame(*seq, r));
            assert_eq!(buf, want, "seq {seq}");
        }
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            assert_eq!(varint_len(v), enc.len(), "varint_len({v})");
        }
    }

    #[test]
    fn write_path_appends_reach_the_file_only_at_sync() {
        for fsync in [true, false] {
            let dir = tmpdir(&format!("at-sync-{fsync}"));
            let path = dir.join("wal");
            let mut wal = Wal::open(&path, fsync).unwrap().wal;
            let on_disk = || std::fs::metadata(&path).unwrap().len();
            for batch in 0..3u64 {
                let before = (on_disk(), wal.bytes());
                assert_eq!(before.0, before.1, "synced log: file == bytes()");
                for i in 0..5u64 {
                    wal.append(batch * 5 + i, &row(i, batch as i64, &[1, 2]))
                        .unwrap();
                    assert_eq!(on_disk(), before.0, "append must not write");
                }
                assert!(wal.bytes() > before.1, "bytes() is the logical length");
                wal.sync().unwrap();
                assert_eq!(on_disk(), wal.bytes());
            }
            // What a kill leaves is the file: buffered frames are not in it.
            wal.append(15, &row(15, 9, &[0])).unwrap();
            let snapshot = dir.join("snapshot");
            std::fs::copy(&path, &snapshot).unwrap();
            let seqs = |p: &Path| -> Vec<u64> {
                let rec = Wal::open(p, false).unwrap();
                assert_eq!(rec.truncated_bytes, 0, "no torn frame, no gap");
                rec.rows.iter().map(|(s, _)| *s).collect()
            };
            assert_eq!(seqs(&snapshot), (0..15).collect::<Vec<_>>());
            // A drop without sync writes the remainder, best effort.
            drop(wal);
            assert_eq!(seqs(&path), (0..16).collect::<Vec<_>>());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn write_path_reset_and_rewrite_discard_unwritten_frames() {
        let dir = tmpdir("discard");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, true).unwrap().wal;
        // Header-only file: a reset has nothing to truncate and the
        // buffered frames never reach the file.
        for i in 0..4u64 {
            wal.append(i, &row(i, 0, &[0])).unwrap();
        }
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), HEADER_LEN);
        wal.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        // Written frames are truncated away, later ones follow the header.
        wal.append(4, &row(4, 1, &[0])).unwrap();
        wal.sync().unwrap();
        wal.append(5, &row(5, 1, &[0])).unwrap();
        wal.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        wal.append(6, &row(6, 2, &[0])).unwrap();
        // A rewrite's rows are the whole log: frame 6 is dropped with the
        // buffer, not written behind frame 8.
        wal.rewrite(8, &[row(8, 3, &[0])]).unwrap();
        wal.append(9, &row(9, 3, &[0])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let rec = Wal::open(&path, true).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        let seqs: Vec<u64> = rec.rows.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![8, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_path_a_failed_write_is_the_logs_last() {
        let dir = tmpdir("fail-stop");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, true).unwrap().wal;
        for i in 0..3u64 {
            wal.append(i, &row(i, 0, &[0])).unwrap();
        }
        wal.sync().unwrap();
        wal.break_writes();
        wal.append(3, &row(3, 1, &[0])).unwrap(); // buffered: no I/O yet
        assert!(matches!(wal.sync(), Err(MqdError::Io(_))));
        // Fail-stop: nothing may be logged behind the hole.
        assert!(matches!(
            wal.append(4, &row(4, 1, &[0])),
            Err(MqdError::Io(_))
        ));
        assert!(matches!(wal.sync(), Err(MqdError::Io(_))));
        assert!(matches!(wal.reset(), Err(MqdError::Io(_))));
        drop(wal);
        let rec = Wal::open(&path, true).unwrap();
        assert_eq!(rec.rows.len(), 3, "the acked prefix, nothing else");
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
