//! The write-ahead log: one independently-checksummed frame per row.
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

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mqd_core::record::Record;
use mqd_core::wire::{fnv1a, put_varint, put_varint_i64, Cursor};
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

/// An open write-ahead log. Appends buffer in the OS; [`Wal::sync`] is
/// the durability point the server awaits before acking.
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: bool,
    /// Current file length (header + intact frames).
    bytes: u64,
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

        if data.len() < HEADER_LEN as usize {
            // Missing, empty, or shorter than the header: a fresh log, or
            // a kill between `write_header`'s two writes (or a power cut
            // before its sync). No frame — and therefore no acked row —
            // can precede a complete header, so a sub-header file is a
            // torn initial creation, not fatal corruption: rewrite the
            // header and serve an empty log.
            file.seek(SeekFrom::Start(0))?;
            fsio::truncate_file(&file, 0, fsync)?;
            let mut wal = Wal {
                file,
                path: path.to_path_buf(),
                fsync,
                bytes: 0,
            };
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
            wal: Wal {
                file,
                path: path.to_path_buf(),
                fsync,
                bytes: good_end as u64,
            },
            rows,
            truncated_bytes,
        })
    }

    fn write_header(&mut self) -> Result<(), MqdError> {
        self.file.write_all(&MAGIC)?;
        self.file.write_all(&[VERSION])?;
        if self.fsync {
            self.file.sync_all()?;
        }
        self.bytes = HEADER_LEN;
        Ok(())
    }

    /// Appends one frame (buffered — not durable until [`Wal::sync`]).
    pub fn append(&mut self, seq: u64, row: &Record) -> Result<(), MqdError> {
        let mut frame = Vec::with_capacity(28 + 2 * row.labels.len());
        put_frame(&mut frame, seq, row);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Atomically replaces the log's contents with exactly `rows`
    /// (contiguous seqs from `first_seq`): the new file is built aside and
    /// renamed over the old one through [`fsio::write_atomic`], so a crash
    /// mid-rewrite leaves either the old complete log or the new one —
    /// never a half-truncated file that loses acked rows. Used when the
    /// log must shrink to a *non-empty* suffix (recovery dedup, boundary
    /// seals that keep a pending tail); a shrink to empty can use the
    /// cheaper [`Wal::reset`] because no unsealed acked row remains.
    pub fn rewrite(&mut self, first_seq: u64, rows: &[Record]) -> Result<(), MqdError> {
        let mut buf = Vec::with_capacity(HEADER_LEN as usize + 32 * rows.len());
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        for (i, row) in rows.iter().enumerate() {
            put_frame(&mut buf, first_seq + i as u64, row);
        }
        fsio::write_atomic(&self.path, &buf, self.fsync)?;
        // The old handle points at the replaced inode; reopen the new file
        // positioned for appends.
        self.file = fsio::open_rw(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.bytes = buf.len() as u64;
        Ok(())
    }

    /// The durability point: flushes appended frames to stable storage.
    /// The server acks `+OK` only after this returns. No-op without fsync.
    pub fn sync(&mut self) -> Result<(), MqdError> {
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Empties the log back to a bare header, after its rows were sealed
    /// into a durable segment block. The block write (and its directory
    /// sync) must complete first: a crash between seal and reset leaves a
    /// stale WAL whose seqs the recovery path deduplicates.
    pub fn reset(&mut self) -> Result<(), MqdError> {
        fsio::truncate_file(&self.file, HEADER_LEN, self.fsync)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.bytes = HEADER_LEN;
        Ok(())
    }

    /// Current log size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Encodes one frame (length-prefixed checksummed body) onto `buf`.
fn put_frame(buf: &mut Vec<u8>, seq: u64, row: &Record) {
    let mut body = Vec::with_capacity(16 + 2 * row.labels.len());
    put_varint(&mut body, seq);
    put_varint(&mut body, row.id);
    put_varint_i64(&mut body, row.value);
    put_varint(&mut body, row.labels.len() as u64);
    for &l in &row.labels {
        put_varint(&mut body, l as u64);
    }
    put_varint(buf, body.len() as u64);
    buf.extend_from_slice(&body);
    buf.extend_from_slice(&fnv1a(&body).to_be_bytes());
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
mod tests {
    use super::*;

    fn row(id: u64, value: i64, labels: &[u16]) -> Record {
        Record {
            id,
            value,
            labels: labels.to_vec(),
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
}
