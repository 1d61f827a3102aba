//! A segmented on-disk post store: the persistence layer under a real
//! deployment of the Figure 1 pipeline.
//!
//! A store is a directory of immutable segment files, each a checksummed
//! binary log (`seg-<first>-<last>-<seq>.mqdl`, named by its dimension-value
//! range and a monotone sequence number). Appends create new segments;
//! range scans touch only overlapping segments; corrupt or truncated
//! segments (e.g. a crash mid-write) are quarantined at open instead of
//! poisoning reads. Old segments can be dropped by range — the same
//! retention model as the in-memory [`mqd_text::RtIndex`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mqd_core::record::{decode_records, encode_records};

use crate::tsv::LabeledRow;

/// Metadata of one live segment.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// File path.
    pub path: PathBuf,
    /// Smallest dimension value in the segment.
    pub min_value: i64,
    /// Largest dimension value in the segment.
    pub max_value: i64,
    /// Number of rows.
    pub rows: usize,
    /// Monotone creation sequence number.
    pub seq: u64,
}

/// A directory-backed segmented store.
#[derive(Debug)]
pub struct PostStore {
    dir: PathBuf,
    segments: Vec<SegmentInfo>,
    /// Files that failed validation at open (kept on disk for forensics).
    quarantined: Vec<PathBuf>,
    next_seq: u64,
}

impl PostStore {
    /// Opens (or creates) a store directory, validating every segment.
    /// Unreadable/corrupt segments are quarantined, not deleted.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = Vec::new();
        let mut quarantined = Vec::new();
        let mut next_seq = 0u64;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("mqdl") {
                continue;
            }
            match Self::load_segment(&path) {
                Some(info) => {
                    next_seq = next_seq.max(info.seq + 1);
                    segments.push(info);
                }
                None => quarantined.push(path),
            }
        }
        segments.sort_by_key(|s| s.seq);
        Ok(PostStore {
            dir,
            segments,
            quarantined,
            next_seq,
        })
    }

    fn load_segment(path: &Path) -> Option<SegmentInfo> {
        let seq = Self::parse_seq(path)?;
        let data = fs::read(path).ok()?;
        let rows = decode_records(&data).ok()?;
        if rows.is_empty() {
            return None;
        }
        let min_value = rows.iter().map(|r| r.value).min()?;
        let max_value = rows.iter().map(|r| r.value).max()?;
        Some(SegmentInfo {
            path: path.to_path_buf(),
            min_value,
            max_value,
            rows: rows.len(),
            seq,
        })
    }

    fn parse_seq(path: &Path) -> Option<u64> {
        // seg-<min>-<max>-<seq>.mqdl ; min/max may be negative.
        let stem = path.file_stem()?.to_str()?;
        stem.strip_prefix("seg-")?.rsplit('-').next()?.parse().ok()
    }

    /// Appends a batch as one new immutable segment. Empty batches are a
    /// no-op. The write goes to a temp file first and is renamed into
    /// place, so readers never observe half a segment under POSIX rename
    /// semantics.
    pub fn append(&mut self, rows: &[LabeledRow]) -> io::Result<Option<SegmentInfo>> {
        if rows.is_empty() {
            return Ok(None);
        }
        // Non-empty is guaranteed by the early return above; fold instead
        // of unwrapping so a refactor can never turn this into a panic.
        let (min_value, max_value) = rows.iter().fold((i64::MAX, i64::MIN), |(lo, hi), r| {
            (lo.min(r.value), hi.max(r.value))
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = format!("seg-{min_value}-{max_value}-{seq}.mqdl");
        let tmp = self.dir.join(format!(".tmp-{seq}"));
        let final_path = self.dir.join(name);
        fs::write(&tmp, encode_records(rows))?;
        fs::rename(&tmp, &final_path)?;
        let info = SegmentInfo {
            path: final_path,
            min_value,
            max_value,
            rows: rows.len(),
            seq,
        };
        self.segments.push(info.clone());
        Ok(Some(info))
    }

    /// Live segments, in creation order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// Segments that failed validation at open.
    pub fn quarantined(&self) -> &[PathBuf] {
        &self.quarantined
    }

    /// Total rows across live segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows with `value` in `[from, to]`, reading only overlapping
    /// segments; results sorted by `(value, id)`.
    pub fn scan(&self, from: i64, to: i64) -> io::Result<Vec<LabeledRow>> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.max_value < from || seg.min_value > to {
                continue;
            }
            let data = fs::read(&seg.path)?;
            // Segments were validated at open, but the file may have been
            // corrupted since; surface the typed error through io::Error.
            let rows =
                decode_records(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            out.extend(rows.into_iter().filter(|r| (from..=to).contains(&r.value)));
        }
        out.sort_by_key(|r| (r.value, r.id));
        Ok(out)
    }

    /// Deletes every segment wholly older than `cutoff`; returns dropped
    /// row count (retention, like `RtIndex::evict_before`).
    pub fn drop_before(&mut self, cutoff: i64) -> io::Result<usize> {
        let mut dropped = 0;
        let mut kept = Vec::new();
        for seg in self.segments.drain(..) {
            if seg.max_value < cutoff {
                fs::remove_file(&seg.path)?;
                dropped += seg.rows;
            } else {
                kept.push(seg);
            }
        }
        self.segments = kept;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mqdiv_store_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rows(range: std::ops::Range<i64>) -> Vec<LabeledRow> {
        range
            .map(|v| LabeledRow {
                id: v as u64,
                value: v * 10,
                labels: vec![(v % 3) as u16],
            })
            .collect()
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = temp_store("round_trip");
        let mut store = PostStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.append(&rows(0..10)).unwrap();
        store.append(&rows(10..25)).unwrap();
        assert_eq!(store.len(), 25);
        assert_eq!(store.segments().len(), 2);

        let all = store.scan(i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), 25);
        let mid = store.scan(50, 120).unwrap();
        assert_eq!(mid.len(), 8); // values 50,60,...,120
        assert!(mid.windows(2).all(|w| w[0].value <= w[1].value));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_segments() {
        let dir = temp_store("reopen");
        {
            let mut store = PostStore::open(&dir).unwrap();
            store.append(&rows(0..5)).unwrap();
            store.append(&rows(5..9)).unwrap();
        }
        let store = PostStore::open(&dir).unwrap();
        assert_eq!(store.len(), 9);
        assert_eq!(store.segments().len(), 2);
        assert!(store.quarantined().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_numbers_continue_after_reopen() {
        let dir = temp_store("seq");
        {
            let mut store = PostStore::open(&dir).unwrap();
            store.append(&rows(0..3)).unwrap();
        }
        let mut store = PostStore::open(&dir).unwrap();
        let info = store.append(&rows(3..6)).unwrap().unwrap();
        assert_eq!(info.seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_is_quarantined_not_fatal() {
        let dir = temp_store("corrupt");
        {
            let mut store = PostStore::open(&dir).unwrap();
            store.append(&rows(0..5)).unwrap();
            store.append(&rows(5..9)).unwrap();
        }
        // Flip a byte in one segment.
        let victim = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut data = fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        fs::write(&victim, data).unwrap();

        let store = PostStore::open(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        assert_eq!(store.segments().len(), 1);
        assert!(store.scan(i64::MIN, i64::MAX).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_write_is_quarantined() {
        let dir = temp_store("truncated");
        {
            let mut store = PostStore::open(&dir).unwrap();
            store.append(&rows(0..20)).unwrap();
        }
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let data = fs::read(&seg).unwrap();
        fs::write(&seg, &data[..data.len() / 2]).unwrap(); // simulate crash
        let store = PostStore::open(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_drops_old_segments() {
        let dir = temp_store("retention");
        let mut store = PostStore::open(&dir).unwrap();
        store.append(&rows(0..10)).unwrap(); // values 0..90
        store.append(&rows(10..20)).unwrap(); // values 100..190
        let dropped = store.drop_before(95).unwrap();
        assert_eq!(dropped, 10);
        assert_eq!(store.segments().len(), 1);
        assert_eq!(store.scan(i64::MIN, i64::MAX).unwrap().len(), 10);
        // The file is really gone from disk.
        let reopened = PostStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_append_is_noop() {
        let dir = temp_store("empty");
        let mut store = PostStore::open(&dir).unwrap();
        assert!(store.append(&[]).unwrap().is_none());
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn negative_values_in_segment_names() {
        let dir = temp_store("negative");
        let mut store = PostStore::open(&dir).unwrap();
        let negative: Vec<LabeledRow> = (-5..0)
            .map(|v| LabeledRow {
                id: (v + 5) as u64,
                value: v,
                labels: vec![0],
            })
            .collect();
        store.append(&negative).unwrap();
        drop(store);
        let store = PostStore::open(&dir).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(store.scan(-5, -1).unwrap().len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
