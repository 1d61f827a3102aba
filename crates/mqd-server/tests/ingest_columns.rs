//! `INGESTB` bodies decoded once into columns ([`Rows`]) and appended from
//! there, as `ingest_rows` does:
//!
//! * a batch over [`MAX_BATCH_ROWS`] is refused from its header, before
//!   anything is reserved for its rows (the decoder used to reserve a
//!   `Record` slot per announced row first);
//! * decoding and appending a benchmark-shaped 4096-row body allocates
//!   less than once per ten rows (a `Record` per row allocated at least
//!   once per row);
//! * seeded bodies through `decode_batch` + one append per [`RowRef`]
//!   leave the same store, data dir, result and error as the previous
//!   path: its `Record` decoder (restated below as the reference) and one
//!   append per `Record`.
//!
//! The allocator counts per thread, so the tests can share the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use mqd_core::record::{decode_records, encode_records, Record, Rows};
use mqd_core::wire::{check_framed, put_varint, seal_framed, unzigzag, Cursor, FRAME_FOOTER};
use mqd_core::MqdError;
use mqd_server::protocol::{decode_batch, MAX_BATCH_ROWS};
use mqd_wal::{DurableOptions, DurableStore};

/// The system allocator, counting this thread's allocations and its live
/// and peak requested bytes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_alloc();
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        grow(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count_alloc();
            grow(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result with the most live bytes this thread
/// held above the starting level meanwhile.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

#[test]
fn an_over_limit_batch_is_refused_before_anything_is_reserved() {
    // A checksum-valid body of MAX_BATCH_ROWS + 1 three-byte rows (zero
    // deltas, no labels): well formed, and one row too many.
    let rows = MAX_BATCH_ROWS + 1;
    let mut body = encode_records(&[])[..5].to_vec(); // magic + version
    put_varint(&mut body, rows as u64);
    body.resize(body.len() + 3 * rows, 0);
    seal_framed(&mut body, FRAME_FOOTER);
    let (refused, grown) = peak_growth(|| decode_batch(&body));
    assert_eq!(
        refused.unwrap_err(),
        MqdError::protocol(format!(
            "batch of {rows} rows exceeds limit {MAX_BATCH_ROWS}"
        ))
    );
    assert!(
        grown < 1 << 20,
        "refusing a {}-byte body held {grown} more heap bytes",
        body.len()
    );
}

/// `n` rows shaped like the benchmark corpus: consecutive ids, value gaps
/// of 0-100 ms, 1-3 distinct labels of 12, ascending.
fn corpus_rows(rng: &mut Lcg, n: usize) -> Vec<Record> {
    let mut value = 1_370_000_000_000i64;
    (0..n as u64)
        .map(|id| {
            value += rng.below(101) as i64;
            let k = 1 + rng.below(3) as usize;
            let mut labels: Vec<u16> = Vec::with_capacity(k);
            while labels.len() < k {
                let l = rng.below(12) as u16;
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
            labels.sort_unstable();
            Record {
                id: id + 1,
                value,
                labels,
            }
        })
        .collect()
}

#[test]
fn decoding_and_appending_a_batch_allocates_under_once_per_ten_rows() {
    const ROWS: usize = 4096;
    let mut rng = Lcg(0xb0d1);
    let body = encode_records(&corpus_rows(&mut rng, ROWS));
    let mut ds = DurableStore::memory();
    let before = allocs();
    let rows = decode_batch(&body).unwrap();
    for row in rows.iter() {
        ds.append(row).unwrap();
    }
    drop(rows);
    let per_row = (allocs() - before) as f64 / ROWS as f64;
    assert_eq!(ds.store_stats().rows, ROWS as u64);
    assert!(
        per_row < 0.1,
        "{per_row:.3} allocations per row to decode and append {ROWS} rows"
    );
}

/// The `Record` decoder every `INGESTB` body went through before `Rows`
/// (`decode_records` + `get_rows` of commit fc9b047), restated as the
/// reference.
fn reference_decode(data: &[u8]) -> Result<Vec<Record>, MqdError> {
    let header = encode_records(&[]);
    let body = check_framed(data, FRAME_FOOTER, 5)?;
    let mut buf = Cursor::new(body);
    let magic: [u8; 4] = buf.get_array()?;
    if magic[..] != header[..4] {
        return Err(MqdError::Corrupt {
            offset: 0,
            reason: "bad magic (not an mqdiv binary log)".into(),
        });
    }
    let version = buf.get_u8()?;
    if version != header[4] {
        return Err(MqdError::Corrupt {
            offset: 4,
            reason: format!("unsupported version {version}"),
        });
    }
    let count = buf.get_varint()?;
    let count = buf.plausible_len(count, 3, "record")?;
    let mut rows = Vec::with_capacity(count);
    let (mut prev_id, mut prev_value) = (0u64, 0i64);
    for _ in 0..count {
        let id = prev_id.wrapping_add(unzigzag(buf.get_varint()?) as u64);
        let value = prev_value.wrapping_add(buf.get_varint_i64()?);
        let n_labels = buf.get_varint()?;
        if n_labels > u16::MAX as u64 {
            return Err(buf.corrupt("label count out of range"));
        }
        let n_labels = buf.plausible_len(n_labels, 1, "label")?;
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            let l = buf.get_varint()?;
            if l > u16::MAX as u64 {
                return Err(buf.corrupt("label id out of range"));
            }
            labels.push(l as u16);
        }
        rows.push(Record { id, value, labels });
        (prev_id, prev_value) = (id, value);
    }
    if buf.has_remaining() {
        return Err(buf.corrupt("trailing bytes after last record"));
    }
    Ok(rows)
}

/// One seeded batch continuing the stream at `value`: ties and jumps,
/// `i64::MIN` to `i64::MAX`, ids anywhere in `u64`, labels unsorted and
/// repeated (`0` and `u16::MAX` often), and now and then a row with no
/// label or a value that goes back, somewhere mid-batch.
fn batch(rng: &mut Lcg, value: &mut i64) -> Vec<Record> {
    let n = 1 + rng.below(150) as usize;
    let empty_at = (rng.below(4) == 0).then(|| rng.below(n as u64) as usize);
    let back_at = (rng.below(4) == 0).then(|| rng.below(n as u64) as usize);
    (0..n)
        .map(|i| {
            *value = match rng.below(10) {
                0..=2 => *value,
                3 => (*value).max(*value / 2 + i64::MAX / 2),
                4 if i + 1 == n => i64::MAX,
                _ => value.saturating_add(rng.below(1_000) as i64),
            };
            let mut row_value = *value;
            if back_at == Some(i) {
                row_value = value.saturating_sub(1 + rng.below(50) as i64);
            }
            let id = match rng.below(6) {
                0 => u64::MAX,
                1 => 0,
                _ => rng.below(1 << 40),
            };
            let k = if empty_at == Some(i) {
                0
            } else {
                1 + rng.below(4)
            };
            let labels = (0..k)
                .map(|_| match rng.below(6) {
                    0 => u16::MAX,
                    1 => 0,
                    2 => 7,
                    _ => rng.below(300) as u16,
                })
                .collect();
            Record {
                id,
                value: row_value,
                labels,
            }
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqd-ingest-columns-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a data dir but its lock, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name() != "LOCK")
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Every row the store holds, segment by segment.
fn stored(ds: &DurableStore) -> Vec<Vec<(u64, i64, Vec<u16>)>> {
    let store = ds.store();
    (0..)
        .map_while(|k| store.segment_rows(k))
        .map(|rows| {
            rows.iter()
                .map(|r| (r.id, r.value, r.labels.to_vec()))
                .collect()
        })
        .collect()
}

/// The new path: decode the whole body into columns, then append each
/// row from them; the ack barrier either way.
fn ingest_columns(ds: &mut DurableStore, body: &[u8]) -> Result<usize, MqdError> {
    let rows: Rows = decode_batch(body)?;
    let mut appended = 0;
    let result = rows.iter().try_for_each(|row| {
        ds.append(row)?;
        appended += 1;
        Ok(())
    });
    ds.sync()?;
    result.map(|()| appended)
}

/// The previous path: a `Record` per row, appended one by one.
fn ingest_records(ds: &mut DurableStore, body: &[u8]) -> Result<usize, MqdError> {
    let rows = reference_decode(body)?;
    let mut appended = 0;
    let result = rows.iter().try_for_each(|row| {
        ds.append(row)?;
        appended += 1;
        Ok(())
    });
    ds.sync()?;
    result.map(|()| appended)
}

fn opts(window: usize) -> DurableOptions {
    DurableOptions {
        fsync: false,
        segment_rows: window,
        retain: None,
    }
}

#[test]
fn columns_ingest_as_records_did_into_the_same_store_and_data_dir() {
    let mut rng = Lcg(0x1c01);
    let (mut refused, mut corrupt, mut accepted) = (0, 0, 0);
    for case in 0..40u64 {
        let window = [1, 7, 64][case as usize % 3];
        let (dir_a, dir_b) = (tmpdir(&format!("a{case}")), tmpdir(&format!("b{case}")));
        let mut a = DurableStore::open(&dir_a, &opts(window)).unwrap();
        let mut b = DurableStore::open(&dir_b, &opts(window)).unwrap();
        let mut value = [i64::MIN, -7, 0, 1 << 40][rng.below(4) as usize];
        // Every row the reference path accepted, normalized, and its labels.
        let mut accepted_rows: Vec<(u64, i64, Vec<u16>)> = Vec::new();
        let mut labels = BTreeSet::new();
        for k in 0..1 + rng.below(4) {
            let what = format!("case {case}, batch {k}, window {window}");
            let records = batch(&mut rng, &mut value);
            let mut body = encode_records(&records);
            if rng.below(3) == 0 {
                // A flipped byte under a valid checksum: the decoders must
                // agree on the rows or on the error.
                body.truncate(body.len() - 12);
                let at = 5 + rng.below(body.len() as u64 - 5) as usize;
                body[at] ^= 1 << rng.below(8);
                seal_framed(&mut body, FRAME_FOOTER);
            }
            let want = reference_decode(&body);
            assert_eq!(decode_records(&body), want, "{what}");
            let before = b.generation();
            let got = ingest_columns(&mut a, &body);
            let expected = ingest_records(&mut b, &body);
            assert_eq!(got, expected, "{what}");
            match (&want, &expected) {
                (Err(_), _) => corrupt += 1,
                (Ok(_), Err(_)) => refused += 1,
                (Ok(_), Ok(_)) => accepted += 1,
            }
            let kept = (b.generation() - before) as usize;
            for r in want.iter().flatten().take(kept) {
                let mut l = r.labels.clone();
                l.sort_unstable();
                l.dedup();
                labels.extend(l.iter().copied());
                accepted_rows.push((r.id, r.value, l));
            }
            assert_eq!(a.store_stats(), b.store_stats(), "{what}");
            assert_eq!(a.generation(), b.generation(), "{what}");
            assert_eq!(stored(&a), stored(&b), "{what}");
            assert_eq!(stored(&a).concat(), accepted_rows, "{what}");
            let want_labels: Vec<u16> = labels.iter().copied().collect();
            assert_eq!(a.store().labels(), want_labels, "{what}");
            assert_eq!(b.store().labels(), want_labels, "{what}");
            assert_eq!(a.store_stats().labels, want_labels.len(), "{what}");
            assert_eq!(files(&dir_a), files(&dir_b), "{what}");
        }
        // Recovery from the blocks' columns: the same store again.
        let (stats, rows) = (a.store_stats(), stored(&a));
        drop((a, b));
        for dir in [&dir_a, &dir_b] {
            let reopened = DurableStore::open(dir, &opts(window)).unwrap();
            assert_eq!(reopened.store_stats(), stats, "case {case}");
            assert_eq!(stored(&reopened), rows, "case {case}");
            drop(reopened);
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
    assert!(
        refused > 5 && corrupt > 5 && accepted > 20,
        "{refused} refused, {corrupt} corrupt, {accepted} accepted batches"
    );
}
