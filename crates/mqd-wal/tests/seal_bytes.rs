//! Byte identity of what the durable layer writes from the store's
//! columnar rows. A sealed block ([`encode_segment`]) and a rewritten log
//! ([`Wal::rewrite`]) are encoded from [`Store::segment_rows`], rows the
//! store rebuilds from its postings; both must be the bytes the `&[Record]`
//! encoders of the previous layout wrote for the same rows, kept below as
//! the reference.
//! And a data dir that layout wrote (`tests/golden/`) must open to the
//! stats and slices it recorded.

#![allow(
    clippy::disallowed_methods,
    reason = "test scaffolding needs no power-cut pairing"
)]

use std::path::{Path, PathBuf};

use mqd_core::record::{format_tsv, Record};
use mqd_core::wire::{fnv1a, put_varint, seal_framed, zigzag, FRAME_FOOTER};
use mqd_store::Store;
use mqd_wal::{encode_segment, DurableOptions, DurableStore, Wal};

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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqd-seal-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The previous layout's row section encoder (`put_rows(&[Record])`).
fn reference_rows(buf: &mut Vec<u8>, rows: &[Record]) {
    put_varint(buf, rows.len() as u64);
    let mut prev_id = 0u64;
    let mut prev_value = 0i64;
    for r in rows {
        put_varint(buf, zigzag(r.id.wrapping_sub(prev_id) as i64));
        put_varint(buf, zigzag(r.value.wrapping_sub(prev_value)));
        put_varint(buf, r.labels.len() as u64);
        for &l in &r.labels {
            put_varint(buf, l as u64);
        }
        prev_id = r.id;
        prev_value = r.value;
    }
}

/// The previous layout's sealed block (format v2).
fn reference_block(first_seq: u64, rows: &[Record]) -> Vec<u8> {
    let mut buf = mqd_wal::segment::MAGIC.to_vec();
    put_varint(&mut buf, 2);
    put_varint(&mut buf, first_seq);
    reference_rows(&mut buf, rows);
    seal_framed(&mut buf, FRAME_FOOTER);
    buf
}

/// The previous layout's log image: header, then one frame per row.
fn reference_log(first_seq: u64, rows: &[Record]) -> Vec<u8> {
    let mut image = mqd_wal::wal::MAGIC.to_vec();
    image.push(mqd_wal::wal::VERSION);
    for (i, r) in rows.iter().enumerate() {
        let mut body = Vec::new();
        put_varint(&mut body, first_seq + i as u64);
        put_varint(&mut body, r.id);
        put_varint(&mut body, zigzag(r.value));
        put_varint(&mut body, r.labels.len() as u64);
        for &l in &r.labels {
            put_varint(&mut body, l as u64);
        }
        put_varint(&mut image, body.len() as u64);
        image.extend_from_slice(&body);
        image.extend_from_slice(&fnv1a(&body).to_be_bytes());
    }
    image
}

/// `n` rows the store accepts: values non-decreasing from `i64::MIN` or
/// near it, with ties and jumps, often ending at `i64::MAX`; ids anywhere
/// in `u64`; one to four labels, unsorted and repeated, `0` and
/// `u16::MAX` often, now and then a long list.
fn rows(rng: &mut Lcg, n: usize) -> Vec<Record> {
    let mut value = [i64::MIN, -7, 0, 1 << 40][rng.below(4) as usize];
    (0..n)
        .map(|i| {
            value = match rng.below(8) {
                0 | 1 => value,
                2 => value.max(value / 2 + i64::MAX / 2), // halfway to the top
                _ if i + 2 >= n && rng.below(2) == 0 => i64::MAX,
                _ => value.saturating_add(rng.below(1_000) as i64),
            };
            let id = match rng.below(6) {
                0 => u64::MAX,
                1 => 0,
                _ => rng.below(1 << 40),
            };
            let k = if rng.below(20) == 0 {
                200
            } else {
                1 + rng.below(4)
            };
            let labels = (0..k)
                .map(|_| match rng.below(6) {
                    0 => u16::MAX,
                    1 => 0,
                    _ => rng.below(500) as u16,
                })
                .collect();
            Record { id, value, labels }
        })
        .collect()
}

/// `r` with its labels as the store keeps them.
fn normalized(r: &Record) -> Record {
    let mut labels = r.labels.clone();
    labels.sort_unstable();
    labels.dedup();
    Record {
        labels,
        ..r.clone()
    }
}

#[test]
fn seals_and_log_rewrites_from_the_store_view_are_the_record_encoders_bytes() {
    let dir = tmpdir("windows");
    let path = dir.join("wal");
    let mut wal = Wal::open(&path, false).unwrap().wal;
    let mut rng = Lcg(0x5ea1);
    let (mut windows, mut single, mut full) = (0, 0, 0);
    for case in 0..200u64 {
        // Window sizes from one row to the serving target.
        let target = [1, 2, 7, 64, 4096][case as usize % 5];
        let n = match target {
            4096 => 4096 + rng.below(2) as usize,
            t => 1 + rng.below(3 * t as u64) as usize,
        };
        let input = rows(&mut rng, n);
        let mut store = Store::with_segment_target(target);
        for r in &input {
            store.append(r.clone()).unwrap();
        }
        let want: Vec<Record> = input.iter().map(normalized).collect();
        for (k, chunk) in want.chunks(target).enumerate() {
            let what = format!("case {case}, target {target}, window {k}");
            let first_seq = 1_000 * case + (k * target) as u64;
            let rows = store.segment_rows(k).unwrap();
            let view = rows.iter();
            assert_eq!(view.len(), chunk.len(), "{what}");
            assert!(view.clone().eq(chunk.iter().map(Record::as_row)), "{what}");

            let block = reference_block(first_seq, chunk);
            assert_eq!(encode_segment(first_seq, view.clone()), block, "{what}");
            assert_eq!(encode_segment(first_seq, chunk), block, "{what}");

            wal.rewrite(first_seq, view).unwrap();
            let image = std::fs::read(&path).unwrap();
            assert_eq!(image, reference_log(first_seq, chunk), "{what}");
            assert_eq!(wal.bytes(), image.len() as u64, "{what}");

            windows += 1;
            single += usize::from(chunk.len() == 1);
            full += usize::from(chunk.len() == target && target > 1);
        }
        assert!(store.segment_rows(want.len().div_ceil(target)).is_none());
    }
    assert!(windows >= 300, "{windows} windows");
    assert!(
        single > 0 && full > 0,
        "{single} one-row, {full} full windows"
    );
    drop(wal);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The golden dir: `rows(&mut Lcg(0x9057), 150)` appended through a
/// `DurableStore` over 64-row windows (two sealed blocks, a 22-row log
/// tail) by the Record-per-row store of commit 4d17f07, which also wrote
/// `expected.txt` with [`describe`]. It is input, not output: never
/// regenerate it from the current code.
const GOLDEN_WINDOW: usize = 64;
const GOLDEN_FILES: [(&str, &[u8]); 3] = [
    (
        "seg-0000000000000000.mqds",
        include_bytes!("golden/seg-0000000000000000.mqds"),
    ),
    (
        "seg-0000000000000064.mqds",
        include_bytes!("golden/seg-0000000000000064.mqds"),
    ),
    ("wal", include_bytes!("golden/wal")),
];

fn golden_opts() -> DurableOptions {
    DurableOptions {
        fsync: false,
        segment_rows: GOLDEN_WINDOW,
        retain: None,
    }
}

/// The store's stats, then a set of slices rendered as TSV rows: what the
/// golden dir's `expected.txt` recorded when the previous layout opened it.
fn describe(store: &Store) -> String {
    let mut out = format!("{:?}\n", store.stats());
    let labels: [&[u16]; 5] = [
        &[0],
        &[2, 1],
        &[u16::MAX],
        &[0, 1, 2, 3, 4, 5, u16::MAX],
        &[7, 3, 3],
    ];
    let bounds = [
        (i64::MIN, i64::MAX),
        (i64::MIN, i64::MIN),
        (i64::MAX, i64::MAX),
        (-1_000, 1 << 41),
        (0, 0),
    ];
    for l in labels {
        for (from, to) in bounds {
            let slice = store.slice(l, from, to);
            out += &format!("slice {l:?} [{from}, {to}]: {}\n", slice.instance.len());
            for i in 0..slice.instance.len() as u32 {
                out += &format_tsv(&slice.record_for(i));
                out.push('\n');
            }
        }
    }
    out
}

fn write_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in GOLDEN_FILES {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

#[test]
fn a_data_dir_the_record_layout_wrote_opens_to_the_same_store() {
    let dir = tmpdir("golden-open");
    write_dir(&dir);
    let ds = DurableStore::open(&dir, &golden_opts()).unwrap();
    assert_eq!(ds.durable_stats().recovered_rows, 150);
    assert_eq!(describe(ds.store()), include_str!("golden/expected.txt"));
    // Re-sealing the recovered segments writes the blocks byte for byte.
    for (k, (name, bytes)) in GOLDEN_FILES[..2].iter().enumerate() {
        let rows = ds.store().segment_rows(k).unwrap();
        let first_seq = (k * GOLDEN_WINDOW) as u64;
        assert_eq!(encode_segment(first_seq, rows.iter()), *bytes, "{name}");
    }
    drop(ds);
    // Opening rewrote nothing.
    for (name, bytes) in GOLDEN_FILES {
        assert_eq!(std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingesting_the_golden_rows_writes_the_golden_dir() {
    let dir = tmpdir("golden-write");
    let mut ds = DurableStore::open(&dir, &golden_opts()).unwrap();
    for r in rows(&mut Lcg(0x9057), 150) {
        ds.append(&r).unwrap();
    }
    ds.sync().unwrap();
    assert_eq!(describe(ds.store()), include_str!("golden/expected.txt"));
    drop(ds);
    for (name, bytes) in GOLDEN_FILES {
        assert_eq!(std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
