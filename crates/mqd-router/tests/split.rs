//! The router's ingest split, one pass from the client's MQDL body to
//! each shard's body ([`split_by_shard`]), against what the router ran
//! before it:
//!
//! * per shard, the body it sends is `encode_rows` of the two-pass split
//!   of the decoded batch (a shard bitmask per row, each part sized, then
//!   filled), and the bytes `encode_records` wrote for the clone-based
//!   split before that (a `BTreeSet` of owning shards and a `Record` clone
//!   per row and shard) — both restated below as references — for 1-64
//!   shards, over seeded bodies, resealed bit flips, a zero-row body and
//!   refusals at the first and the last row;
//! * a body that does not decode fails with `decode_batch`'s error, and
//!   the door refuses the row the ledger's refusal refused, with its
//!   error, and counts what the ledger counted over the rows before it;
//! * splitting a benchmark-shaped 4096-row body allocates a few times per
//!   shard, not per row, where the clone-based reference allocates at
//!   least three times per row (asserted too, so the bound has teeth).
//!
//! The allocator counts per thread, so the tests can share the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use mqd_core::record::{
    decode_records, encode_records, encode_rows, split_by_shard, Record, RowRef, Rows, ShardSplit,
};
use mqd_core::wire::{seal_framed, shard_of_label, FRAME_FOOTER};
use mqd_core::MqdError;
use mqd_router::Topology;
use mqd_server::protocol::{decode_batch, MAX_BATCH_ROWS};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count_alloc();
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` made on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
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

fn topology(shards: u32) -> Topology {
    Topology::new((0..shards).map(|s| format!("b{s}")).collect(), shards).unwrap()
}

/// The owning shards of a row as the router computed them before.
fn reference_owning(labels: &[u16], shards: u32) -> Vec<u32> {
    let set: BTreeSet<u32> = labels.iter().map(|&l| shard_of_label(l, shards)).collect();
    set.into_iter().collect()
}

/// The split `route_ingest` ran before the two-pass one: a clone of the row
/// per owning shard.
fn reference_split(rows: &[Record], shards: u32) -> Vec<Vec<Record>> {
    let mut per_shard: Vec<Vec<Record>> = vec![Vec::new(); shards as usize];
    for row in rows {
        for shard in reference_owning(&row.labels, shards) {
            per_shard[shard as usize].push(row.clone());
        }
    }
    per_shard
}

/// Seeded rows: labels unsorted and repeated, `0` and `u16::MAX` often,
/// sometimes none; values and ids at their extremes now and then.
fn rows(rng: &mut Lcg, n: usize) -> Vec<Record> {
    (0..n)
        .map(|_| {
            let k = [0, 1, 1, 2, 3, 5, 9][rng.below(7) as usize];
            let labels = (0..k)
                .map(|_| match rng.below(5) {
                    0 => u16::MAX,
                    1 => 0,
                    _ => rng.below(40) as u16,
                })
                .collect();
            Record {
                id: [0, u64::MAX, rng.below(1 << 40)][rng.below(3) as usize],
                value: [i64::MIN, i64::MAX, rng.below(1 << 30) as i64][rng.below(3) as usize],
                labels,
            }
        })
        .collect()
}

/// The split `route_ingest` ran before the one pass: one shard bitmask
/// per row, each shard's part sized exactly from the masks, then the rows
/// copied in.
fn two_pass_split(rows: &Rows, shards: u32) -> Vec<Rows> {
    let mask = |r: RowRef| (r.labels.iter()).fold(0u64, |m, &l| m | 1 << shard_of_label(l, shards));
    let masks: Vec<u64> = rows.iter().map(mask).collect();
    let mut sizes = vec![(0usize, 0usize); shards as usize];
    for (row, &m) in rows.iter().zip(&masks) {
        for (s, size) in sizes.iter_mut().enumerate() {
            if m >> s & 1 == 1 {
                size.0 += 1;
                size.1 += row.labels.len();
            }
        }
    }
    let mut parts: Vec<Rows> = (sizes.iter())
        .map(|&(rows, labels)| Rows::with_capacity(rows, labels))
        .collect();
    for (row, &m) in rows.iter().zip(&masks) {
        for (s, part) in parts.iter_mut().enumerate() {
            if m >> s & 1 == 1 {
                part.push(row);
            }
        }
    }
    parts
}

/// The router's door check before the one pass (`Ledger::refusal`): the
/// first row with no label or valued below the last routed one, and the
/// single node's error there, numbered after `routed` rows.
fn ledger_refusal(rows: &Rows, routed: u64, last: Option<i64>) -> Option<(usize, MqdError)> {
    let mut prev = last;
    for (i, row) in rows.iter().enumerate() {
        let row_no = routed as usize + i + 1;
        if row.labels.is_empty() {
            return Some((i, MqdError::EmptyLabelSet { row: row_no }));
        }
        if let Some(prev) = prev.filter(|&p| row.value < p) {
            let got = row.value;
            return Some((
                i,
                MqdError::NonMonotoneTimestamp {
                    row: row_no,
                    prev,
                    got,
                },
            ));
        }
        prev = Some(row.value);
    }
    None
}

/// What `Ledger::apply` counted for a routed batch: its rows, the label
/// bits, the value bounds and the rows per shard.
fn ledger_delta(
    rows: &Rows,
    parts: &[Rows],
) -> (usize, Vec<u64>, Option<i64>, Option<i64>, Vec<u64>) {
    let mut labels = vec![0u64; 1024];
    for row in rows.iter() {
        for &l in row.labels {
            labels[l as usize / 64] |= 1 << (l % 64);
        }
    }
    let values = rows.values().iter().copied();
    let per_shard = parts.iter().map(|p| p.len() as u64).collect();
    (
        rows.len(),
        labels,
        values.clone().min(),
        values.max(),
        per_shard,
    )
}

/// Checks one split of `body` against every reference.
fn check_split(
    body: &[u8],
    shards: u32,
    routed: u64,
    last: Option<i64>,
    case: &str,
) -> Option<ShardSplit> {
    let got = split_by_shard(body, MAX_BATCH_ROWS, shards, last);
    let batch = match decode_batch(body) {
        Ok(batch) => batch,
        Err(want) => {
            let err = got.expect_err(case);
            assert_eq!(err.to_string(), want.to_string(), "{case}");
            assert_eq!(err, want, "{case}");
            return None;
        }
    };
    let split = got.unwrap_or_else(|e| panic!("{case}: {e}"));
    let want = ledger_refusal(&batch, routed, last);
    let valid = want.as_ref().map_or(batch.len(), |(i, _)| *i);
    let refused = (split.refusal).map(|r| (split.rows, r.error(routed as usize + split.rows + 1)));
    assert_eq!(refused, want, "{case}");
    let prefix: Rows = batch.iter().take(valid).collect();
    let parts = two_pass_split(&prefix, shards);
    let records: Vec<Record> = decode_records(body)
        .unwrap()
        .into_iter()
        .take(valid)
        .collect();
    let clones = reference_split(&records, shards);
    assert_eq!(split.bodies.len(), shards as usize, "{case}");
    for (s, body) in split.bodies.iter().enumerate() {
        assert_eq!(
            *body,
            encode_rows(&parts[s]),
            "{case}: shard {s} of {shards}"
        );
        assert_eq!(
            *body,
            encode_records(&clones[s]),
            "{case}: shard {s} of {shards}"
        );
    }
    let delta = (
        split.rows,
        split.labels.clone(),
        split.min_value,
        split.max_value,
        split.shard_rows.clone(),
    );
    assert_eq!(delta, ledger_delta(&prefix, &parts), "{case}");
    Some(split)
}

/// `body` with one bit flipped before its footer, resealed under a valid
/// checksum so the flip reaches the decoder.
fn resealed_flip(rng: &mut Lcg, body: &[u8]) -> Vec<u8> {
    let mut bad = body[..body.len() - FRAME_FOOTER.len() - 8].to_vec();
    let at = rng.below(bad.len() as u64) as usize;
    bad[at] ^= 1 << rng.below(8);
    seal_framed(&mut bad, FRAME_FOOTER);
    bad
}

/// Rows the door takes: values ascending from `start`, every row labeled.
fn feed(rng: &mut Lcg, n: usize, start: i64) -> Vec<Record> {
    let mut value = start;
    let mut out = rows(rng, n);
    for r in &mut out {
        value += rng.below(50) as i64;
        r.value = value;
        if r.labels.is_empty() {
            r.labels.push(rng.below(200) as u16);
        }
    }
    out
}

#[test]
fn the_one_pass_split_is_the_two_pass_splits_bytes_refusal_and_delta() {
    let mut rng = Lcg(0x5b11);
    let (mut refused, mut failed) = ([0usize; 2], 0);
    for shards in 1..=64u32 {
        for case in 0..12u64 {
            let n = [0, 1, 7, 300][case as usize % 4];
            let routed = rng.below(10_000);
            let (records, last) = match case / 4 {
                // Anything: extreme values and ids, rows with no label.
                0 => (
                    rows(&mut rng, n),
                    [None, Some(i64::MIN), Some(0)][rng.below(3) as usize],
                ),
                // A feed the door takes whole, after the last routed value.
                1 => (
                    feed(&mut rng, n, 1_000),
                    [None, Some(1_000)][rng.below(2) as usize],
                ),
                // The same, refused at its first row or its last.
                _ => {
                    let mut records = feed(&mut rng, n.max(2), 1_000);
                    let at = [0, records.len() - 1][rng.below(2) as usize];
                    match rng.below(3) {
                        0 => records[at].labels.clear(),
                        1 => records[at].value = 999,
                        _ => records[at].value = records[at.saturating_sub(1)].value - 1,
                    }
                    (records, Some(1_000))
                }
            };
            let name = format!("{shards} shards, case {case}");
            let body = encode_records(&records);
            let split = check_split(&body, shards, routed, last, &name).expect(&name);
            if split.refusal.is_some() {
                refused[(split.rows > 0) as usize] += 1;
            }
            for flip in 0..3 {
                let bad = resealed_flip(&mut rng, &body);
                let name = format!("{name}, flip {flip}");
                failed += check_split(&bad, shards, routed, last, &name).is_none() as usize;
            }
        }
        let topo = topology(shards);
        for r in rows(&mut rng, 50) {
            assert_eq!(
                topo.owning_shards(&r.labels),
                reference_owning(&r.labels, shards)
            );
        }
    }
    // The cases reach every branch: refusals at the first row and later,
    // and flips the decoder refuses.
    assert!(refused.iter().all(|&n| n > 50), "refusals {refused:?}");
    assert!(failed > 500, "{failed} resealed flips failed to decode");
}

#[test]
fn splitting_a_batch_allocates_per_shard_not_per_row() {
    const ROWS: usize = 4096;
    const SHARDS: u32 = 2; // as `routed-mix` runs
    let mut rng = Lcg(0xa110c);
    let mut value = 1_370_000_000_000i64;
    let batch: Vec<Record> = (1..=ROWS as u64)
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
            Record { id, value, labels }
        })
        .collect();
    let body = encode_records(&batch);
    let (split, n) = counted(|| split_by_shard(&body, MAX_BATCH_ROWS, SHARDS, None).unwrap());
    let (want, reference) = counted(|| reference_split(&decode_records(&body).unwrap(), SHARDS));
    assert!(split
        .shard_rows
        .iter()
        .map(|&n| n as usize)
        .eq(want.iter().map(Vec::len)));
    assert!(
        n <= 8 * SHARDS as u64,
        "{n} allocations to split {ROWS} rows over {SHARDS} shards"
    );
    let per_row = |n: u64| n as f64 / ROWS as f64;
    assert!(
        per_row(n) < 0.1,
        "{:.3} allocations per row to split {ROWS} rows",
        per_row(n)
    );
    assert!(
        per_row(reference) >= 3.0,
        "the clone-based split made only {:.3} allocations per row",
        per_row(reference)
    );
}
