//! The router's ingest split from one decoded batch ([`Rows`]):
//!
//! * per shard, the body it sends is the bytes `encode_records` wrote for
//!   the clone-based split it replaced (a `BTreeSet` of owning shards and
//!   a `Record` clone per row and shard, restated below as the reference),
//!   for 1-8 shards;
//! * decoding and splitting a benchmark-shaped 4096-row body allocates
//!   less than once per ten rows, where the reference allocates at least
//!   three times per row (asserted too, so the bound has teeth).
//!
//! The allocator counts per thread, so the tests can share the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use mqd_core::record::{decode_records, encode_records, encode_rows, Record, Rows};
use mqd_core::wire::shard_of_label;
use mqd_router::Topology;
use mqd_server::protocol::decode_batch;

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

/// The split `route_ingest` ran before: a clone of the row per owning shard.
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

#[test]
fn per_shard_bodies_are_the_clone_based_splits_bytes() {
    let mut rng = Lcg(0x5b11);
    for case in 0..120 {
        let shards = 1 + case % 8;
        let topo = topology(shards);
        let records = rows(&mut rng, [0, 1, 7, 300][case as usize % 4]);
        let body = encode_records(&records);
        let parts = topo.split(&decode_batch(&body).unwrap());
        let want = reference_split(&decode_records(&body).unwrap(), shards);
        assert_eq!(parts.len(), want.len(), "case {case}");
        for (shard, (part, want)) in parts.iter().zip(&want).enumerate() {
            assert_eq!(
                encode_rows(part),
                encode_records(want),
                "case {case}, shard {shard} of {shards}"
            );
        }
        for r in &records {
            assert_eq!(
                topo.owning_shards(&r.labels),
                reference_owning(&r.labels, shards)
            );
        }
    }
}

#[test]
fn decoding_and_splitting_a_batch_allocates_under_once_per_ten_rows() {
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
    let topo = topology(SHARDS);
    let (parts, n): (Vec<Rows>, u64) = counted(|| topo.split(&decode_batch(&body).unwrap()));
    let (want, reference) = counted(|| reference_split(&decode_records(&body).unwrap(), SHARDS));
    assert!(parts.iter().map(Rows::len).eq(want.iter().map(Vec::len)));
    let per_row = |n: u64| n as f64 / ROWS as f64;
    assert!(
        per_row(n) < 0.1,
        "{:.3} allocations per row to decode and split {ROWS} rows",
        per_row(n)
    );
    assert!(
        per_row(reference) >= 3.0,
        "the clone-based split made only {:.3} allocations per row",
        per_row(reference)
    );
}
