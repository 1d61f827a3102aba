//! The store's resident cost per row, counted by the allocator: 200 000
//! rows shaped like the benchmark corpus (1–3 distinct labels of 12,
//! value gaps 0–100, ids in arrival order) must hold at most 10 live heap
//! bytes each, and at most 13 when the ids are snowflake-style
//! (`ms << 22 | seq`, so a segment's ids span ~40 bits instead of 12). A
//! store that kept a `Record` (and so a heap `Vec<u16>`) per row held
//! ≈ 82, one that kept a label arena beside `u32` postings ≈ 32, and one
//! that kept `ids` and `values` as 64-bit words ≈ 20.
//!
//! A block is charged what glibc's malloc spends on it, not the bytes
//! asked for: a tiny `Vec<u16>` costs a 32-byte chunk, which is most of
//! what a per-row allocation wastes.
//!
//! One test in this binary on purpose: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mqd_core::record::Record;
use mqd_store::Store;

/// The system allocator, counting the bytes its live blocks occupy.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// glibc malloc's chunk for a `size`-byte request: an 8-byte header,
/// 16-byte granules, 32 bytes at least.
fn chunk(size: usize) -> usize {
    (size + 8).next_multiple_of(16).max(32)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(chunk(layout.size()), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(chunk(layout.size()), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(chunk(layout.size()), Relaxed);
            LIVE.fetch_add(chunk(new_size), Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 200_000;
const LABELS: u16 = 12;
const MAX_BYTES_PER_ROW: f64 = 10.0;
const MAX_BYTES_PER_SNOWFLAKE_ROW: f64 = 13.0;

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

/// Live heap bytes per row of a store holding `ROWS` rows shaped like the
/// benchmark corpus, where the `n`-th row with value `value` has id
/// `id(n, value)`.
fn bytes_per_row(mut id: impl FnMut(u64, i64) -> u64) -> f64 {
    let mut rng = Lcg(0x5eed);
    let mut store = Store::new();
    let before = LIVE.load(Relaxed);
    let mut value = 1_370_000_000_000i64;
    for n in 0..ROWS as u64 {
        value += rng.below(101) as i64;
        // 1-3 distinct labels, ascending, as the benchmark's rows are.
        let k = 1 + rng.below(3) as usize;
        let mut labels: Vec<u16> = Vec::with_capacity(k);
        while labels.len() < k {
            let l = rng.below(LABELS as u64) as u16;
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
        labels.sort_unstable();
        let id = id(n, value);
        store.append(Record { id, value, labels }).unwrap();
    }
    let held = LIVE.load(Relaxed).saturating_sub(before);
    assert_eq!(store.stats().rows, ROWS as u64);
    held as f64 / ROWS as f64
}

#[test]
fn a_stored_row_costs_at_most_10_heap_bytes_or_13_with_snowflake_ids() {
    let per_row = bytes_per_row(|n, _| n);
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "{per_row:.1} live heap bytes per stored row ({ROWS} rows), want <= {MAX_BYTES_PER_ROW}"
    );
    // A snowflake id: the millisecond, then a sequence number within it.
    let mut last = (i64::MIN, 0u64);
    let per_row = bytes_per_row(|_, ms| {
        last = (ms, if last.0 == ms { last.1 + 1 } else { 0 });
        (ms as u64) << 22 | last.1
    });
    assert!(
        per_row <= MAX_BYTES_PER_SNOWFLAKE_ROW,
        "{per_row:.1} live heap bytes per stored row with snowflake ids ({ROWS} rows), want <= {MAX_BYTES_PER_SNOWFLAKE_ROW}"
    );
}
