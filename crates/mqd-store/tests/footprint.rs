//! The store's resident cost per row, counted by the allocator: 200 000
//! rows shaped like the benchmark corpus (1–3 distinct labels of 12,
//! value gaps 0–100) must hold at most 22 live heap bytes each. A store
//! that kept a `Record` (and so a heap `Vec<u16>`) per row held ≈ 82, and
//! one that kept a label arena beside `u32` postings ≈ 32.
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
const MAX_BYTES_PER_ROW: f64 = 22.0;

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
fn a_stored_row_costs_at_most_22_heap_bytes() {
    let mut rng = Lcg(0x5eed);
    let mut store = Store::new();
    let before = LIVE.load(Relaxed);
    let mut value = 1_370_000_000_000i64;
    for id in 0..ROWS as u64 {
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
        store.append(Record { id, value, labels }).unwrap();
    }
    let held = LIVE.load(Relaxed).saturating_sub(before);
    let per_row = held as f64 / ROWS as f64;
    assert_eq!(store.stats().rows, ROWS as u64);
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "{per_row:.1} live heap bytes per stored row ({held} for {ROWS} rows), want <= {MAX_BYTES_PER_ROW}"
    );
}
