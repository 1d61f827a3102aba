//! Zero-dependency parallel execution layer built on `std::thread::scope`.
//!
//! The workspace has no registry access, so instead of `rayon` this crate
//! provides the three fan-outs the workspace actually calls, each taking
//! an explicit thread count (callers pass [`configured_threads`] or a
//! fixed count, which also keeps nested parallelism out):
//!
//! * [`par_map_range_threads`] — an embarrassingly-parallel map over the
//!   index range `0..n` with **deterministic output order**: the range is
//!   split into one contiguous chunk per worker, workers run under
//!   [`std::thread::scope`], and results are concatenated in chunk order,
//!   so the output is byte-identical to the sequential map regardless of
//!   the thread count or scheduling. Below [`SMALL_INPUT`] items it runs
//!   inline on the caller's thread.
//! * [`par_map_range_coarse_threads`] — the same map for few-but-heavy
//!   items (labels, users): it parallelizes from two items up.
//! * [`par_for_each_threads`] — `f(i, &mut slots[i])` over owned mutable
//!   slots (one stream shard each), also from two slots up.
//!
//! Thread-count resolution ([`configured_threads`]):
//!
//! 1. an explicit [`set_threads`] call (the CLI's `--threads` flag),
//! 2. the `MQD_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread every fan-out is *exactly* the sequential loop. A
//! worker's panic is re-raised on the caller's thread with its original
//! payload.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs smaller than this run inline even when more threads are allowed:
/// a thread spawn costs far more than mapping a handful of items.
pub const SMALL_INPUT: usize = 256;

/// 0 = unset (fall through to env / hardware).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide thread-count override.
/// The CLI's `--threads N` flag lands here.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Resolves the configured thread count: [`set_threads`] override, then the
/// `MQD_THREADS` environment variable, then the hardware parallelism.
/// Always at least 1.
pub fn configured_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("MQD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Joins a worker, re-raising its panic (if any) on the caller's thread
/// with the **original** payload. Swallowing the payload behind a generic
/// `expect` message would hide the root cause from supervisors and test
/// harnesses sitting above this layer; `resume_unwind` preserves it.
fn join_propagating<U>(h: std::thread::ScopedJoinHandle<'_, U>) -> U {
    // Bounded: every spawned closure is a bounded chunk of work with no
    // inbound channel to wedge on.
    match h.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Splits `len` items into at most `threads` contiguous chunks of
/// near-equal size; returns `(start, end)` pairs covering `0..len`.
fn chunks(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Maps `f` over the index range `0..n`; `out[i] == f(i)` exactly as in
/// the sequential loop. Runs inline with one thread or below
/// `min_parallel` items; otherwise one contiguous chunk per worker,
/// concatenated in chunk order.
fn map_range<U: Send>(
    threads: usize,
    n: usize,
    min_parallel: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    if threads <= 1 || n < min_parallel {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let results: Vec<Vec<U>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks(n, threads)
            .into_iter()
            .map(|(lo, hi)| s.spawn(move || (lo..hi).map(f).collect::<Vec<U>>()))
            .collect();
        handles.into_iter().map(join_propagating).collect()
    });
    let mut out = Vec::with_capacity(n);
    for r in results {
        out.extend(r);
    }
    out
}

/// Maps `f` over the index range `0..n` on `threads` workers;
/// `out[i] == f(i)` exactly as in the sequential loop. Below
/// [`SMALL_INPUT`] items it runs inline.
pub fn par_map_range_threads<U: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    map_range(threads, n, SMALL_INPUT, f)
}

/// [`par_map_range_threads`] for **coarse** items: parallelizes whenever
/// there are at least two items, ignoring the [`SMALL_INPUT`] cutoff. Use
/// when each item is a substantial unit of work (e.g. one label's whole
/// posting list), so spawn overhead is negligible even for a handful of
/// items.
pub fn par_map_range_coarse_threads<U: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    map_range(threads, n, 2, f)
}

/// Runs `f(i, &mut slots[i])` over every slot on `threads` workers, from
/// two slots up. Each worker owns a contiguous sub-slice, so no
/// synchronization is needed beyond the join; slots are coarse units of
/// work (one stream shard each).
pub fn par_for_each_threads<U: Send>(
    threads: usize,
    slots: &mut [U],
    f: impl Fn(usize, &mut U) + Sync,
) {
    let n = slots.len();
    if threads <= 1 || n < 2 {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut rest = slots;
        let mut handles = Vec::new();
        for (lo, hi) in chunks(n, threads) {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            handles.push(s.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    f(lo + off, slot);
                }
            }));
        }
        handles.into_iter().for_each(join_propagating);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_cover_and_balance() {
        for len in [0usize, 1, 7, 255, 256, 1000, 1001] {
            for threads in [1usize, 2, 3, 8, 64] {
                let parts = chunks(len, threads);
                assert!(!parts.is_empty());
                assert_eq!(parts[0].0, 0);
                assert_eq!(parts.last().unwrap().1, len);
                for w in parts.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                }
                let sizes: Vec<usize> = parts.iter().map(|&(a, b)| b - a).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced within 1: {sizes:?}");
            }
        }
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let seq: Vec<usize> = (0..5_000).map(|i| i * i % 97).collect();
        for threads in [1, 2, 8] {
            assert_eq!(par_map_range_threads(threads, 5_000, |i| i * i % 97), seq);
        }
    }

    #[test]
    fn par_for_each_fills_all_slots() {
        // Few slots (one per shard) fan out too; every slot is visited once.
        for n in [0usize, 1, 2, 3, 8, 4_000] {
            for threads in [1, 2, 4, 8] {
                let mut slots = vec![0usize; n];
                par_for_each_threads(threads, &mut slots, |i, s| *s += i + 1);
                assert!(slots.iter().enumerate().all(|(i, &s)| s == i + 1));
            }
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        // Below SMALL_INPUT the result must still be correct (inline path).
        assert_eq!(
            par_map_range_threads(8, 10, |i| i as i32 - 1),
            (-1..9).collect::<Vec<i32>>()
        );
        assert_eq!(par_map_range_threads(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn coarse_map_parallelizes_tiny_inputs() {
        // 5 items is far below SMALL_INPUT, but the coarse variant must
        // still produce the sequential result across thread counts.
        let seq: Vec<usize> = (0..5).map(|i| i * 11).collect();
        for threads in [1, 2, 8] {
            assert_eq!(par_map_range_coarse_threads(threads, 5, |i| i * 11), seq);
        }
        assert_eq!(
            par_map_range_coarse_threads(4, 0, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn thread_override_resolution() {
        set_threads(Some(3));
        assert_eq!(configured_threads(), 3);
        set_threads(None);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate_with_original_payload() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let res = std::panic::catch_unwind(|| {
            par_map_range_threads(4, 1000, |i| {
                if i == 700 {
                    std::panic::panic_any("original payload 700");
                }
                i
            })
        });
        std::panic::set_hook(prev);
        let payload = res.expect_err("panic must cross the join");
        assert_eq!(
            *payload.downcast_ref::<&str>().expect("payload type kept"),
            "original payload 700"
        );
    }

    #[test]
    fn non_send_closure_state_via_sync_ref() {
        // The mapped closure only needs Sync, so it can capture shared
        // lookup tables by reference.
        let table: Vec<u64> = (0..1000).map(|i| i * 7).collect();
        let out = par_map_range_threads(4, 1000, |i| table[i] + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 7 + 1));
    }
}
