//! The selection queue of a lazy greedy: a bucket queue over gains.
//!
//! A lazy greedy pops the entry with the highest recorded gain (ties: the
//! smallest index), re-evaluates it, and either picks it or re-files it at
//! its fresh gain. Gains only shrink, so a re-filed entry always lands
//! strictly below the gain it was popped at, which means no bucket grows
//! while it is being drained. [`GainQueue`] exploits that: one `Vec` per
//! gain, drained from the top, each bucket sorted ascending once when it is
//! reached. It pops exactly the `(gain desc, index asc)` sequence of a
//! `(gain, Reverse(index))` max-heap, with an `O(1)` re-file instead of an
//! `O(log n)` sift.

/// A max-queue of `(gain, index)` entries for lazy greedy selection; see
/// the module docs for the re-filing contract.
#[derive(Clone, Debug)]
pub struct GainQueue {
    /// `buckets[g]` holds the indices filed at gain `g`; the last bucket is
    /// the one being drained, and is sorted. Bucket 0 stays empty: zero
    /// gains are never queued.
    buckets: Vec<Vec<u32>>,
    /// How far the last bucket has been drained.
    head: usize,
}

impl GainQueue {
    /// Queues index `k` at `gains[k]`, skipping zero gains.
    pub fn new(gains: &[u32]) -> Self {
        let top = gains.iter().copied().max().unwrap_or(0) as usize;
        // Filled in index order, so every bucket starts sorted.
        let mut buckets = vec![Vec::new(); top + 1];
        for (k, &g) in (0u32..).zip(gains) {
            if g > 0 {
                buckets[g as usize].push(k);
            }
        }
        GainQueue { buckets, head: 0 }
    }

    /// Removes and returns the entry with the highest gain, smallest index
    /// first among equal gains.
    pub fn pop(&mut self) -> Option<(u32, u32)> {
        loop {
            let g = self.buckets.len().checked_sub(1).filter(|&g| g > 0)?;
            if let Some(&k) = self.buckets[g].get(self.head) {
                self.head += 1;
                return Some((g as u32, k));
            }
            self.buckets.pop();
            self.head = 0;
            // Re-filed entries arrive in any order; the next bucket to
            // drain can no longer grow.
            if let Some(next) = self.buckets.last_mut() {
                next.sort_unstable();
            }
        }
    }

    /// Files `k` again at `gain`, which must be below the gain `k` was last
    /// popped at; a zero gain drops it.
    pub fn refile(&mut self, k: u32, gain: u32) {
        let g = gain as usize;
        debug_assert!(
            g + 1 < self.buckets.len(),
            "re-filed at or above the drained gain"
        );
        if g > 0 {
            self.buckets[g].push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_rng::{RngExt, SeedableRng, StdRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_gain_descending_then_index_ascending() {
        let mut q = GainQueue::new(&[2, 0, 3, 2, 1, 3]);
        let mut seen = Vec::new();
        while let Some(e) = q.pop() {
            seen.push(e);
        }
        assert_eq!(seen, [(3, 2), (3, 5), (2, 0), (2, 3), (1, 4)]);
        assert_eq!(GainQueue::new(&[]).pop(), None);
        assert_eq!(GainQueue::new(&[0, 0]).pop(), None);
    }

    /// A lazy-greedy drive against a `(gain, Reverse(index))` max-heap:
    /// each popped entry's gain shrinks at random (or stays, which "picks"
    /// it); both must pop the same sequence.
    #[test]
    fn pops_the_same_sequence_as_a_max_heap_under_lazy_refiles() {
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..300 {
            let n = rng.random_range(0..200usize);
            let top = [1u32, 3, 20, 1000][trial % 4];
            let gains: Vec<u32> = (0..n).map(|_| rng.random_range(0..=top)).collect();
            let mut q = GainQueue::new(&gains);
            let mut heap: BinaryHeap<(u32, Reverse<u32>)> = (0u32..)
                .zip(&gains)
                .filter(|&(_, &g)| g > 0)
                .map(|(k, &g)| (g, Reverse(k)))
                .collect();
            loop {
                let want = heap.pop().map(|(g, Reverse(k))| (g, k));
                let got = q.pop();
                assert_eq!(got, want, "trial {trial}");
                let Some((stale, k)) = got else { break };
                if rng.random_range(0..3u32) > 0 {
                    let fresh = rng.random_range(0..stale);
                    q.refile(k, fresh);
                    if fresh > 0 {
                        heap.push((fresh, Reverse(k)));
                    }
                }
            }
        }
    }
}
