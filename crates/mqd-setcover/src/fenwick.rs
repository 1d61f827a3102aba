//! Bit-packed presence set with a word-level Fenwick (binary indexed) tree,
//! used to count uncovered `(post, label)` occurrences inside a value
//! window.
//!
//! Presence is one bit per position. The tree sums popcounts per 64-bit
//! word, so a range inside one or two words is a popcount and a longer one
//! adds one `O(log(n / 64))` prefix difference over the words strictly
//! between its ends. Footprint: ≈ 0.19 B per position.

/// Bits per presence word.
const WORD: usize = 64;

/// The bits `lo..=hi` of a word (`lo <= hi < 64`).
#[inline]
fn span_mask(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> (WORD - 1 - hi)) & (u64::MAX << lo)
}

/// A presence set specialised for coverage counts: every position starts
/// present ("uncovered") and can be cleared to absent exactly once.
#[derive(Clone, Debug)]
pub struct PresenceFenwick {
    /// Bit `i % 64` of word `i / 64` is set while position `i` is present.
    bits: Vec<u64>,
    /// 1-based Fenwick tree over the per-word popcounts of `bits`.
    tree: Vec<u32>,
    len: usize,
    remaining: usize,
}

impl PresenceFenwick {
    /// Creates a set of `n` positions, all marked present.
    pub fn all_present(n: usize) -> Self {
        let words = n.div_ceil(WORD);
        let mut bits = vec![u64::MAX; words];
        if let Some(last) = bits.last_mut() {
            *last = span_mask(0, (n - 1) % WORD);
        }
        // Linear-time construction from the word counts.
        let mut tree = vec![0u32; words + 1];
        for i in 1..=words {
            tree[i] += bits[i - 1].count_ones();
            let j = i + (i & i.wrapping_neg());
            if j <= words {
                tree[j] += tree[i];
            }
        }
        PresenceFenwick {
            bits,
            tree,
            len: n,
            remaining: n,
        }
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has zero positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Positions still marked present.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether position `i` is still present.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        assert!(i < self.len, "position {i} out of range ({})", self.len);
        self.bits[i / WORD] >> (i % WORD) & 1 == 1
    }

    /// Subtracts `d` from word `w`'s count.
    fn remove(&mut self, w: usize, d: u32) {
        let mut j = w + 1;
        while j < self.tree.len() {
            self.tree[j] -= d;
            j += j & j.wrapping_neg();
        }
    }

    /// Clears position `i`; returns `true` if it was present.
    pub fn clear(&mut self, i: usize) -> bool {
        self.clear_range(i, i + 1) == 1
    }

    /// Clears every position in `[lo, hi)`; returns how many were present.
    /// One tree update per word the range touches.
    pub fn clear_range(&mut self, lo: usize, hi: usize) -> u32 {
        if lo >= hi {
            return 0;
        }
        assert!(hi <= self.len, "range end {hi} out of range ({})", self.len);
        let (wl, wh) = (lo / WORD, (hi - 1) / WORD);
        let mut cleared = 0;
        for w in wl..=wh {
            let first = if w == wl { lo % WORD } else { 0 };
            let last = if w == wh { (hi - 1) % WORD } else { WORD - 1 };
            let mask = span_mask(first, last);
            let gone = (self.bits[w] & mask).count_ones();
            if gone > 0 {
                self.bits[w] &= !mask;
                self.remove(w, gone);
                cleared += gone;
            }
        }
        self.remaining -= cleared as usize;
        cleared
    }

    /// Count of present positions in words `[0, words)`.
    fn prefix(&self, words: usize) -> u32 {
        let mut s = 0;
        let mut j = words;
        while j > 0 {
            s += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        s
    }

    /// Count of present positions in `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> u32 {
        if lo >= hi {
            return 0;
        }
        assert!(hi <= self.len, "range end {hi} out of range ({})", self.len);
        let (wl, wh) = (lo / WORD, (hi - 1) / WORD);
        let (bl, bh) = (lo % WORD, (hi - 1) % WORD);
        if wl == wh {
            return (self.bits[wl] & span_mask(bl, bh)).count_ones();
        }
        let ends =
            (self.bits[wl] >> bl).count_ones() + (self.bits[wh] & span_mask(0, bh)).count_ones();
        if wh == wl + 1 {
            ends
        } else {
            ends + self.prefix(wh) - self.prefix(wl + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_rng::{RngExt, SeedableRng, StdRng};

    #[test]
    fn counts_and_clears() {
        let mut f = PresenceFenwick::all_present(10);
        assert_eq!(f.count_range(0, 10), 10);
        assert_eq!(f.remaining(), 10);
        assert!(f.clear(3));
        assert!(!f.clear(3));
        assert!(!f.is_present(3));
        assert!(f.is_present(4));
        assert_eq!(f.count_range(0, 10), 9);
        assert_eq!(f.count_range(3, 4), 0);
        assert_eq!(f.count_range(0, 4), 3);
        assert_eq!(f.count_range(4, 10), 6);
        assert_eq!(f.remaining(), 9);
        assert_eq!(f.clear_range(2, 6), 3);
        assert_eq!(f.clear_range(2, 6), 0);
        assert_eq!(f.count_range(0, 10), 6);
        assert_eq!(f.remaining(), 6);
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let mut f = PresenceFenwick::all_present(0);
        assert!(f.is_empty());
        assert_eq!(f.count_range(0, 0), 0);
        assert_eq!(f.clear_range(0, 0), 0);
        let mut f = PresenceFenwick::all_present(5);
        assert_eq!(f.count_range(3, 3), 0);
        assert_eq!(f.count_range(4, 2), 0);
        assert_eq!(f.clear_range(4, 2), 0);
        assert_eq!(f.remaining(), 5);
    }

    #[test]
    fn matches_naive_on_random_ops() {
        // deterministic pseudo-random without external crates
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 200;
        let mut f = PresenceFenwick::all_present(n);
        let mut naive = vec![true; n];
        for _ in 0..500 {
            let i = (next() % n as u64) as usize;
            assert_eq!(f.clear(i), std::mem::replace(&mut naive[i], false));
            let lo = (next() % n as u64) as usize;
            let hi = (next() % (n as u64 + 1)) as usize;
            let expect = naive[lo.min(hi)..hi.max(lo.min(hi))]
                .iter()
                .filter(|&&b| b)
                .count() as u32;
            assert_eq!(f.count_range(lo.min(hi), hi.max(lo.min(hi))), expect);
        }
    }

    /// A range `[lo, hi)` whose last position lies `gap` words after its
    /// first (`gap - 1` whole words in between), clipped to `n` positions.
    fn spanning(rng: &mut StdRng, n: usize, gap: usize) -> (usize, usize) {
        let lo = rng.random_range(0..n);
        let hi = (lo / WORD + gap) * WORD + rng.random_range(1..=WORD);
        (lo, hi.clamp(lo, n))
    }

    /// Random `clear` / `clear_range` / `count_range` against a `Vec<bool>`,
    /// on sizes around the word boundaries and ranges inside one word or
    /// spanning 0, 1, 4, 5 and 6+ inner words.
    #[test]
    fn matches_a_bool_vector_across_word_spans() {
        for n in [0usize, 1, 63, 64, 65, 640, 4113] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut f = PresenceFenwick::all_present(n);
            let mut naive = vec![true; n];
            let count =
                |v: &[bool], lo: usize, hi: usize| v[lo..hi].iter().filter(|&&b| b).count() as u32;
            for step in 0..800 {
                if n == 0 {
                    break;
                }
                let gap = [0, 1, 2, 5, 6, 7, 13, 41][step % 8];
                let (lo, hi) = spanning(&mut rng, n, gap);
                let what = format!("n {n} step {step} [{lo}, {hi})");
                assert_eq!(f.count_range(lo, hi), count(&naive, lo, hi), "{what}");
                match rng.random_range(0..8u32) {
                    0 => {
                        let i = rng.random_range(0..n);
                        let was = std::mem::replace(&mut naive[i], false);
                        assert_eq!(f.clear(i), was, "{what}: clear {i}");
                    }
                    1 => {
                        // Short ranges keep most of the set present.
                        let hi = (lo + rng.random_range(0..WORD)).min(n);
                        let want = count(&naive, lo, hi);
                        naive[lo..hi].iter_mut().for_each(|b| *b = false);
                        assert_eq!(f.clear_range(lo, hi), want, "{what}: clear_range");
                    }
                    _ => {}
                }
                assert_eq!(f.remaining(), count(&naive, 0, n) as usize, "{what}");
                let i = rng.random_range(0..n);
                assert_eq!(f.is_present(i), naive[i], "{what}: is_present {i}");
            }
            // Every prefix and suffix, then everything cleared at once.
            for i in 0..=n {
                assert_eq!(f.count_range(0, i), count(&naive, 0, i), "n {n} prefix {i}");
                assert_eq!(f.count_range(i, n), count(&naive, i, n), "n {n} suffix {i}");
            }
            assert_eq!(f.clear_range(0, n), count(&naive, 0, n), "n {n}");
            assert_eq!(f.remaining(), 0);
            assert_eq!(f.count_range(0, n), 0);
        }
    }
}
