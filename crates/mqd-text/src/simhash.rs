//! SimHash near-duplicate detection (Manku et al., WWW 2007 — reference
//! [17] of the paper). The paper eliminates near-duplicate posts *before*
//! diversification because microblog texts are too short for distance-based
//! similarity; this module provides that preprocessing stage.
//!
//! A 64-bit fingerprint is built from token hashes; two texts are near
//! duplicates when the Hamming distance of their fingerprints is at most
//! `k`. [`NearDuplicateFilter`] indexes fingerprints by four 16-bit blocks,
//! so candidate lookups only compare fingerprints sharing at least one
//! block — exact for `k <= 3` by the pigeonhole principle.

use std::collections::HashMap;

use mqd_core::wire::fnv1a;

use crate::tokenize::tokenize;

/// Computes the 64-bit SimHash fingerprint of `text` (token features,
/// unit weights). Empty/stopword-only texts hash to 0.
///
/// ```
/// use mqd_text::{simhash, hamming};
/// let a = simhash("breaking news about the senate budget vote");
/// let b = simhash("breaking news about the senate budget votes today");
/// let c = simhash("tiger woods wins the golf masters");
/// assert!(hamming(a, b) < hamming(a, c));
/// ```
pub fn simhash(text: &str) -> u64 {
    let tokens = tokenize(text);
    if tokens.is_empty() {
        return 0;
    }
    let mut acc = [0i32; 64];
    for t in &tokens {
        let h = fnv1a(t.as_bytes());
        for (bit, slot) in acc.iter_mut().enumerate() {
            if h & (1u64 << bit) != 0 {
                *slot += 1;
            } else {
                *slot -= 1;
            }
        }
    }
    let mut out = 0u64;
    for (bit, &v) in acc.iter().enumerate() {
        if v > 0 {
            out |= 1u64 << bit;
        }
    }
    out
}

/// Hamming distance between two fingerprints.
#[inline]
pub fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Streaming near-duplicate filter: keeps every *first* occurrence, drops
/// texts whose fingerprint is within `k` bits of a kept one.
#[derive(Debug)]
pub struct NearDuplicateFilter {
    k: u32,
    /// Kept fingerprints, by 16-bit block value, for each of the 4 blocks.
    blocks: [HashMap<u16, Vec<u64>>; 4],
    kept: usize,
}

impl NearDuplicateFilter {
    /// Creates a filter with Hamming threshold `k` (`k <= 3` keeps block
    /// candidate lookup exact; larger `k` is allowed but may miss pairs
    /// differing in all four blocks).
    pub fn new(k: u32) -> Self {
        NearDuplicateFilter {
            k,
            blocks: Default::default(),
            kept: 0,
        }
    }

    /// Number of fingerprints kept so far.
    pub fn kept(&self) -> usize {
        self.kept
    }

    fn block_values(fp: u64) -> [u16; 4] {
        [
            (fp & 0xffff) as u16,
            ((fp >> 16) & 0xffff) as u16,
            ((fp >> 32) & 0xffff) as u16,
            ((fp >> 48) & 0xffff) as u16,
        ]
    }

    /// Checks `fp` against kept fingerprints; if novel, keeps it and returns
    /// `true`, otherwise returns `false` (a near duplicate).
    pub fn insert_fingerprint(&mut self, fp: u64) -> bool {
        let vals = Self::block_values(fp);
        for (b, &v) in vals.iter().enumerate() {
            if let Some(cands) = self.blocks[b].get(&v) {
                if cands.iter().any(|&c| hamming(c, fp) <= self.k) {
                    return false;
                }
            }
        }
        for (b, &v) in vals.iter().enumerate() {
            self.blocks[b].entry(v).or_default().push(fp);
        }
        self.kept += 1;
        true
    }

    /// Convenience: fingerprint + insert.
    pub fn insert_text(&mut self, text: &str) -> bool {
        self.insert_fingerprint(simhash(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_collide() {
        let a = simhash("Breaking news about the senate vote tonight");
        let b = simhash("Breaking news about the senate vote tonight");
        assert_eq!(a, b);
        assert_eq!(hamming(a, b), 0);
    }

    #[test]
    fn near_duplicates_are_close_unrelated_are_far() {
        let a = simhash("breaking news senate budget vote tonight results expected soon");
        let b = simhash("breaking news senate budget vote tonight results expected shortly");
        let c = simhash("golf tournament tiger woods wins masters championship augusta round");
        assert!(
            hamming(a, b) < hamming(a, c),
            "near dup {} vs unrelated {}",
            hamming(a, b),
            hamming(a, c)
        );
    }

    #[test]
    fn filter_drops_retweets() {
        let mut f = NearDuplicateFilter::new(3);
        assert!(f.insert_text("Obama announces new economic plan for the middle class"));
        assert!(!f.insert_text("RT Obama announces new economic plan for the middle class"));
        assert!(f.insert_text("Tiger Woods takes the lead at the Masters in Augusta"));
        assert_eq!(f.kept(), 2);
    }

    #[test]
    fn exact_fingerprint_dedup_at_k_zero() {
        let mut f = NearDuplicateFilter::new(0);
        assert!(f.insert_fingerprint(0xDEADBEEF));
        assert!(!f.insert_fingerprint(0xDEADBEEF));
        assert!(f.insert_fingerprint(0xDEADBEEE)); // 1 bit away, kept at k=0
    }

    #[test]
    fn block_candidates_found_for_small_k() {
        // Flip 3 bits spread over different blocks: still detected at k=3
        // because one block stays identical.
        let base: u64 = 0x0123_4567_89AB_CDEF;
        let variant = base ^ (1 << 0) ^ (1 << 20) ^ (1 << 40);
        let mut f = NearDuplicateFilter::new(3);
        assert!(f.insert_fingerprint(base));
        assert!(!f.insert_fingerprint(variant));
    }

    #[test]
    fn empty_text_hashes_to_zero() {
        assert_eq!(simhash(""), 0);
        assert_eq!(simhash("the of and"), 0);
    }
}
