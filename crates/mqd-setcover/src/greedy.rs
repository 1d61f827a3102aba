//! Greedy set cover over explicitly materialized sets.
//!
//! This is the classic `ln k`-approximate greedy the paper's GreedySC
//! (Section 4.2) runs on Algorithm 2's sets. Each round scans all sets for
//! the one covering the most uncovered elements, which mirrors the paper's
//! implementation note in Section 7.3 (they found a scan to beat a heap on
//! their data). `mqd-core`'s naive GreedySC runs it as the cross-check
//! oracle of the implicit, lazy solvers.

use crate::bitset::BitSet;

/// Greedy set cover, scan-max selection.
///
/// `sets[k]` lists the element ids covered by picking `k`; `covered` is the
/// initial coverage state (elements already covered by earlier decisions)
/// and is updated in place. Returns the picked set indices in pick order.
///
/// The loop runs until every element is covered. Sets that cover no new
/// element are never picked; if some element is in no set the loop stops
/// when no set makes progress.
pub fn greedy_cover(sets: &[Vec<u32>], covered: &mut BitSet) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut gain: Vec<u32> = sets
        .iter()
        .map(|s| s.iter().filter(|&&e| !covered.get(e)).count() as u32)
        .collect();
    while !covered.all_set() {
        let (best, &best_gain) = match gain
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        {
            Some(m) => m,
            None => break,
        };
        if best_gain == 0 {
            break;
        }
        picked.push(best);
        for &e in &sets[best] {
            covered.set(e);
        }
        // Every gain is recomputed, faithful to the paper's "iterate all
        // sets" loop.
        for (k, g) in gain.iter_mut().enumerate() {
            *g = sets[k].iter().filter(|&&e| !covered.get(e)).count() as u32;
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_universe() {
        let sets = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]];
        let mut c = BitSet::new(5);
        let picks = greedy_cover(&sets, &mut c);
        let mut cov = BitSet::new(5);
        for &k in &picks {
            for &e in &sets[k] {
                cov.set(e);
            }
        }
        assert!(cov.all_set(), "picks {picks:?} must cover");
        // Greedy picks the size-3 set first.
        assert_eq!(picks[0], 0);
    }

    #[test]
    fn unreachable_goal_terminates() {
        let sets = vec![vec![0]];
        let mut c = BitSet::new(2);
        let picks = greedy_cover(&sets, &mut c);
        assert_eq!(picks, vec![0]);
        assert!(!c.all_set());
    }

    #[test]
    fn respects_initial_coverage() {
        let sets = vec![vec![0, 1], vec![2]];
        let mut c = BitSet::new(3);
        c.set(0);
        c.set(1);
        let picks = greedy_cover(&sets, &mut c);
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn greedy_ln_bound_on_random_instances() {
        // |greedy| <= H(max set size) * |opt|; we check against a brute-force
        // optimum on small instances.
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            state >> 33
        };
        for _ in 0..20 {
            let n = 10usize;
            let m = 6usize;
            let sets: Vec<Vec<u32>> = (0..m)
                .map(|_| (0..n as u32).filter(|_| next() % 2 == 0).collect())
                .collect();
            // ensure coverable
            let mut universe: Vec<u32> = Vec::new();
            for s in &sets {
                universe.extend(s);
            }
            universe.sort_unstable();
            universe.dedup();
            if universe.len() < n {
                continue;
            }
            // brute force optimum
            let mut opt = usize::MAX;
            for mask in 0u32..(1 << m) {
                let mut cov = BitSet::new(n);
                for (k, s) in sets.iter().enumerate() {
                    if mask & (1 << k) != 0 {
                        for &e in s {
                            cov.set(e);
                        }
                    }
                }
                if cov.all_set() {
                    opt = opt.min(mask.count_ones() as usize);
                }
            }
            let mut c = BitSet::new(n);
            let picks = greedy_cover(&sets, &mut c);
            let max_set = sets.iter().map(|s| s.len()).max().unwrap_or(1);
            let h: f64 = (1..=max_set).map(|i| 1.0 / i as f64).sum();
            assert!(
                picks.len() as f64 <= h * opt as f64 + 1e-9,
                "greedy {} vs opt {opt} (H={h})",
                picks.len()
            );
        }
    }
}
