//! Algorithm GreedySC (Section 4.2): MQDP as greedy set cover.
//!
//! The universe is the set of `(post, label)` occurrences; picking post `k`
//! covers the occurrences `⟨P_i, a⟩` with `a ∈ label(P_k)` and
//! `|t_k - t_i| <= lambda_a(P_k)`. Greedy repeatedly picks the post covering
//! the most uncovered occurrences, giving the `ln(|P||L|)` bound of the
//! paper.
//!
//! Three interchangeable implementations:
//!
//! * [`solve_greedy_sc`] — *implicit lazy greedy* (default). Sets are never
//!   materialized; a post's current gain is counted with one bit-packed
//!   [`PresenceFenwick`] per label (a popcount or two per label, plus a
//!   word-tree prefix difference for wide windows), and selection uses lazy
//!   evaluation over a [`GainQueue`] (gains are submodular, so a stale top
//!   entry that revalidates is safe to pick). This is what the experiment
//!   harness runs on day-scale data.
//! * [`solve_greedy_sc_scan_max`] — implicit gains, but each round linearly
//!   rescans all posts for the maximum, mirroring the implementation the
//!   paper describes in Section 7.3 ("we iterate all sets to find the set
//!   with maximum size"). Kept for the `ablation_greedy_heap` experiment.
//! * [`solve_greedy_sc_naive`] — literally materializes the sets `S_k` of
//!   Algorithm 2 and runs the generic greedy from `mqd-setcover`. Quadratic
//!   memory; used as a cross-check oracle in tests.
//!
//! All three produce the same cover under the shared tie-break (highest
//! gain, then smallest post index).
//!
//! With one uniform lambda every occurrence's coverage window is a function
//! of the occurrence alone, so [`GainOracle`] takes all of them from one
//! two-pointer sweep ([`Instance::pair_windows`]): the initial gain of a
//! post is then a sum of window widths, and a re-evaluation is one presence
//! count per label with no binary search.
//!
//! The same sweep finds the *dominated* posts, which [`solve_greedy_sc`]
//! and [`complete_cover`] never queue. A post `k` is dominated when it
//! carries a single label `a` and its window in `LP(a)` ends where that of
//! its predecessor `j` in `LP(a)` ends. `j` is valued no higher, so its
//! window starts no later, and `S_k ⊆ S_j`: whatever is covered, `k`'s gain
//! is at most `j`'s. The greedy takes the highest gain and, among equal
//! gains, the smallest index, which `j < k` is. So `k` is never the pick
//! while `j` is unpicked, and gains nothing once `j` is picked. This is the
//! classic exact reduction for greedy set cover (a set contained in an
//! earlier one is never chosen): every round picks the post it picked
//! before, with or without pins. [`solve_greedy_sc_scan_max`] and
//! [`solve_greedy_sc_naive`] do not prune, and serve as its oracles.
//!
//! Under the variable lambda of Section 6 windows depend on the coverer, so
//! nothing is pruned, the oracle searches per evaluation and the lazy
//! variant's dominant cost on large instances is the initial `gain(k)`
//! pass over every post;
//! [`solve_greedy_sc`] computes that in parallel with `mqd-par`. This is
//! deterministically byte-identical to the sequential solver at any thread
//! count: the parallel map returns the same gains vector in index order
//! whatever the thread count, and from that vector on the queue's drain
//! order is fixed — highest gain first, each bucket in ascending post
//! index, every re-filed entry strictly below the bucket being drained.
//! The selection loop itself stays sequential — each pick changes the gains
//! of later picks, which is inherent to greedy set cover.

use std::ops::Range;

use crate::instance::Instance;
use crate::lambda::LambdaProvider;
use crate::post::LabelId;
use crate::solution::Solution;
use mqd_setcover::{greedy_cover, BitSet, GainQueue, PresenceFenwick};

/// Shared implicit-gain machinery: per-label Fenwick trees over `LP(a)`
/// positions, where "present" means the occurrence is still uncovered.
pub(crate) struct GainOracle<'a, L: LambdaProvider + ?Sized> {
    inst: &'a Instance,
    lp: &'a L,
    fenwicks: Vec<PresenceFenwick>,
    remaining: usize,
    /// Every occurrence's coverage window by pair id, when the provider is
    /// one uniform lambda.
    windows: Option<Vec<(u32, u32)>>,
    /// With `windows`, per post: its windows' widths, or 0 for a post the
    /// greedy never picks (module docs).
    widths: Vec<u32>,
}

impl<'a, L: LambdaProvider + ?Sized> GainOracle<'a, L> {
    pub(crate) fn new(inst: &'a Instance, lp: &'a L) -> Self {
        let fenwicks: Vec<PresenceFenwick> = (0..inst.num_labels())
            .map(|a| PresenceFenwick::all_present(inst.postings(LabelId(a as u16)).len()))
            .collect();
        let remaining = inst.num_pairs();
        let (windows, widths) = match lp.as_fixed() {
            Some(lambda) => {
                let (windows, widths) = inst.pair_windows_with_gains(lambda);
                (Some(windows), widths)
            }
            None => (None, Vec::new()),
        };
        GainOracle {
            inst,
            lp,
            fenwicks,
            remaining,
            windows,
            widths,
        }
    }

    /// Number of still-uncovered occurrences.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// The positions of `LP(a)` that picking `k` covers, where `a` is the
    /// label in `slot` of `k`'s label set (a negative lambda covers nothing).
    fn window(&self, k: u32, slot: usize, a: LabelId) -> Range<usize> {
        if let Some(windows) = &self.windows {
            let (lo, hi) = windows[self.inst.pair_range(k).start as usize + slot];
            return lo as usize..hi as usize;
        }
        let lam = self.lp.lambda(self.inst, k, a);
        if lam < 0 {
            return 0..0;
        }
        let t = self.inst.value(k);
        self.inst
            .posting_window(a, t.saturating_sub(lam), t.saturating_add(lam))
    }

    /// Current gain of picking `k`: uncovered occurrences inside `k`'s
    /// coverage window, summed over its labels.
    pub(crate) fn gain(&self, k: u32) -> u32 {
        // Until the first pick a window's uncovered count is its width.
        let untouched = self.remaining == self.inst.num_pairs();
        let labels = self.inst.labels(k).iter().enumerate();
        labels
            .map(|(slot, &a)| {
                let w = self.window(k, slot, a);
                if untouched {
                    w.len() as u32
                } else {
                    self.fenwicks[a.index()].count_range(w.start, w.end)
                }
            })
            .sum()
    }

    /// Marks everything covered by picking `k`. Returns how many occurrences
    /// were newly covered.
    pub(crate) fn cover_by(&mut self, k: u32) -> u32 {
        let inst = self.inst;
        let mut newly = 0u32;
        for (slot, &a) in inst.labels(k).iter().enumerate() {
            let w = self.window(k, slot, a);
            newly += self.fenwicks[a.index()].clear_range(w.start, w.end);
        }
        self.remaining -= newly as usize;
        newly
    }

    /// The lazy greedy selection over a [`GainQueue`] of every post's
    /// current gain (highest gain, then smallest post index): pops the
    /// stalest-best entry, re-evaluates it, and picks it only if it is still
    /// at least as good as recorded (gains only shrink, so a revalidated top
    /// entry is the true maximum). Dominated posts are never queued.
    /// Appends the picks to `selected`.
    fn select_lazily(&mut self, threads: usize, selected: &mut Vec<u32>)
    where
        L: Sync,
    {
        let gains = match self.windows {
            // A post's windows' widths are its gain before any pick, and
            // after pins a bound on it from above, which is all a lazy
            // greedy needs.
            Some(_) => std::mem::take(&mut self.widths),
            None => {
                mqd_par::par_map_range_threads(threads, self.inst.len(), |k| self.gain(k as u32))
            }
        };
        let mut queue = GainQueue::new(&gains);
        while self.remaining > 0 {
            let Some((stale, k)) = queue.pop() else {
                break;
            };
            let fresh = self.gain(k);
            if fresh < stale {
                queue.refile(k, fresh);
                continue;
            }
            selected.push(k);
            self.cover_by(k);
        }
    }
}

/// GreedySC with implicit sets and lazy-evaluation selection (default).
/// Under a variable lambda the initial gain pass runs on the configured
/// thread count (see `mqd_par::configured_threads`); the output is
/// byte-identical to the sequential run regardless.
pub fn solve_greedy_sc<L: LambdaProvider + Sync + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    solve_greedy_sc_threads(mqd_par::configured_threads(), inst, lp)
}

/// [`solve_greedy_sc`] with an explicit thread count for the init pass.
pub fn solve_greedy_sc_threads<L: LambdaProvider + Sync + ?Sized>(
    threads: usize,
    inst: &Instance,
    lp: &L,
) -> Solution {
    let mut oracle = GainOracle::new(inst, lp);
    let mut selected = Vec::new();
    oracle.select_lazily(threads, &mut selected);
    Solution::new("GreedySC", selected)
}

/// Completes a partial selection into a full lambda-cover with minimum
/// additional greedy cost: the pinned posts are applied first, then the
/// lazy greedy fills the remaining uncovered occurrences. Useful when a
/// user pins posts they insist on seeing and the system fills the gaps.
/// Returns the combined solution (pins included).
///
/// ```
/// use mqd_core::{Instance, FixedLambda, coverage, algorithms::complete_cover};
/// let inst = Instance::from_values(
///     vec![(0, vec![0]), (10, vec![0]), (20, vec![0, 1]), (30, vec![1])], 2).unwrap();
/// let lam = FixedLambda(10);
/// // Pin the first post; the completion must still cover label 1.
/// let sol = complete_cover(&inst, &lam, &[0]);
/// assert!(sol.selected.contains(&0));
/// assert!(coverage::is_cover(&inst, &lam, &sol.selected));
/// ```
pub fn complete_cover<L: LambdaProvider + Sync + ?Sized>(
    inst: &Instance,
    lp: &L,
    pinned: &[u32],
) -> Solution {
    let mut oracle = GainOracle::new(inst, lp);
    let mut selected: Vec<u32> = Vec::new();
    for &p in pinned {
        assert!(
            (p as usize) < inst.len(),
            "pinned index {p} out of range ({} posts)",
            inst.len()
        );
        selected.push(p);
        oracle.cover_by(p);
    }
    oracle.select_lazily(mqd_par::configured_threads(), &mut selected);
    Solution::new("GreedySC+pins", selected)
}

/// GreedySC with implicit sets and the paper's scan-max selection
/// (Section 7.3). Same output as [`solve_greedy_sc`], slower rounds.
pub fn solve_greedy_sc_scan_max<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    let mut oracle = GainOracle::new(inst, lp);
    let mut selected = Vec::new();
    while oracle.remaining() > 0 {
        let mut best_gain = 0u32;
        let mut best_k = u32::MAX;
        for k in 0..inst.len() as u32 {
            let g = oracle.gain(k);
            if g > best_gain {
                best_gain = g;
                best_k = k;
            }
        }
        if best_gain == 0 {
            break;
        }
        selected.push(best_k);
        oracle.cover_by(best_k);
    }
    Solution::new("GreedySC", selected)
}

/// GreedySC materializing the sets `S_k` exactly as Algorithm 2 builds them,
/// then running generic greedy set cover. Memory `O(sum_k |S_k|)` — use only
/// on small instances (tests, tiny slices).
pub fn solve_greedy_sc_naive<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    let mut sets: Vec<Vec<u32>> = vec![Vec::new(); inst.len()];
    for (k, set) in sets.iter_mut().enumerate() {
        let k = k as u32;
        let t = inst.value(k);
        for &a in inst.labels(k) {
            let lam = lp.lambda(inst, k, a);
            if lam < 0 {
                continue;
            }
            for pos in inst.posting_window(a, t.saturating_sub(lam), t.saturating_add(lam)) {
                let p = inst.postings(a)[pos];
                set.push(inst.pair_id(p, a).expect("post taken from LP(a)"));
            }
        }
        set.sort_unstable();
        set.dedup();
    }
    let mut covered = BitSet::new(inst.num_pairs());
    let picked = greedy_cover(&sets, &mut covered);
    Solution::new("GreedySC", picked.into_iter().map(|k| k as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage;
    use crate::lambda::{FixedLambda, VariableLambda};

    fn figure2() -> Instance {
        Instance::from_values(
            vec![(0, vec![0]), (10, vec![0]), (20, vec![0, 1]), (30, vec![1])],
            2,
        )
        .unwrap()
    }

    #[test]
    fn figure2_greedy_finds_two_posts() {
        let inst = figure2();
        let f = FixedLambda(10);
        for sol in [
            solve_greedy_sc(&inst, &f),
            solve_greedy_sc_scan_max(&inst, &f),
            solve_greedy_sc_naive(&inst, &f),
        ] {
            assert!(coverage::is_cover(&inst, &f, &sol.selected));
            assert_eq!(sol.size(), 2, "greedy should match optimum here");
        }
    }

    #[test]
    fn all_three_variants_agree_exactly() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..25 {
            let n = 20 + (next() % 30) as usize;
            let labels = 2 + (next() % 3) as usize;
            let items: Vec<(i64, Vec<u16>)> = (0..n)
                .map(|_| {
                    let t = (next() % 500) as i64;
                    let mut ls = vec![(next() % labels as u64) as u16];
                    if next() % 3 == 0 {
                        ls.push((next() % labels as u64) as u16);
                    }
                    (t, ls)
                })
                .collect();
            let inst = Instance::from_values(items, labels).unwrap();
            let f = FixedLambda((next() % 40) as i64);
            let a = solve_greedy_sc(&inst, &f);
            let b = solve_greedy_sc_scan_max(&inst, &f);
            let c = solve_greedy_sc_naive(&inst, &f);
            assert_eq!(a.selected, b.selected, "trial {trial}: lazy vs scan-max");
            assert_eq!(a.selected, c.selected, "trial {trial}: lazy vs naive");
            assert!(coverage::is_cover(&inst, &f, &a.selected));
        }
    }

    #[test]
    fn parallel_init_is_byte_identical_across_thread_counts() {
        // Large enough to clear the mqd-par inline threshold so chunked
        // workers actually run.
        let items: Vec<(i64, Vec<u16>)> = (0..600)
            .map(|i| {
                let t = (i * 37 % 5_000) as i64;
                let l = (i % 7) as u16;
                if i % 4 == 0 {
                    (t, vec![l, ((i / 4) % 7) as u16])
                } else {
                    (t, vec![l])
                }
            })
            .collect();
        let inst = Instance::from_values(items, 7).unwrap();
        // Only the variable lambda fans the init pass out; the fixed one
        // must not care what it is told.
        let v = VariableLambda::compute(&inst, 60);
        let seq = solve_greedy_sc_threads(1, &inst, &v);
        let f = FixedLambda(60);
        let seq_fixed = solve_greedy_sc_threads(1, &inst, &f);
        for threads in [2, 3, 8] {
            let par = solve_greedy_sc_threads(threads, &inst, &v);
            assert_eq!(par.selected, seq.selected, "threads={threads}");
            let par = solve_greedy_sc_threads(threads, &inst, &f);
            assert_eq!(par.selected, seq_fixed.selected, "threads={threads}");
        }
        assert!(coverage::is_cover(&inst, &v, &seq.selected));
        assert!(coverage::is_cover(&inst, &f, &seq_fixed.selected));
    }

    #[test]
    fn greedy_prefers_high_overlap_posts() {
        // A post carrying both labels covers 5 occurrences; greedy must pick
        // it first and finish with a single post.
        let inst = Instance::from_values(
            vec![
                (0, vec![0]),
                (1, vec![1]),
                (2, vec![0, 1]),
                (3, vec![0]),
                (4, vec![1]),
            ],
            2,
        )
        .unwrap();
        let f = FixedLambda(2);
        let sol = solve_greedy_sc(&inst, &f);
        assert_eq!(sol.selected, vec![2]);
    }

    #[test]
    fn variable_lambda_cover_valid() {
        let mut items: Vec<(i64, Vec<u16>)> = (0..60).map(|t| (t * 5, vec![0])).collect();
        items.extend((0..10).map(|t| (t * 40, vec![1])));
        let inst = Instance::from_values(items, 2).unwrap();
        let v = VariableLambda::compute(&inst, 50);
        let sol = solve_greedy_sc(&inst, &v);
        assert!(coverage::is_cover(&inst, &v, &sol.selected));
    }

    #[test]
    fn complete_cover_respects_pins_and_covers() {
        let inst = figure2();
        let f = FixedLambda(10);
        // Pinning a suboptimal post still yields a valid cover containing it.
        let sol = complete_cover(&inst, &f, &[0]);
        assert!(sol.selected.contains(&0));
        assert!(coverage::is_cover(&inst, &f, &sol.selected));
        // Pinning an already-optimal pair adds nothing.
        let sol = complete_cover(&inst, &f, &[1, 3]);
        assert_eq!(sol.selected, vec![1, 3]);
        // No pins == plain greedy.
        assert_eq!(
            complete_cover(&inst, &f, &[]).selected,
            solve_greedy_sc(&inst, &f).selected
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn complete_cover_rejects_bad_pins() {
        let inst = figure2();
        complete_cover(&inst, &FixedLambda(1), &[99]);
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 1).unwrap();
        let f = FixedLambda(1);
        assert_eq!(solve_greedy_sc(&inst, &f).size(), 0);
        assert_eq!(solve_greedy_sc_scan_max(&inst, &f).size(), 0);
        assert_eq!(solve_greedy_sc_naive(&inst, &f).size(), 0);
    }

    #[test]
    fn lambda_zero_selects_representatives_per_timestamp() {
        let inst =
            Instance::from_values(vec![(5, vec![0]), (5, vec![0]), (7, vec![0])], 1).unwrap();
        let f = FixedLambda(0);
        let sol = solve_greedy_sc(&inst, &f);
        assert!(coverage::is_cover(&inst, &f, &sol.selected));
        assert_eq!(sol.size(), 2); // one per distinct timestamp
    }
}
