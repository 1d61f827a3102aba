//! Solvers for spatiotemporal MQDP.
//!
//! The problem generalizes MQDP (it reduces to it when all posts share one
//! location), so it is NP-hard too and we keep the same toolbox:
//!
//! * [`solve_geo_greedy`] — lazy-evaluation greedy set cover with gains
//!   enumerated on demand through the time-window/grid candidate index;
//!   inherits the `ln(universe)` bound.
//! * [`solve_geo_sweep`] — the Scan analogue: per label, sweep by time and
//!   repeatedly pick the coverer of the earliest uncovered occurrence with
//!   the furthest *time* reach. Unlike the 1-D case this is a heuristic,
//!   not per-label optimal: spatial freedom means interval greedy no longer
//!   dominates (documented, and measured in the `ext_geo` experiment).
//! * [`solve_geo_brute`] — branch-and-bound oracle for tests.

use mqd_core::{LabelId, Solution};
use mqd_setcover::{BitSet, GainQueue};

use crate::instance::GeoInstance;

/// Greedy set cover over the spatiotemporal coverage sets (lazy
/// evaluation over a [`GainQueue`]).
pub fn solve_geo_greedy(inst: &GeoInstance) -> Solution {
    let mut covered = BitSet::new(inst.num_pairs());
    let gain = |k: u32, covered: &BitSet| -> u32 {
        let mut g = 0u32;
        for &a in inst.post(k).labels() {
            for j in inst.candidates(k, a) {
                if inst.covers(k, j, a) {
                    let id = inst.pair_id(j, a).expect("candidate carries label");
                    if !covered.get(id) {
                        g += 1;
                    }
                }
            }
        }
        g
    };
    let cover_by = |k: u32, covered: &mut BitSet| {
        for &a in inst.post(k).labels() {
            for j in inst.candidates(k, a) {
                if inst.covers(k, j, a) {
                    let id = inst.pair_id(j, a).expect("candidate carries label");
                    covered.set(id);
                }
            }
        }
    };

    let gains: Vec<u32> = (0..inst.len() as u32).map(|k| gain(k, &covered)).collect();
    let mut queue = GainQueue::new(&gains);
    let mut selected = Vec::new();
    while covered.count_ones() < inst.num_pairs() {
        let Some((stale, k)) = queue.pop() else {
            break;
        };
        let fresh = gain(k, &covered);
        if fresh < stale {
            queue.refile(k, fresh);
            continue;
        }
        selected.push(k);
        cover_by(k, &mut covered);
    }
    Solution::new("GeoGreedy", selected)
}

/// Per-label time sweep (Scan analogue; heuristic in 2-D).
pub fn solve_geo_sweep(inst: &GeoInstance) -> Solution {
    let mut selected = Vec::new();
    for a_idx in 0..inst.num_labels() {
        let a = LabelId(a_idx as u16);
        let lp = inst.postings(a);
        let mut covered = vec![false; lp.len()];
        let mut j = 0usize;
        while j < lp.len() {
            if covered[j] {
                j += 1;
                continue;
            }
            let left = lp[j];
            // Among coverers of `left`, take the one reaching furthest in
            // time (ties: latest post index).
            let mut best: Option<(i64, u32)> = None;
            for z in inst.candidates(left, a) {
                if inst.covers(z, left, a) {
                    let reach = inst.post(z).time().saturating_add(inst.lambda().time);
                    if best.is_none_or(|(r, bz)| reach > r || (reach == r && z > bz)) {
                        best = Some((reach, z));
                    }
                }
            }
            let (_, z) = best.expect("a post covers itself");
            selected.push(z);
            // Mark what z covers within this label; the sweep pointer only
            // advances past *covered* posts, so spatial misses are revisited.
            for (pos, &p) in lp.iter().enumerate().skip(j) {
                if inst.post(p).time() > inst.post(z).time().saturating_add(inst.lambda().time) {
                    break;
                }
                if !covered[pos] && inst.covers(z, p, a) {
                    covered[pos] = true;
                }
            }
            while j < lp.len() && covered[j] {
                j += 1;
            }
        }
    }
    Solution::new("GeoSweep", selected)
}

/// Exact minimum cover by branch and bound (test oracle; caps at
/// `max_posts`, default 48).
pub fn solve_geo_brute(inst: &GeoInstance, max_posts: Option<usize>) -> Option<Solution> {
    let limit = max_posts.unwrap_or(48);
    if inst.len() > limit {
        return None;
    }
    // covers[k] = pair ids covered by picking k; coverers[e] = posts
    // covering pair e.
    let covers: Vec<Vec<u32>> = (0..inst.len() as u32)
        .map(|k| {
            let mut v = Vec::new();
            for &a in inst.post(k).labels() {
                for j in inst.candidates(k, a) {
                    if inst.covers(k, j, a) {
                        v.push(inst.pair_id(j, a).expect("candidate carries label"));
                    }
                }
            }
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut coverers: Vec<Vec<u32>> = vec![Vec::new(); inst.num_pairs()];
    for (k, pairs) in covers.iter().enumerate() {
        for &e in pairs {
            coverers[e as usize].push(k as u32);
        }
    }
    let max_set = covers.iter().map(|s| s.len()).max().unwrap_or(1).max(1);

    struct Ctx<'a> {
        covers: &'a [Vec<u32>],
        coverers: &'a [Vec<u32>],
        max_set: usize,
        best: Vec<u32>,
        best_size: usize,
    }
    fn search(ctx: &mut Ctx<'_>, covered: &BitSet, stack: &mut Vec<u32>) {
        let uncovered = covered.len() - covered.count_ones();
        if uncovered == 0 {
            if stack.len() < ctx.best_size {
                ctx.best_size = stack.len();
                ctx.best = stack.clone();
            }
            return;
        }
        if stack.len() + uncovered.div_ceil(ctx.max_set) >= ctx.best_size {
            return;
        }
        let e = covered
            .iter_zeros()
            .min_by_key(|&e| ctx.coverers[e as usize].len())
            .expect("uncovered > 0");
        let mut options: Vec<(usize, u32)> = ctx.coverers[e as usize]
            .iter()
            .map(|&k| {
                (
                    ctx.covers[k as usize]
                        .iter()
                        .filter(|&&p| !covered.get(p))
                        .count(),
                    k,
                )
            })
            .collect();
        options.sort_by(|a, b| b.cmp(a));
        for (_, k) in options {
            let mut next = covered.clone();
            for &p in &ctx.covers[k as usize] {
                next.set(p);
            }
            stack.push(k);
            search(ctx, &next, stack);
            stack.pop();
        }
    }

    let mut ctx = Ctx {
        covers: &covers,
        coverers: &coverers,
        max_set,
        best: (0..inst.len() as u32).collect(),
        best_size: inst.len() + 1,
    };
    search(&mut ctx, &BitSet::new(inst.num_pairs()), &mut Vec::new());
    Some(Solution::new("GeoBrute", ctx.best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{GeoLambda, GeoPost};
    use mqd_core::PostId;

    fn post(id: u64, t: i64, x: i64, y: i64, labels: &[u16]) -> GeoPost {
        GeoPost::new(
            PostId(id),
            t,
            x,
            y,
            labels.iter().map(|&l| LabelId(l)).collect(),
        )
    }

    fn hotspots() -> GeoInstance {
        // Two spatial hotspots reporting the same topic simultaneously:
        // time-only diversification would merge them; spatiotemporal must
        // keep one representative per hotspot.
        GeoInstance::new(
            vec![
                post(0, 0, 0, 0, &[0]),
                post(1, 1, 5, 5, &[0]),
                post(2, 2, 10_000, 0, &[0]),
                post(3, 3, 10_005, 5, &[0]),
            ],
            1,
            GeoLambda::new(100, 50),
        )
    }

    #[test]
    fn hotspots_need_two_representatives() {
        let g = hotspots();
        for sol in [
            solve_geo_greedy(&g),
            solve_geo_sweep(&g),
            solve_geo_brute(&g, None).unwrap(),
        ] {
            assert!(g.is_cover(&sol.selected), "{} non-cover", sol.algorithm);
            assert_eq!(sol.size(), 2, "{} size", sol.algorithm);
        }
    }

    #[test]
    fn degenerates_to_time_mqdp_when_colocated() {
        // All posts at one location: greedy must match the 1-D optimum.
        let g = GeoInstance::new(
            (0..10).map(|t| post(t, t as i64, 0, 0, &[0])).collect(),
            1,
            GeoLambda::new(2, 1),
        );
        let brute = solve_geo_brute(&g, None).unwrap();
        assert_eq!(brute.size(), 2); // same as the 1-D line test in mqd-core
        let sweep = solve_geo_sweep(&g);
        assert!(g.is_cover(&sweep.selected));
        assert_eq!(sweep.size(), 2);
    }

    #[test]
    fn greedy_and_sweep_bounded_by_brute_on_random() {
        use mqd_rng::rngs::StdRng;
        use mqd_rng::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let n = rng.random_range(4..12);
            let posts: Vec<GeoPost> = (0..n)
                .map(|i| {
                    post(
                        i,
                        rng.random_range(0..100),
                        rng.random_range(0..200),
                        rng.random_range(0..200),
                        &[rng.random_range(0..2) as u16],
                    )
                })
                .collect();
            let g = GeoInstance::new(posts, 2, GeoLambda::new(30, 60));
            let brute = solve_geo_brute(&g, None).unwrap();
            let greedy = solve_geo_greedy(&g);
            let sweep = solve_geo_sweep(&g);
            assert!(g.is_cover(&brute.selected));
            assert!(g.is_cover(&greedy.selected), "greedy non-cover");
            assert!(g.is_cover(&sweep.selected), "sweep non-cover");
            assert!(greedy.size() >= brute.size());
            assert!(sweep.size() >= brute.size());
        }
    }

    #[test]
    fn empty_instance() {
        let g = GeoInstance::new(Vec::new(), 1, GeoLambda::new(1, 1));
        assert_eq!(solve_geo_greedy(&g).size(), 0);
        assert_eq!(solve_geo_sweep(&g).size(), 0);
        assert_eq!(solve_geo_brute(&g, None).unwrap().size(), 0);
    }

    #[test]
    fn oversized_brute_returns_none() {
        let g = GeoInstance::new(
            (0..10).map(|t| post(t, t as i64, 0, 0, &[0])).collect(),
            1,
            GeoLambda::new(2, 1),
        );
        assert!(solve_geo_brute(&g, Some(5)).is_none());
    }
}
