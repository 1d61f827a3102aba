//! StreamGreedySC and StreamGreedySC+ (Section 5.2, delayed output).
//!
//! Let `P'` be the oldest post with an uncovered label occurrence. The
//! engine waits until `time(P') + tau`, gathers the window
//! `Z = {posts with time in [time(P'), time(P') + tau]}` from its buffer,
//! and runs greedy set cover over the *uncovered* occurrences of `Z`,
//! selecting posts from `Z` until:
//!
//! * **base variant**: every occurrence in `Z` is covered;
//! * **`+` variant**: `P'` itself is covered — the rest of the window keeps
//!   accumulating context for the next round (Section 5.2's
//!   StreamGreedySC+).
//!
//! Selected posts are emitted at the window deadline; their timestamps are
//! at least `time(P')`, so the delay constraint `<= tau` holds by
//! construction. Everything an emission covers — inside and beyond the
//! window — is pruned from the buffer.

use std::collections::VecDeque;

use mqd_core::{coverage, LabelId};
use mqd_setcover::{GainQueue, PresenceFenwick};

use crate::engine::{Emission, EngineSnapshot, StreamContext, StreamEngine};

/// A buffered post with its still-uncovered labels.
#[derive(Clone, Debug)]
struct PendingPost {
    post: u32,
    uncovered: Vec<LabelId>,
}

/// StreamGreedySC / StreamGreedySC+ engine.
pub struct StreamGreedy {
    plus: bool,
    /// Uncovered posts, in arrival (= timestamp) order.
    buffer: VecDeque<PendingPost>,
    /// Emitted posts per label, kept sorted by post timestamp (greedy pick
    /// order inside a window is not time order, so inserts use binary
    /// search); the arrival-time coverage check scans a suffix of this.
    emitted_per_label: Vec<Vec<u32>>,
    /// Posts already emitted (dedup guard).
    emitted: Vec<bool>,
}

impl StreamGreedy {
    /// Base StreamGreedySC: each window round covers the whole window.
    pub fn new(num_labels: usize, num_posts: usize) -> Self {
        StreamGreedy {
            plus: false,
            buffer: VecDeque::new(),
            emitted_per_label: vec![Vec::new(); num_labels],
            emitted: vec![false; num_posts],
        }
    }

    /// StreamGreedySC+: each round stops as soon as the oldest uncovered
    /// post is covered.
    pub fn new_plus(num_labels: usize, num_posts: usize) -> Self {
        StreamGreedy {
            plus: true,
            ..Self::new(num_labels, num_posts)
        }
    }

    fn deadline(&self, ctx: &StreamContext<'_>) -> Option<i64> {
        self.buffer
            .front()
            .map(|p| ctx.inst.value(p.post).saturating_add(ctx.tau))
    }

    /// Whether an already-emitted post covers `a ∈ post`.
    fn covered_by_emitted(&self, ctx: &StreamContext<'_>, post: u32, a: LabelId) -> bool {
        let t = ctx.inst.value(post);
        let max_l = ctx.lambda.max_lambda();
        self.emitted_per_label[a.index()]
            .iter()
            .rev()
            .take_while(|&&z| ctx.inst.value(z) >= t.saturating_sub(max_l))
            .any(|&z| coverage::covers(ctx.inst, ctx.lambda, z, post, a))
    }

    /// Run one window round ending at `deadline`; returns emitted posts.
    ///
    /// Greedy set cover over the window's uncovered occurrences, with the
    /// window posts as candidate sets. Gains are counted with one
    /// [`PresenceFenwick`] per label over the window's uncovered-occurrence
    /// lists (`O(s log W)` per evaluation, for the window searches) and
    /// selection is lazy evaluation over a [`GainQueue`] — the same
    /// implicit-greedy machinery as the offline `solve_greedy_sc`, which
    /// keeps day-scale streams with large tau windows tractable. Ties break
    /// toward the earliest window post, matching the naive scan-max
    /// selection exactly.
    fn run_window(&mut self, ctx: &StreamContext<'_>, deadline: i64, out: &mut Vec<Emission>) {
        let inst = ctx.inst;
        // The window: buffered posts with timestamp <= deadline (the buffer
        // is timestamp-ordered and its front defines the deadline).
        let window_len = self
            .buffer
            .iter()
            .take_while(|p| inst.value(p.post) <= deadline)
            .count();
        if window_len == 0 {
            return;
        }

        let times: Vec<i64> = self
            .buffer
            .iter()
            .take(window_len)
            .map(|p| inst.value(p.post))
            .collect();
        // Per label: window positions whose occurrence of that label is
        // still uncovered, in time order.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); inst.num_labels()];
        for (bi, p) in self.buffer.iter().take(window_len).enumerate() {
            for &a in &p.uncovered {
                lists[a.index()].push(bi as u32);
            }
        }
        let mut fens: Vec<PresenceFenwick> = lists
            .iter()
            .map(|l| PresenceFenwick::all_present(l.len()))
            .collect();
        let mut remaining: usize = lists.iter().map(|l| l.len()).sum();
        // lint:allow(panic-path): run_window is only entered when deadline() returned Some, which requires a non-empty buffer
        let mut front_remaining = self.buffer[0].uncovered.len();

        let list_range = |lists: &[Vec<u32>], a: usize, lo_t: i64, hi_t: i64| {
            let l = &lists[a];
            let lo = l.partition_point(|&bi| times[bi as usize] < lo_t);
            let hi = l.partition_point(|&bi| times[bi as usize] <= hi_t);
            lo..hi
        };
        let gain = |pos: usize, fens: &[PresenceFenwick]| -> u32 {
            let post = self.buffer[pos].post;
            let t = times[pos];
            let mut g = 0;
            for &a in inst.labels(post) {
                let lam = ctx.lambda.lambda(inst, post, a);
                if lam < 0 {
                    continue;
                }
                let r = list_range(
                    &lists,
                    a.index(),
                    t.saturating_sub(lam),
                    t.saturating_add(lam),
                );
                g += fens[a.index()].count_range(r.start, r.end);
            }
            g
        };

        let gains: Vec<u32> = (0..window_len).map(|pos| gain(pos, &fens)).collect();
        let mut queue = GainQueue::new(&gains);
        let mut picked: Vec<u32> = Vec::new();
        loop {
            let done = if self.plus {
                front_remaining == 0
            } else {
                remaining == 0
            };
            if done {
                break;
            }
            let Some((stale, pos)) = queue.pop() else {
                break;
            };
            let fresh = gain(pos as usize, &fens);
            if fresh < stale {
                queue.refile(pos, fresh);
                continue;
            }
            let z = self.buffer[pos as usize].post;
            picked.push(z);
            // Mark everything z covers inside the window.
            let t = times[pos as usize];
            for &a in inst.labels(z) {
                let lam = ctx.lambda.lambda(inst, z, a);
                if lam < 0 {
                    continue;
                }
                let r = list_range(
                    &lists,
                    a.index(),
                    t.saturating_sub(lam),
                    t.saturating_add(lam),
                );
                let fen = &mut fens[a.index()];
                // The front post's occurrence, if uncovered, heads its list.
                if r.contains(&0) && lists[a.index()].first() == Some(&0) && fen.is_present(0) {
                    front_remaining -= 1;
                }
                remaining -= fen.clear_range(r.start, r.end) as usize;
            }
        }

        // Emit picks and propagate coverage across the whole buffer (the
        // buffer is time-ordered, so each emission touches one time range).
        let buf_times: Vec<i64> = self.buffer.iter().map(|p| inst.value(p.post)).collect();
        for z in picked {
            if !std::mem::replace(&mut self.emitted[z as usize], true) {
                out.push(Emission {
                    post: z,
                    emit_time: deadline,
                });
            }
            let t = inst.value(z);
            for &a in inst.labels(z) {
                let list = &mut self.emitted_per_label[a.index()];
                let pos = list.partition_point(|&q| inst.value(q) <= t);
                list.insert(pos, z);
                let lam = ctx.lambda.lambda(inst, z, a);
                if lam < 0 {
                    continue;
                }
                let lo = buf_times.partition_point(|&bt| bt < t.saturating_sub(lam));
                let hi = buf_times.partition_point(|&bt| bt <= t.saturating_add(lam));
                for i in lo..hi {
                    self.buffer[i].uncovered.retain(|&b| b != a);
                }
            }
        }
        self.buffer.retain(|p| !p.uncovered.is_empty());
    }
}

impl StreamEngine for StreamGreedy {
    fn name(&self) -> &'static str {
        if self.plus {
            "StreamGreedySC+"
        } else {
            "StreamGreedySC"
        }
    }

    fn on_time(&mut self, ctx: &StreamContext<'_>, now: i64, out: &mut Vec<Emission>) {
        while let Some(d) = self.deadline(ctx) {
            if d > now {
                break;
            }
            self.run_window(ctx, d, out);
        }
    }

    fn on_arrival(&mut self, ctx: &StreamContext<'_>, post: u32, out: &mut Vec<Emission>) {
        let _ = out;
        let uncovered: Vec<LabelId> = ctx
            .inst
            .labels(post)
            .iter()
            .copied()
            .filter(|&a| !self.covered_by_emitted(ctx, post, a))
            .collect();
        if !uncovered.is_empty() {
            self.buffer.push_back(PendingPost { post, uncovered });
        }
    }

    fn snapshot(&self) -> Option<EngineSnapshot> {
        Some(EngineSnapshot {
            emitted_per_label: self.emitted_per_label.clone(),
            pending: self
                .buffer
                .iter()
                .map(|p| {
                    (
                        p.post,
                        p.uncovered.iter().map(|a| a.index() as u16).collect(),
                    )
                })
                .collect(),
            emitted: self
                .emitted
                .iter()
                .enumerate()
                .filter(|(_, &e)| e)
                .map(|(i, _)| i as u32)
                .collect(),
        })
    }

    fn restore(&mut self, ctx: &StreamContext<'_>, snap: &EngineSnapshot) -> bool {
        let _ = ctx;
        for list in &mut self.emitted_per_label {
            list.clear();
        }
        for (a, list) in snap.emitted_per_label.iter().enumerate() {
            if a < self.emitted_per_label.len() {
                self.emitted_per_label[a] = list.clone();
            }
        }
        self.emitted.iter_mut().for_each(|e| *e = false);
        for &p in &snap.emitted {
            if let Some(slot) = self.emitted.get_mut(p as usize) {
                *slot = true;
            }
        }
        self.buffer.clear();
        for (post, labels) in &snap.pending {
            self.buffer.push_back(PendingPost {
                post: *post,
                uncovered: labels.iter().map(|&a| LabelId(a)).collect(),
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::run_stream;
    use mqd_core::{FixedLambda, Instance};

    fn two_label_instance() -> Instance {
        Instance::from_values(
            vec![
                (0, vec![0]),
                (2, vec![0, 1]),
                (4, vec![1]),
                (30, vec![0]),
                (31, vec![1]),
                (33, vec![0, 1]),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn produces_valid_cover_within_delay() {
        let inst = two_label_instance();
        let f = FixedLambda(5);
        for tau in [0i64, 2, 5, 10] {
            for plus in [false, true] {
                let mut eng = if plus {
                    StreamGreedy::new_plus(2, inst.len())
                } else {
                    StreamGreedy::new(2, inst.len())
                };
                let res = run_stream(&inst, &f, tau, &mut eng);
                assert!(
                    coverage::is_cover(&inst, &f, &res.selected),
                    "non-cover for tau={tau} plus={plus}: {:?}",
                    res.selected
                );
                assert!(res.max_delay <= tau.max(0));
            }
        }
    }

    #[test]
    fn window_greedy_prefers_overlapping_posts() {
        // Within one window the two-label post covers 4 occurrences; greedy
        // must pick it alone.
        let inst =
            Instance::from_values(vec![(0, vec![0]), (1, vec![0, 1]), (2, vec![1])], 2).unwrap();
        let f = FixedLambda(5);
        let mut eng = StreamGreedy::new(2, inst.len());
        let res = run_stream(&inst, &f, 5, &mut eng);
        assert_eq!(res.selected, vec![1]);
    }

    #[test]
    fn plus_defers_rest_of_window() {
        // Both variants still cover everything; the + variant may emit in
        // later rounds but never loses posts.
        let inst = two_label_instance();
        let f = FixedLambda(3);
        let mut eng = StreamGreedy::new_plus(2, inst.len());
        let res = run_stream(&inst, &f, 4, &mut eng);
        assert!(coverage::is_cover(&inst, &f, &res.selected));
    }

    #[test]
    fn arrivals_covered_by_past_emissions_are_dropped() {
        let inst = Instance::from_values(
            vec![(0, vec![0]), (1, vec![0]), (2, vec![0]), (3, vec![0])],
            1,
        )
        .unwrap();
        let f = FixedLambda(10);
        let mut eng = StreamGreedy::new(1, inst.len());
        let res = run_stream(&inst, &f, 1, &mut eng);
        assert!(coverage::is_cover(&inst, &f, &res.selected));
        assert_eq!(res.selected.len(), 1, "one emission covers the burst");
    }

    #[test]
    fn out_of_time_order_picks_still_cover_later_arrivals() {
        // Regression: inside one window greedy may pick a late post before
        // an early one; the emitted-post lists must stay time-sorted or the
        // arrival coverage check misses the late coverer and re-emits.
        // Window [0,100]: greedy picks p2@95 (gain 2) before p0/p1; the
        // arrival at t=110 is covered by p2 and must NOT be emitted.
        let inst = Instance::from_values(
            vec![(0, vec![0]), (5, vec![1]), (95, vec![0, 1]), (110, vec![0])],
            2,
        )
        .unwrap();
        let f = FixedLambda(30);
        let mut eng = StreamGreedy::new(2, inst.len());
        let res = run_stream(&inst, &f, 100, &mut eng);
        assert!(coverage::is_cover(&inst, &f, &res.selected));
        assert_eq!(
            res.selected,
            vec![0, 1, 2],
            "the t=110 arrival is covered by the t=95 emission"
        );
    }

    #[test]
    fn empty_stream() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 1).unwrap();
        let f = FixedLambda(1);
        let mut eng = StreamGreedy::new(1, 0);
        let res = run_stream(&inst, &f, 5, &mut eng);
        assert!(res.selected.is_empty());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let inst = two_label_instance();
        let f = FixedLambda(5);
        let tau = 4;
        let ctx = StreamContext::new(&inst, &f, tau);
        for plus in [false, true] {
            let mk = || {
                if plus {
                    StreamGreedy::new_plus(2, inst.len())
                } else {
                    StreamGreedy::new(2, inst.len())
                }
            };
            let mut base = mk();
            let full = run_stream(&inst, &f, tau, &mut base);
            for cut in 0..inst.len() {
                let mut eng = mk();
                let mut out = Vec::new();
                for p in 0..cut as u32 {
                    let t = inst.value(p);
                    eng.on_time(&ctx, t.saturating_sub(1), &mut out);
                    eng.on_arrival(&ctx, p, &mut out);
                }
                let snap = eng.snapshot().expect("greedy supports snapshots");
                let mut restored = mk();
                assert!(restored.restore(&ctx, &snap));
                for p in cut as u32..inst.len() as u32 {
                    let t = inst.value(p);
                    restored.on_time(&ctx, t.saturating_sub(1), &mut out);
                    restored.on_arrival(&ctx, p, &mut out);
                }
                restored.flush(&ctx, &mut out);
                assert_eq!(out, full.emissions, "plus={plus} cut={cut}");
            }
        }
    }
}
