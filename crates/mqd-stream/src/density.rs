//! Online proportional diversity: Section 6's Equation 2 estimated from
//! the stream itself.
//!
//! Offline, `VariableLambda` precomputes `lambda_a(P_i)` from the full
//! dataset. A streaming system only knows the past, so [`OnlineLambda`]
//! estimates the density terms over a trailing window of length
//! `2*lambda0` per label, and the average per-label rate `density0` from
//! the whole prefix — both updated in O(1) amortized per post. The
//! [`AdaptiveInstant`] engine plugs the estimate into the instant-output
//! rule: every emitted post freezes the lambda that was current at emission
//! (the coverer's lambda, keeping the directional semantics of Section 6).

use std::collections::VecDeque;

use mqd_core::LabelId;

/// Sliding-window density estimator implementing Equation 2 online.
#[derive(Debug)]
pub struct OnlineLambda {
    lambda0: i64,
    /// Trailing window length (`2 * lambda0`).
    window: i64,
    /// Recent post times per label, pruned to the trailing window.
    recent: Vec<VecDeque<i64>>,
    /// Total label occurrences observed.
    total_pairs: u64,
    first_time: Option<i64>,
    last_time: i64,
}

impl OnlineLambda {
    /// Creates an estimator for `num_labels` labels with base threshold
    /// `lambda0 > 0`.
    pub fn new(num_labels: usize, lambda0: i64) -> Self {
        assert!(lambda0 > 0, "lambda0 must be positive");
        OnlineLambda {
            lambda0,
            window: lambda0.saturating_mul(2),
            recent: vec![VecDeque::new(); num_labels],
            total_pairs: 0,
            first_time: None,
            last_time: i64::MIN,
        }
    }

    /// The base threshold.
    pub fn lambda0(&self) -> i64 {
        self.lambda0
    }

    /// Records a post (non-decreasing times).
    pub fn observe(&mut self, time: i64, labels: &[LabelId]) {
        debug_assert!(time >= self.last_time, "stream must be time-ordered");
        self.first_time.get_or_insert(time);
        self.last_time = time;
        for &a in labels {
            let q = &mut self.recent[a.index()];
            q.push_back(time);
            while q.front().is_some_and(|&t| t < time - self.window) {
                q.pop_front();
            }
            self.total_pairs += 1;
        }
    }

    /// Current Equation-2 estimate for label `a` at the stream head:
    /// `lambda0 * e^(1 - density_a / density0)`, clamped to
    /// `[0, ceil(e * lambda0)]`. Returns `lambda0` until enough stream has
    /// elapsed to estimate `density0`.
    pub fn lambda_for(&self, a: LabelId) -> i64 {
        let Some(first) = self.first_time else {
            return self.lambda0;
        };
        let elapsed = (self.last_time - first).max(1);
        if elapsed < self.window {
            // Not enough history for a stable baseline.
            return self.lambda0;
        }
        let density0 = self.total_pairs as f64 / (self.recent.len().max(1) as f64 * elapsed as f64);
        let expected = (density0 * self.window as f64).max(f64::MIN_POSITIVE);
        // Prune lazily on read too, in case this label went quiet.
        let q = &self.recent[a.index()];
        let live = q
            .iter()
            .rev()
            .take_while(|&&t| t >= self.last_time - self.window)
            .count();
        let ratio = live as f64 / expected;
        let cap = (self.lambda0 as f64 * std::f64::consts::E).ceil() as i64;
        ((self.lambda0 as f64 * (1.0 - ratio).exp()).round() as i64).clamp(0, cap)
    }
}

/// Instant-output diversification with the online proportional lambda: a
/// post is emitted iff some of its labels has no previous emission within
/// that emission's frozen lambda.
#[derive(Debug)]
pub struct AdaptiveInstant {
    density: OnlineLambda,
    /// Per label: time and frozen lambda of the latest emission.
    cache: Vec<Option<(i64, i64)>>,
}

impl AdaptiveInstant {
    /// Creates the engine.
    pub fn new(num_labels: usize, lambda0: i64) -> Self {
        AdaptiveInstant {
            density: OnlineLambda::new(num_labels, lambda0),
            cache: vec![None; num_labels],
        }
    }

    /// Processes one post; returns whether it is emitted into the digest.
    pub fn on_post(&mut self, time: i64, labels: &[LabelId]) -> bool {
        self.density.observe(time, labels);
        let uncovered = labels.iter().any(|&a| {
            self.cache[a.index()]
                .is_none_or(|(t_lc, lam)| time as i128 - t_lc as i128 > lam as i128)
        });
        if uncovered {
            for &a in labels {
                let lam = self.density.lambda_for(a);
                self.cache[a.index()] = Some((time, lam));
            }
        }
        uncovered
    }
}

/// [`AdaptiveInstant`] as a [`StreamEngine`], so it plugs into
/// [`crate::run_stream`] and the CLI. It ignores the context's
/// `LambdaProvider` (it derives its own thresholds from `lambda0`), and
/// its output is **guaranteed** to be a lambda-cover for the fixed
/// threshold `ceil(e * lambda0)` — Equation 2's analytic maximum: every
/// suppressed occurrence was within its coverer's frozen lambda, which
/// never exceeds that cap; every other post covers itself.
pub struct AdaptiveEngine {
    inner: AdaptiveInstant,
}

impl AdaptiveEngine {
    /// Creates the engine with base threshold `lambda0 > 0`.
    pub fn new(num_labels: usize, lambda0: i64) -> Self {
        AdaptiveEngine {
            inner: AdaptiveInstant::new(num_labels, lambda0),
        }
    }

    /// The cover guarantee of this engine's output: `ceil(e * lambda0)`.
    pub fn cover_lambda(lambda0: i64) -> i64 {
        (lambda0 as f64 * std::f64::consts::E).ceil() as i64
    }
}

impl crate::engine::StreamEngine for AdaptiveEngine {
    fn name(&self) -> &'static str {
        "AdaptiveInstant"
    }

    fn on_time(
        &mut self,
        _ctx: &crate::engine::StreamContext<'_>,
        _now: i64,
        _out: &mut Vec<crate::engine::Emission>,
    ) {
    }

    fn on_arrival(
        &mut self,
        ctx: &crate::engine::StreamContext<'_>,
        post: u32,
        out: &mut Vec<crate::engine::Emission>,
    ) {
        let time = ctx.inst.value(post);
        if self.inner.on_post(time, ctx.inst.labels(post)) {
            out.push(crate::engine::Emission {
                post,
                emit_time: time,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L0: LabelId = LabelId(0);
    const L1: LabelId = LabelId(1);

    #[test]
    fn warmup_returns_lambda0() {
        let mut d = OnlineLambda::new(2, 100);
        assert_eq!(d.lambda_for(L0), 100);
        d.observe(0, &[L0]);
        d.observe(50, &[L0]);
        assert_eq!(d.lambda_for(L0), 100, "within warmup window");
    }

    #[test]
    fn dense_label_gets_smaller_lambda_than_sparse() {
        let mut d = OnlineLambda::new(2, 100);
        // Label 0 posts every 10 units, label 1 every 200.
        for t in (0..2_000).step_by(10) {
            d.observe(t, &[L0]);
            if t % 200 == 0 {
                d.observe(t, &[L1]);
            }
        }
        let dense = d.lambda_for(L0);
        let sparse = d.lambda_for(L1);
        assert!(
            dense < sparse,
            "dense {dense} should be below sparse {sparse}"
        );
        let cap = (100.0 * std::f64::consts::E).ceil() as i64;
        assert!(sparse <= cap);
    }

    #[test]
    fn burst_shrinks_lambda_then_recovers() {
        let mut d = OnlineLambda::new(1, 100);
        // Steady phase.
        for t in (0..5_000).step_by(100) {
            d.observe(t, &[L0]);
        }
        let steady = d.lambda_for(L0);
        // Burst: 10x rate.
        for t in (5_000..5_600).step_by(10) {
            d.observe(t, &[L0]);
        }
        let burst = d.lambda_for(L0);
        assert!(burst < steady, "burst {burst} vs steady {steady}");
        // Quiet again: the trailing window empties out.
        d.observe(7_000, &[L0]);
        let after = d.lambda_for(L0);
        assert!(after > burst, "after {after} vs burst {burst}");
    }

    #[test]
    fn adaptive_instant_emits_more_during_bursts() {
        // Fixed instant with lambda0 emits ~1 per lambda0 regardless of
        // rate; the adaptive engine shrinks lambda inside the burst and
        // keeps more of it.
        let lambda0 = 1_000i64;
        let mut adaptive = AdaptiveInstant::new(1, lambda0);
        let mut fixed_last: Option<i64> = None;
        let mut fixed_kept = 0usize;
        let mut adaptive_kept_burst = 0usize;
        let mut fixed_kept_burst = 0usize;

        let feed = |t: i64,
                    adaptive: &mut AdaptiveInstant,
                    in_burst: bool,
                    fk: &mut usize,
                    ak: &mut usize,
                    fixed_last: &mut Option<i64>,
                    fixed_kept: &mut usize| {
            if adaptive.on_post(t, &[L0]) && in_burst {
                *ak += 1;
            }
            if fixed_last.is_none_or(|lt| t - lt > lambda0) {
                *fixed_last = Some(t);
                *fixed_kept += 1;
                if in_burst {
                    *fk += 1;
                }
            }
        };
        // Warm-up + steady traffic: one post per 500.
        for t in (0..20_000).step_by(500) {
            feed(
                t,
                &mut adaptive,
                false,
                &mut fixed_kept_burst,
                &mut adaptive_kept_burst,
                &mut fixed_last,
                &mut fixed_kept,
            );
        }
        // A hot burst: one post per 20 over 4000 units.
        for t in (20_000..24_000).step_by(20) {
            feed(
                t,
                &mut adaptive,
                true,
                &mut fixed_kept_burst,
                &mut adaptive_kept_burst,
                &mut fixed_last,
                &mut fixed_kept,
            );
        }
        assert!(
            adaptive_kept_burst > fixed_kept_burst,
            "adaptive {adaptive_kept_burst} should keep more burst posts than fixed {fixed_kept_burst}"
        );
    }

    #[test]
    fn adaptive_instant_always_emits_first_post() {
        let mut eng = AdaptiveInstant::new(2, 50);
        assert!(eng.on_post(0, &[L0, L1]));
        assert!(!eng.on_post(1, &[L0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda0_rejected() {
        OnlineLambda::new(1, 0);
    }

    #[test]
    fn adaptive_engine_covers_at_e_lambda0() {
        use crate::simulator::run_stream;
        use mqd_core::{FixedLambda, Instance};
        // Mixed steady + burst stream over two labels.
        let mut items: Vec<(i64, Vec<u16>)> = Vec::new();
        for t in (0..60_000i64).step_by(997) {
            items.push((t, vec![(t % 2) as u16]));
        }
        for t in (20_000..24_000i64).step_by(53) {
            items.push((t, vec![0]));
        }
        let inst = Instance::from_values(items, 2).unwrap();
        let lambda0 = 2_000i64;
        let mut eng = AdaptiveEngine::new(2, lambda0);
        // The provider passed in is irrelevant to the engine's decisions.
        let res = run_stream(&inst, &FixedLambda(lambda0), 0, &mut eng);
        assert_eq!(res.max_delay, 0);
        let cap = FixedLambda(AdaptiveEngine::cover_lambda(lambda0));
        assert!(
            res.is_cover(&inst, &cap),
            "adaptive output must cover at ceil(e*lambda0)"
        );
        assert!(res.size() < inst.len());
    }
}
