//! Diversity thresholds: fixed lambda and the variable, density-dependent
//! lambda of Section 6 (proportional diversity).
//!
//! With a fixed lambda the coverage relation is symmetric. With the
//! post-specific lambda of Equation 2 it becomes *directional*: the lambda
//! of the **covering** post applies, so `P_i` may lambda-cover `a ∈ P_j`
//! while `P_j` does not lambda-cover `a ∈ P_i`. All algorithms in this crate
//! are written against the [`LambdaProvider`] trait so both regimes share
//! one implementation.

use crate::instance::Instance;
use crate::post::LabelId;

/// Supplies the threshold `lambda_a(P_i)` used when post `P_i` acts as the
/// *coverer* for label `a`.
pub trait LambdaProvider {
    /// Threshold for `coverer` on label `a`. Callers guarantee
    /// `a ∈ label(coverer)`.
    fn lambda(&self, inst: &Instance, coverer: u32, a: LabelId) -> i64;

    /// An upper bound on every lambda this provider can return; algorithms
    /// use it to size candidate windows.
    fn max_lambda(&self) -> i64;

    /// `Some(lambda)` when the threshold is one uniform constant; lets
    /// algorithms take symmetric-coverage fast paths.
    fn as_fixed(&self) -> Option<i64> {
        None
    }
}

/// The uniform threshold of Sections 2–5: every post covers `lambda` units
/// around itself on the diversity dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedLambda(pub i64);

impl LambdaProvider for FixedLambda {
    #[inline]
    fn lambda(&self, _inst: &Instance, _coverer: u32, _a: LabelId) -> i64 {
        self.0
    }

    #[inline]
    fn max_lambda(&self) -> i64 {
        self.0
    }

    #[inline]
    fn as_fixed(&self) -> Option<i64> {
        Some(self.0)
    }
}

/// The proportional-diversity threshold of Equation 2:
///
/// ```text
/// lambda_a(P_i) = lambda0 * e^(1 - density_a(t_i - lambda0, t_i + lambda0) / density0)
/// ```
///
/// where `density_a` is the rate of posts matching `a` around `P_i` and
/// `density0` is the average per-label rate over the whole instance. Dense
/// regions get a smaller lambda (more representatives survive), sparse
/// regions a larger one, and the exponential keeps rare perspectives
/// represented (Section 6's "smooth diversity formula").
///
/// All thresholds are precomputed per `(post, label)` pair at construction,
/// so lookups during the algorithms are O(1).
#[derive(Clone, Debug)]
pub struct VariableLambda {
    lambda0: i64,
    per_pair: Vec<i64>,
    max_lambda: i64,
}

impl VariableLambda {
    /// Precomputes Equation 2 for every `(post, label)` occurrence of the
    /// instance. `lambda0` is the domain-expert base threshold.
    ///
    /// Densities are measured in posts per dimension unit, and `density0` is
    /// the average over labels of `|LP(a)| / span`; the units cancel in the
    /// `density_a / density0` ratio, so the formula works unchanged for any
    /// diversity dimension (time in ms, scaled sentiment, ...).
    pub fn compute(inst: &Instance, lambda0: i64) -> Self {
        assert!(lambda0 >= 0, "lambda0 must be non-negative");
        let n = inst.len();
        let mut per_pair = vec![lambda0; inst.num_pairs()];
        let mut max_lambda = lambda0;
        if n == 0 || inst.num_pairs() == 0 {
            return VariableLambda {
                lambda0,
                per_pair,
                max_lambda,
            };
        }

        let span = ((inst.value(n as u32 - 1) as i128 - inst.value(0) as i128).max(1)) as f64;
        // Average number of matching posts a single label accumulates over a
        // window of length 2*lambda0.
        let avg_label_rate = inst.num_pairs() as f64 / (inst.num_labels().max(1) as f64 * span);
        // 2*lambda0 in f64: the i64 product overflows for lambda0 near
        // i64::MAX (multiplying by 2.0 is exact, so small lambdas are
        // unchanged).
        let expected_in_window = (avg_label_rate * 2.0 * lambda0 as f64).max(f64::MIN_POSITIVE);

        // Pair ids index both tables, so density window and threshold line up.
        for (lam, (lo, hi)) in per_pair.iter_mut().zip(inst.pair_windows(lambda0)) {
            let ratio = (hi - lo) as f64 / expected_in_window;
            let scaled = (lambda0 as f64 * (1.0 - ratio).exp()).round() as i64;
            *lam = scaled.clamp(0, saturating_e_times(lambda0));
            max_lambda = max_lambda.max(*lam);
        }
        VariableLambda {
            lambda0,
            per_pair,
            max_lambda,
        }
    }

    /// The base threshold `lambda0`.
    #[inline]
    pub fn lambda0(&self) -> i64 {
        self.lambda0
    }

    /// The precomputed thresholds, indexed by pair id.
    #[inline]
    pub fn per_pair(&self) -> &[i64] {
        &self.per_pair
    }
}

/// `ceil(lambda0 * e)` with saturation — the analytic maximum of Equation 2
/// (attained when the local density is zero).
fn saturating_e_times(lambda0: i64) -> i64 {
    let e = std::f64::consts::E;
    let v = lambda0 as f64 * e;
    if v >= i64::MAX as f64 {
        i64::MAX
    } else {
        v.ceil() as i64
    }
}

impl LambdaProvider for VariableLambda {
    #[inline]
    fn lambda(&self, inst: &Instance, coverer: u32, a: LabelId) -> i64 {
        match inst.pair_id(coverer, a) {
            Some(id) => self.per_pair[id as usize],
            // A post never covers a label it does not carry; make the
            // predicate unsatisfiable rather than panicking.
            None => -1,
        }
    }

    #[inline]
    fn max_lambda(&self) -> i64 {
        self.max_lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_lambda_is_uniform() {
        let inst = Instance::from_values(vec![(0, vec![0]), (10, vec![0])], 1).unwrap();
        let f = FixedLambda(7);
        assert_eq!(f.lambda(&inst, 0, LabelId(0)), 7);
        assert_eq!(f.max_lambda(), 7);
        assert_eq!(f.as_fixed(), Some(7));
    }

    #[test]
    fn variable_lambda_shrinks_in_dense_regions() {
        // Label 0: a burst of 50 posts around t=0..49, then one isolated post
        // at t=100000. The isolated post must get a larger lambda than the
        // burst posts.
        let mut items: Vec<(i64, Vec<u16>)> = (0..50).map(|t| (t as i64, vec![0])).collect();
        items.push((100_000, vec![0]));
        let inst = Instance::from_values(items, 1).unwrap();
        let v = VariableLambda::compute(&inst, 1000);
        let dense = v.lambda(&inst, 10, LabelId(0));
        let sparse = v.lambda(&inst, 50, LabelId(0));
        assert!(
            sparse > dense,
            "sparse lambda {sparse} should exceed dense lambda {dense}"
        );
        assert!(v.max_lambda() >= sparse);
        assert!(v.as_fixed().is_none());
    }

    #[test]
    fn variable_lambda_bounded_by_e_lambda0() {
        let inst = Instance::from_values(vec![(0, vec![0]), (1_000_000, vec![0])], 1).unwrap();
        let v = VariableLambda::compute(&inst, 60_000);
        for post in 0..2u32 {
            let lam = v.lambda(&inst, post, LabelId(0));
            assert!(lam <= (60_000.0 * std::f64::consts::E).ceil() as i64);
            assert!(lam >= 0);
        }
    }

    #[test]
    fn non_matching_label_cannot_cover() {
        let inst = Instance::from_values(vec![(0, vec![0]), (5, vec![1])], 2).unwrap();
        let v = VariableLambda::compute(&inst, 10);
        assert_eq!(v.lambda(&inst, 0, LabelId(1)), -1);
    }

    #[test]
    fn negative_sentinel_never_covers() {
        use crate::coverage::{covers, is_cover, violations};
        // Post 0 carries only label 0, post 1 only label 1, both at the
        // same value. The -1 sentinel for the missing (post, label) pair
        // must make every coverage predicate unsatisfiable — even at
        // distance 0, where a buggy `d <= lambda` with lambda = -1 could
        // only fail because -1 < 0, and any sign mix-up would flip it.
        let inst = Instance::from_values(vec![(5, vec![0]), (5, vec![1])], 2).unwrap();
        let v = VariableLambda::compute(&inst, 10);
        assert_eq!(v.lambda(&inst, 0, LabelId(1)), -1);
        assert_eq!(v.lambda(&inst, 1, LabelId(0)), -1);
        assert!(!covers(&inst, &v, 0, 1, LabelId(1)));
        assert!(!covers(&inst, &v, 1, 0, LabelId(0)));
        // Neither post alone covers the other's label occurrence.
        assert!(!is_cover(&inst, &v, &[0]));
        assert!(!is_cover(&inst, &v, &[1]));
        assert_eq!(violations(&inst, &v, &[0]).len(), 1);
        assert!(is_cover(&inst, &v, &[0, 1]));
        // max_lambda (used for window pruning) ignores the sentinel: it
        // must stay an upper bound on the *real* thresholds, not -1.
        assert!(v.max_lambda() >= 0);
    }

    #[test]
    fn every_solver_respects_negative_sentinel() {
        use crate::algorithms::{solve_greedy_sc, solve_scan, solve_scan_plus, LabelOrder};
        use crate::coverage::is_cover;
        // Interleaved single-label posts at identical values: any solver
        // that ever lets a post cover a label it does not carry would
        // return a 1-post "cover" here. The correct answer needs both
        // labels represented.
        let inst = Instance::from_values(
            vec![(0, vec![0]), (0, vec![1]), (1, vec![0]), (1, vec![1])],
            2,
        )
        .unwrap();
        let v = VariableLambda::compute(&inst, 3);
        for sol in [
            solve_greedy_sc(&inst, &v),
            solve_scan(&inst, &v),
            solve_scan_plus(&inst, &v, LabelOrder::Input),
        ] {
            assert!(is_cover(&inst, &v, &sol.selected), "{}", sol.algorithm);
            let has = |a: u16| {
                sol.selected
                    .iter()
                    .any(|&z| inst.post(z).has_label(LabelId(a)))
            };
            assert!(has(0) && has(1), "{} must pick both labels", sol.algorithm);
        }
    }

    #[test]
    fn empty_instance_ok() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 2).unwrap();
        let v = VariableLambda::compute(&inst, 10);
        assert_eq!(v.max_lambda(), 10);
    }
}
