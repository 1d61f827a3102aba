//! Answering a [`QuerySpec`] against a [`Store`].
//!
//! [`run_query`] is the reference: carve the [`crate::Slice`] for the
//! spec's labels and range, run the requested solver, and map the selected
//! posts back to external [`Record`]s. The CLI, the oracle's agreement
//! checks and the router's merged re-solve answer through it, and every
//! other path is held to its bytes.
//!
//! The server answers a cold query through [`answer_cold`]. A fixed-λ
//! Scan+ and a fixed-λ Scan whose range closed below the newest row are
//! per-label interval greedies, which it runs by walking each label's
//! postings in the store, with no slice; an open fixed-λ Scan answers
//! from the fold it keeps for repair; everything else solves the slice as
//! [`run_query`] does. A router `COVER` half ([`run_query_cover`]) walks
//! the postings too.

use std::sync::RwLock;

use mqd_core::algorithms::{
    solve_greedy_sc, solve_opt, solve_scan, solve_scan_plus, LabelOrder, OptConfig,
};
use mqd_core::record::Record;
use mqd_core::{FixedLambda, MqdError, VariableLambda};
use mqd_stream::CoverRepair;

use crate::store::{Slice, Store};

/// Which solver answers the query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// Exact DP (Section 4.1); fixed lambda only, may exceed its budget.
    Opt,
    /// Greedy set cover (Section 4.2).
    GreedySc,
    /// Per-label optimal scan (Section 4.3).
    Scan,
    /// Scan with cross-label pruning (Section 4.3).
    ScanPlus,
}

impl Algorithm {
    /// The wire name, as accepted by [`Algorithm::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Opt => "opt",
            Algorithm::GreedySc => "greedysc",
            Algorithm::Scan => "scan",
            Algorithm::ScanPlus => "scanplus",
        }
    }

    /// Parses a wire name; unknown names are typed [`MqdError::Protocol`]
    /// errors.
    pub fn parse(s: &str) -> Result<Self, MqdError> {
        match s {
            "opt" => Ok(Algorithm::Opt),
            "greedysc" => Ok(Algorithm::GreedySc),
            "scan" => Ok(Algorithm::Scan),
            "scanplus" => Ok(Algorithm::ScanPlus),
            other => Err(MqdError::protocol(format!(
                "unknown algorithm '{other}' (want opt|greedysc|scan|scanplus)"
            ))),
        }
    }

    /// All four algorithms, in wire-name order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Opt,
        Algorithm::GreedySc,
        Algorithm::Scan,
        Algorithm::ScanPlus,
    ];
}

/// One fully-specified query against a [`Store`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QuerySpec {
    /// Global label ids the user subscribed to.
    pub labels: Vec<u16>,
    /// Threshold (fixed lambda, or `lambda0` when `proportional`).
    pub lambda: i64,
    /// Use the variable, density-proportional lambda of Section 6.
    pub proportional: bool,
    /// Solver choice.
    pub algorithm: Algorithm,
    /// Inclusive lower bound on the dimension value.
    pub from: i64,
    /// Inclusive upper bound on the dimension value.
    pub to: i64,
}

/// Validates a spec without touching the store: lambda must be
/// non-negative, at least one label, and Opt rejects proportional mode.
pub fn validate_spec(spec: &QuerySpec) -> Result<(), MqdError> {
    if spec.lambda < 0 {
        return Err(MqdError::NegativeLambda(spec.lambda));
    }
    if spec.labels.is_empty() {
        return Err(MqdError::protocol("query needs at least one label"));
    }
    if spec.algorithm == Algorithm::Opt && spec.proportional {
        return Err(MqdError::protocol(
            "opt supports fixed lambda only (use greedysc/scan/scanplus for prop)",
        ));
    }
    Ok(())
}

/// True when a cached answer for `spec` can be patched in place by
/// [`CoverRepair`] as the store grows: only the fixed-lambda Scan family
/// qualifies. Scan+'s cross-label pruning, GreedySC's global ranking, the
/// OPT DP, and the density-proportional lambda of Section 6 all couple the
/// answer to the whole slice, so an in-footprint append invalidates them.
pub fn repairable(spec: &QuerySpec) -> bool {
    spec.algorithm == Algorithm::Scan && !spec.proportional
}

/// Runs `spec` against `store`: slice, solve, map back — the reference
/// answer (module docs). The answer lists the selected posts in ascending
/// slice order, each with its external id, value, and the intersection of
/// its labels with the query labels.
pub fn run_query(store: &Store, spec: &QuerySpec) -> Result<Vec<Record>, MqdError> {
    validate_spec(spec)?;
    let slice = store.slice(&spec.labels, spec.from, spec.to);
    solve_slice(&slice, spec)
}

/// Runs a fixed-lambda Scan spec restricted to a label subset: only the
/// per-label covers of `cover` are walked and returned, but each answer
/// row renders its labels among the spec's **full** label set, as the
/// unrestricted query does. The same rows as `solve_scan_cover` over the
/// spec's slice, found without carving it.
///
/// This is the shard-side half of the router's scatter-gather merge: a
/// shard holding every post that carries its labels answers
/// `COVER owned ∩ L` exactly, and the union over a partition of `L`
/// reproduces the single-node Scan answer row-for-row (see
/// `solve_scan_cover`). Only the Scan family decomposes this way —
/// Scan+'s pruning, GreedySC's global ranking, OPT's DP, and the
/// proportional lambda all couple the answer to the whole slice — so
/// anything else is a typed protocol error.
pub fn run_query_cover(
    store: &Store,
    spec: &QuerySpec,
    cover: &[u16],
) -> Result<Vec<Record>, MqdError> {
    validate_spec(spec)?;
    if !repairable(spec) {
        return Err(MqdError::protocol(
            "COVER applies to fixed-lambda scan only",
        ));
    }
    if cover.is_empty() {
        return Err(MqdError::protocol("COVER needs at least one label"));
    }
    let labels = label_set(&spec.labels);
    if let Some(g) = cover.iter().find(|g| labels.binary_search(g).is_err()) {
        return Err(MqdError::protocol(format!(
            "COVER label {g} is not among the query labels"
        )));
    }
    Ok(walk_cover(store, spec, &labels, &label_set(cover), false))
}

/// Answers `spec` cold, as the server does on a cache miss and in its
/// refresher, holding `store`'s read lock only to read the store:
///
/// * a fixed-λ Scan+, and a fixed-λ Scan whose `to` is below the newest
///   row, walk the postings (`Store::scan_picks`) under the lock and
///   need no repair state: Scan+ has no fold, and no row can join a range
///   closed below the newest (the store appends values at or above it);
/// * an open fixed-λ Scan (`to` at or above the newest, where a tie may
///   still arrive) carves the slice under the lock, then folds it into
///   the [`CoverRepair`] the cache keeps, and answers with the fold's
///   cover, which is byte-identical to solving the slice;
/// * every other spec carves the slice under the lock and solves it after
///   the lock is released, as [`run_query`] does.
///
/// `view` reaches the [`Store`] inside the lock. Returns the store
/// generation the answer is exact at, the answer, and the repair state of
/// a cover that can still grow.
pub fn answer_cold<S>(
    store: &RwLock<S>,
    view: impl Fn(&S) -> &Store,
    spec: &QuerySpec,
) -> Result<(u64, Vec<Record>, Option<CoverRepair>), MqdError> {
    validate_spec(spec)?;
    let (generation, slice) = {
        let guard = store
            .read()
            .map_err(|_| MqdError::Poisoned { what: "store" })?;
        let store = view(&guard);
        let closed = store.last_value().is_some_and(|newest| spec.to < newest);
        // `Some(plus)`: answered by the walk, as Scan+ or as Scan.
        let walk = match spec.algorithm {
            _ if spec.proportional => None,
            Algorithm::ScanPlus => Some(true),
            Algorithm::Scan if closed => Some(false),
            _ => None,
        };
        if let Some(plus) = walk {
            let labels = label_set(&spec.labels);
            let records = walk_cover(store, spec, &labels, &labels, plus);
            return Ok((store.generation(), records, None));
        }
        (
            store.generation(),
            store.slice(&spec.labels, spec.from, spec.to),
        )
    };
    if let Some(fold) = repair_state(&slice, spec) {
        return Ok((generation, fold.cover(), Some(fold)));
    }
    Ok((generation, solve_slice(&slice, spec)?, None))
}

/// `labels` sorted and deduplicated: the slice's `label_map`.
fn label_set(labels: &[u16]) -> Vec<u16> {
    let mut set = labels.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// The fixed-λ Scan (Scan+ with `plus`) answer of the labels `cover` over
/// `spec`'s range, each row rendered with its labels among `labels`: both
/// sorted and deduplicated, `cover` within `labels`.
fn walk_cover(
    store: &Store,
    spec: &QuerySpec,
    labels: &[u16],
    cover: &[u16],
    plus: bool,
) -> Vec<Record> {
    let picks = store.scan_picks(cover, spec.from, spec.to, spec.lambda, plus);
    let mut records = store.pick_records(&picks, labels);
    // Arrival order is value order, except that the slice orders a run of
    // tied values by id (and equal ids by arrival: the sort is stable).
    records.sort_by_key(|r| (r.value, r.id));
    records
}

/// [`run_query`] plus, when the spec is [`repairable`], the
/// [`CoverRepair`] tail state equivalent to having streamed the slice —
/// ready for [`crate::CoverCache::insert_fresh`].
pub fn run_query_with_repair(
    store: &Store,
    spec: &QuerySpec,
) -> Result<(Vec<Record>, Option<CoverRepair>), MqdError> {
    validate_spec(spec)?;
    let slice = store.slice(&spec.labels, spec.from, spec.to);
    let records = solve_slice(&slice, spec)?;
    Ok((records, repair_state(&slice, spec)))
}

/// Builds the [`CoverRepair`] tail state for a [`repairable`] spec by
/// replaying the slice (already in `(value, id)` order) through the fold;
/// `None` for non-repairable specs. The caller is expected to have solved
/// the same slice — the fold's cover is byte-identical to that answer.
pub fn repair_state(slice: &Slice, spec: &QuerySpec) -> Option<CoverRepair> {
    if !repairable(spec) {
        return None;
    }
    let mut rep = CoverRepair::new(&spec.labels, spec.lambda);
    let mut row = Record {
        id: 0,
        value: 0,
        labels: Vec::with_capacity(slice.label_map.len()),
    };
    for post in 0..slice.instance.len() as u32 {
        slice.fill_record(post, &mut row);
        rep.observe(&row);
    }
    Some(rep)
}

/// Solves an already-carved slice (see [`run_query`]; the spec must have
/// passed [`validate_spec`]). Split out so the background refresher can
/// solve against a slice snapshot without holding the store lock.
pub fn solve_slice(slice: &Slice, spec: &QuerySpec) -> Result<Vec<Record>, MqdError> {
    validate_spec(spec)?;
    let inst = &slice.instance;
    let solution = match spec.algorithm {
        Algorithm::Opt => solve_opt(inst, spec.lambda, &OptConfig::default())?,
        _ if spec.proportional => {
            let v = VariableLambda::compute(inst, spec.lambda);
            match spec.algorithm {
                Algorithm::GreedySc => solve_greedy_sc(inst, &v),
                Algorithm::Scan => solve_scan(inst, &v),
                Algorithm::ScanPlus => solve_scan_plus(inst, &v, LabelOrder::Input),
                // lint:allow(panic-path): validate_spec rejects proportional Opt before this match
                Algorithm::Opt => unreachable!("rejected by validate_spec"),
            }
        }
        Algorithm::GreedySc => solve_greedy_sc(inst, &FixedLambda(spec.lambda)),
        Algorithm::Scan => solve_scan(inst, &FixedLambda(spec.lambda)),
        Algorithm::ScanPlus => solve_scan_plus(inst, &FixedLambda(spec.lambda), LabelOrder::Input),
    };
    Ok(solution
        .selected
        .iter()
        .map(|&z| slice.record_for(z))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        let mut s = Store::new();
        // The paper's Example 2 shape on label 0, plus label 1 activity.
        for (id, value, labels) in [
            (1u64, 0i64, vec![0u16]),
            (2, 10, vec![0]),
            (3, 20, vec![0, 1]),
            (4, 30, vec![1]),
        ] {
            s.append(Record { id, value, labels }).unwrap();
        }
        s
    }

    fn spec(algorithm: Algorithm) -> QuerySpec {
        QuerySpec {
            labels: vec![0, 1],
            lambda: 10,
            proportional: false,
            algorithm,
            from: i64::MIN,
            to: i64::MAX,
        }
    }

    #[test]
    fn all_algorithms_answer_and_opt_matches_the_paper() {
        let s = store();
        let opt = run_query(&s, &spec(Algorithm::Opt)).unwrap();
        assert_eq!(opt.len(), 2); // {P2, P4} — Example 2
        for alg in [Algorithm::GreedySc, Algorithm::Scan, Algorithm::ScanPlus] {
            let ans = run_query(&s, &spec(alg)).unwrap();
            assert!(!ans.is_empty(), "{:?}", alg);
            // Answers are ascending in slice order (value, then id).
            let vals: Vec<i64> = ans.iter().map(|r| r.value).collect();
            let mut sorted = vals.clone();
            sorted.sort();
            assert_eq!(vals, sorted);
        }
    }

    #[test]
    fn range_restriction_changes_the_slice() {
        let s = store();
        let mut q = spec(Algorithm::Scan);
        q.from = 15;
        q.to = 25;
        let ans = run_query(&s, &q).unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].id, 3);
        assert_eq!(ans[0].labels, vec![0, 1]);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let s = store();
        let mut q = spec(Algorithm::Scan);
        q.lambda = -1;
        assert!(matches!(
            run_query(&s, &q).unwrap_err(),
            MqdError::NegativeLambda(-1)
        ));
        let mut q = spec(Algorithm::Scan);
        q.labels.clear();
        assert!(matches!(
            run_query(&s, &q).unwrap_err(),
            MqdError::Protocol { .. }
        ));
        let mut q = spec(Algorithm::Opt);
        q.proportional = true;
        assert!(matches!(
            run_query(&s, &q).unwrap_err(),
            MqdError::Protocol { .. }
        ));
    }

    #[test]
    fn proportional_mode_runs_on_the_approximations() {
        let s = store();
        for alg in [Algorithm::GreedySc, Algorithm::Scan, Algorithm::ScanPlus] {
            let mut q = spec(alg);
            q.proportional = true;
            run_query(&s, &q).unwrap();
        }
    }

    #[test]
    fn cover_queries_partition_back_to_full_scan() {
        let s = store();
        let q = spec(Algorithm::Scan);
        let full = run_query(&s, &q).unwrap();
        let mut union: Vec<Record> = Vec::new();
        for part in [vec![0u16], vec![1]] {
            union.extend(run_query_cover(&s, &q, &part).unwrap());
        }
        union.sort_by_key(|r| (r.value, r.id));
        union.dedup_by_key(|r| r.id);
        assert_eq!(union, full);
        // Rendered labels come from the FULL query label set even when the
        // cover is a subset: with lambda 5 the label-1 pass must select
        // post 3, which carries both query labels.
        let mut tight = q.clone();
        tight.lambda = 5;
        let one = run_query_cover(&s, &tight, &[1]).unwrap();
        assert!(one.iter().any(|r| r.id == 3 && r.labels == vec![0, 1]));
    }

    #[test]
    fn cover_misuse_is_a_typed_error() {
        let s = store();
        let q = spec(Algorithm::Scan);
        // Label outside the query set.
        assert!(matches!(
            run_query_cover(&s, &q, &[5]).unwrap_err(),
            MqdError::Protocol { .. }
        ));
        // Empty cover.
        assert!(matches!(
            run_query_cover(&s, &q, &[]).unwrap_err(),
            MqdError::Protocol { .. }
        ));
        // Non-decomposable algorithms and modes.
        for bad in [spec(Algorithm::ScanPlus), spec(Algorithm::GreedySc), {
            let mut p = spec(Algorithm::Scan);
            p.proportional = true;
            p
        }] {
            assert!(matches!(
                run_query_cover(&s, &bad, &[0]).unwrap_err(),
                MqdError::Protocol { .. }
            ));
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.as_str()).unwrap(), alg);
        }
        assert!(matches!(
            Algorithm::parse("bogus").unwrap_err(),
            MqdError::Protocol { .. }
        ));
    }
}
