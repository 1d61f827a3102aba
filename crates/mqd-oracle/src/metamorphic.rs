//! Metamorphic relations: input transformations under which the optimal
//! cover size (and for some transforms, the exact solver output) is
//! provably invariant with a **fixed** lambda.
//!
//! | Transform | Why invariant | What is checked |
//! |-----------|---------------|-----------------|
//! | translate by `c` | coverage depends only on value differences | every solver's selection is bit-identical; `\|Brute\|` unchanged |
//! | reflect (`v -> -v`) | `\|.\|` is symmetric | `\|Brute\|` unchanged; outputs still cover |
//! | permute labels | labels are interchangeable names | `\|Brute\|` unchanged; GreedySC and Scan selections identical |
//! | duplicate a post | a clone is covered by whatever covers the original, and never needed over it | `\|Brute\|` unchanged |
//! | self-concat, gap `> 2*lambda` | the halves cannot interact | `\|Brute\|` doubles exactly |
//!
//! None of these hold for the variable lambda (duplication and
//! concatenation change densities, reflection changes window asymmetries),
//! which is itself covered by the grid profile's degeneration invariant.

use mqd_core::algorithms::{
    solve_brute, solve_greedy_sc_threads, solve_scan, solve_scan_plus, LabelOrder,
};
use mqd_core::FixedLambda;

use crate::generate::Case;
use crate::invariants::Failure;
use crate::reference::ref_violations;

/// Translates every value by `c`, or `None` when that would leave the
/// supported domain (`i64::MIN` is reserved; see the instance contract).
pub fn translate(case: &Case, c: i64) -> Option<Case> {
    let mut out = case.clone();
    for (v, _) in &mut out.items {
        let shifted = *v as i128 + c as i128;
        if shifted <= i64::MIN as i128 || shifted > i64::MAX as i128 {
            return None;
        }
        *v = shifted as i64;
    }
    Some(out)
}

/// Mirrors every value. `i64::MIN` has no negation; generators never emit
/// it, but a shrunk case is re-checked here anyway.
pub fn reflect(case: &Case) -> Option<Case> {
    let mut out = case.clone();
    for (v, _) in &mut out.items {
        if *v == i64::MIN {
            return None;
        }
        *v = -*v;
    }
    Some(out)
}

/// Renames label `a` to `num_labels - 1 - a` (an involution, so any
/// permutation bug shows up without tracking the mapping).
pub fn permute_labels(case: &Case) -> Case {
    let mut out = case.clone();
    let last = out.num_labels.saturating_sub(1) as u16;
    for (_, ls) in &mut out.items {
        for l in ls {
            *l = last - *l;
        }
    }
    out
}

/// Appends an exact copy of the `idx`-th post.
pub fn duplicate_post(case: &Case, idx: usize) -> Case {
    let mut out = case.clone();
    out.items.push(out.items[idx].clone());
    out
}

/// Concatenates the case with a copy of itself shifted past `2*lambda`, so
/// the halves are independent sub-instances.
pub fn self_concat(case: &Case) -> Option<Case> {
    let min = case.items.iter().map(|(v, _)| *v).min()?;
    let max = case.items.iter().map(|(v, _)| *v).max()?;
    // Shift so the second copy starts 2*lambda + 1 past the first's end.
    let shift = (max as i128 - min as i128) + 2 * case.lambda as i128 + 1;
    let mut out = case.clone();
    for (v, ls) in case.items.iter() {
        let shifted = *v as i128 + shift;
        if shifted > i64::MAX as i128 {
            return None;
        }
        out.items.push((shifted as i64, ls.clone()));
    }
    Some(out)
}

fn brute_size(case: &Case) -> Result<usize, Failure> {
    let inst = case.instance();
    solve_brute(&inst, &FixedLambda(case.lambda), None)
        .map(|s| s.size())
        .map_err(|e| {
            Failure::new_pub(
                "meta-brute-runs",
                format!("solve_brute failed on transformed case: {e}"),
            )
        })
}

/// Checks that a transformed case's solver outputs still cover it.
fn outputs_cover(case: &Case, tag: &str, checks: &mut u64) -> Result<(), Failure> {
    let inst = case.instance();
    let fixed = FixedLambda(case.lambda);
    for sol in [
        solve_greedy_sc_threads(1, &inst, &fixed),
        solve_scan(&inst, &fixed),
        solve_scan_plus(&inst, &fixed, LabelOrder::Input),
    ] {
        *checks += 1;
        let v = ref_violations(&inst, &fixed, &sol.selected);
        if !v.is_empty() {
            return Err(Failure::new_pub(
                "meta-outputs-cover",
                format!(
                    "{tag}: {} output {:?} leaves {v:?} uncovered",
                    sol.algorithm, sol.selected
                ),
            ));
        }
    }
    Ok(())
}

/// Runs every metamorphic relation against an exact-sized case. Returns the
/// number of checks performed.
pub fn check(case: &Case) -> Result<u64, Failure> {
    if case.items.is_empty() || !case.exact_sized() {
        return Ok(0);
    }
    let mut checks = 0u64;
    let inst = case.instance();
    let fixed = FixedLambda(case.lambda);
    let base_brute = brute_size(case)?;
    let base_greedy = solve_greedy_sc_threads(1, &inst, &fixed);
    let base_scan = solve_scan(&inst, &fixed);
    let base_plus = solve_scan_plus(&inst, &fixed, LabelOrder::Input);

    // Translation: indices are unchanged, so selections must be identical.
    for c in [-7i64, 13, 1 << 40] {
        let Some(t) = translate(case, c) else {
            continue;
        };
        let ti = t.instance();
        for (who, base) in [
            ("GreedySC", &base_greedy),
            ("Scan", &base_scan),
            ("Scan+", &base_plus),
        ] {
            let got = match who {
                "GreedySC" => solve_greedy_sc_threads(1, &ti, &fixed),
                "Scan" => solve_scan(&ti, &fixed),
                _ => solve_scan_plus(&ti, &fixed, LabelOrder::Input),
            };
            checks += 1;
            if got.selected != base.selected {
                return Err(Failure::new_pub(
                    "meta-translate-selections",
                    format!(
                        "translating by {c} changed {who}: {:?} -> {:?}",
                        base.selected, got.selected
                    ),
                ));
            }
        }
        checks += 1;
        let tb = brute_size(&t)?;
        if tb != base_brute {
            return Err(Failure::new_pub(
                "meta-translate-opt",
                format!("translating by {c} changed |Brute|: {base_brute} -> {tb}"),
            ));
        }
    }

    // Reflection.
    if let Some(r) = reflect(case) {
        checks += 1;
        let rb = brute_size(&r)?;
        if rb != base_brute {
            return Err(Failure::new_pub(
                "meta-reflect-opt",
                format!("reflection changed |Brute|: {base_brute} -> {rb}"),
            ));
        }
        outputs_cover(&r, "reflect", &mut checks)?;
    }

    // Label permutation.
    let p = permute_labels(case);
    {
        let pi = p.instance();
        checks += 1;
        let pb = brute_size(&p)?;
        if pb != base_brute {
            return Err(Failure::new_pub(
                "meta-permute-opt",
                format!("label permutation changed |Brute|: {base_brute} -> {pb}"),
            ));
        }
        // Greedy gains and tie-breaks see only pair structure; Scan unions
        // per-label optima. Both must select the same posts.
        for (who, base, got) in [
            (
                "GreedySC",
                &base_greedy.selected,
                solve_greedy_sc_threads(1, &pi, &fixed).selected,
            ),
            (
                "Scan",
                &base_scan.selected,
                solve_scan(&pi, &fixed).selected,
            ),
        ] {
            checks += 1;
            if &got != base {
                return Err(Failure::new_pub(
                    "meta-permute-selections",
                    format!("label permutation changed {who}: {base:?} -> {got:?}"),
                ));
            }
        }
    }

    // Post duplication: a clone changes nothing about the optimal size.
    let idx = (case.seed as usize) % case.items.len();
    let d = duplicate_post(case, idx);
    checks += 1;
    let db = brute_size(&d)?;
    if db != base_brute {
        return Err(Failure::new_pub(
            "meta-duplicate-opt",
            format!("duplicating post {idx} changed |Brute|: {base_brute} -> {db}"),
        ));
    }

    // Self-concatenation with a dead gap: the optimum doubles exactly.
    if case.items.len() * 2 <= 16 {
        if let Some(cc) = self_concat(case) {
            checks += 1;
            let cb = brute_size(&cc)?;
            if cb != 2 * base_brute {
                return Err(Failure::new_pub(
                    "meta-concat-opt",
                    format!("self-concat past 2*lambda: |Brute| = {cb} != 2 * {base_brute}"),
                ));
            }
            outputs_cover(&cc, "self-concat", &mut checks)?;
        }
    }

    Ok(checks)
}
