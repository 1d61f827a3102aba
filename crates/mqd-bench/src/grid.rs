//! What the paper's look-alike figures share. A figure is a solver set, an
//! axis grid and a per-point seed; Figures 8/12, 13/14/15, 7/9/10 and
//! 11/the Scan+ order ablation differ in nothing else, so each family is
//! one runner here and the figure is its grid in [`crate::experiments`].

use std::time::Duration;

use mqd_core::algorithms::{
    solve_greedy_sc, solve_opt, solve_scan, solve_scan_plus, LabelOrder, OptConfig,
};
use mqd_core::{coverage, FixedLambda, Instance, MqdError};
use mqd_stream::{run_stream, StreamGreedy, StreamScan};

use crate::measure::{micros_per_post, time_it};
use crate::report::{f1, f3, Table};
use crate::workloads::{
    day_instance, mins, secs, ten_minute_instance, OPT_FEASIBLE_PER_LABEL_PER_MIN,
};
use crate::BenchArgs;

/// One result column: its header, and a solve of a whole instance that
/// returns the selected posts. The last argument is the decision delay tau
/// (ms), which the offline solvers ignore.
pub type Solver = (&'static str, fn(&Instance, &FixedLambda, i64) -> Vec<u32>);

/// Scan, Scan+ (input label order) and GreedySC.
pub const OFFLINE: &[Solver] = &[
    ("scan", |i, l, _| solve_scan(i, l).selected),
    ("scanplus", |i, l, _| {
        solve_scan_plus(i, l, LabelOrder::Input).selected
    }),
    ("greedy", |i, l, _| solve_greedy_sc(i, l).selected),
];

/// The four tau-delayed streaming engines, in the paper's legend order.
pub const STREAM_ENGINES: &[Solver] = &[
    ("StreamScan", |i, l, tau| {
        run_stream(i, l, tau, &mut StreamScan::new(i.num_labels(), i.len())).selected
    }),
    ("StreamScan+", |i, l, tau| {
        run_stream(
            i,
            l,
            tau,
            &mut StreamScan::new_plus(i.num_labels(), i.len()),
        )
        .selected
    }),
    ("StreamGreedySC", |i, l, tau| {
        run_stream(i, l, tau, &mut StreamGreedy::new(i.num_labels(), i.len())).selected
    }),
    ("StreamGreedySC+", |i, l, tau| {
        run_stream(
            i,
            l,
            tau,
            &mut StreamGreedy::new_plus(i.num_labels(), i.len()),
        )
        .selected
    }),
];

/// `lead` followed by one header per solver of `set`.
pub fn headers(lead: &[&'static str], set: &[Solver]) -> Vec<&'static str> {
    lead.iter()
        .copied()
        .chain(set.iter().map(|s| s.0))
        .collect()
}

/// Runs every solver of `set`: `(solution size, wall time)` per column.
/// Debug builds check each answer is a lambda-cover, outside the timing.
pub fn run_solvers(
    set: &[Solver],
    inst: &Instance,
    lambda: &FixedLambda,
    tau: i64,
) -> Vec<(usize, Duration)> {
    let run = |(name, solve): &Solver| {
        let (selected, d) = time_it(|| solve(inst, lambda, tau));
        debug_assert!(
            coverage::is_cover(inst, lambda, &selected),
            "{name} non-cover"
        );
        (selected.len(), d)
    };
    set.iter().map(run).collect()
}

/// [`run_solvers`], sizes only.
pub fn solver_sizes(set: &[Solver], inst: &Instance, lambda: &FixedLambda, tau: i64) -> Vec<usize> {
    run_solvers(set, inst, lambda, tau)
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// The row `key`, then the column-wise means of `runs` (one `Vec` per run,
/// all of one width, summed in run order) formatted by `cell`.
pub fn mean_row(key: String, runs: &[Vec<f64>], cell: fn(f64) -> String) -> Vec<String> {
    let width = runs.first().map_or(0, Vec::len);
    let mean = |c: usize| runs.iter().fold(0.0, |sum, run| sum + run[c]) / runs.len() as f64;
    std::iter::once(key)
        .chain((0..width).map(|c| cell(mean(c))))
        .collect()
}

/// Day-scale solution sizes vs |L| (Figures 8 and 12): one panel per
/// lambda in {10, 30} minutes, one row per |L| over one day of tweets.
pub fn day_sizes_by_labels(
    args: &BenchArgs,
    fig: u32,
    set: &[Solver],
    tau: i64,
) -> Result<Vec<Table>, MqdError> {
    let lambdas_min = [10, 30];
    let mut panels = lambdas_min.map(|lm| {
        Table::new(
            format!("Fig {fig} panel: lambda = {lm} minutes"),
            &headers(&["|L|", "posts"], set),
        )
    });
    // One day of tweets per |L|, generated once and solved under both lambdas.
    for l in [2usize, 5, 10, 20] {
        let inst = day_instance(l, args.seed_at(l), args.effective_scale())?;
        for (t, lm) in panels.iter_mut().zip(lambdas_min) {
            let mut cells = vec![l.to_string(), inst.len().to_string()];
            let sizes = solver_sizes(set, &inst, &FixedLambda(mins(lm)), tau);
            cells.extend(sizes.iter().map(usize::to_string));
            t.row(&cells);
        }
    }
    Ok(panels.into())
}

/// Day-scale execution time per post (Figures 13, 14, 15): one panel per
/// |L| in {2, 5, 20} over one day of tweets, one row per axis value (in
/// seconds); `point` maps the value in ms to the `(lambda, tau)` timed.
pub fn day_time_per_post(
    args: &BenchArgs,
    fig: u32,
    header: &[&str],
    set: &[Solver],
    xs_s: &[i64],
    point: impl Fn(i64) -> (i64, i64),
) -> Result<Vec<Table>, MqdError> {
    let mut panels = Vec::new();
    for l in [2usize, 5, 20] {
        let inst = day_instance(l, args.seed_at(l), args.effective_scale())?;
        let title = format!("Fig {fig} panel: |L| = {l} ({} posts)", inst.len());
        let mut t = Table::new(title, header);
        for &x in xs_s {
            let (lambda, tau) = point(secs(x));
            let mut cells = vec![x.to_string()];
            for (_, d) in run_solvers(set, &inst, &FixedLambda(lambda), tau) {
                cells.push(f3(micros_per_post(inst.len(), d)));
            }
            t.row(&cells);
        }
        panels.push(t);
    }
    Ok(panels)
}

/// One seeded 10-minute slice solved exactly and by a solver set.
#[derive(Clone, Debug)]
pub struct OptRun {
    /// Measured overlap rate of the slice.
    pub overlap_rate: f64,
    /// `|OPT|`.
    pub opt: usize,
    /// Solution size per solver, in column order.
    pub sizes: Vec<usize>,
}

impl OptRun {
    /// The paper's relative solution-size error `(|Z| - |OPT|) / |OPT|`
    /// (Section 7.2) per solver. OPT is empty only on an empty slice,
    /// where every solver is empty too and the error is 0.
    pub fn errors(&self) -> Vec<f64> {
        let excess = |&n: &usize| (n as f64 - self.opt as f64) / self.opt.max(1) as f64;
        self.sizes.iter().map(excess).collect()
    }
}

/// One grid point of the exact-baseline figures (6, 7, 9, 10): for each
/// seed, a 10-minute slice at the OPT-feasible rate solved by OPT (under
/// `cfg`) and by `set` at `lambda_s` / `tau_s` seconds. A seed whose DP
/// blows the pattern budget is skipped with a line on stderr. When every
/// seed is, the point has no baseline: `None`, one more stderr line naming
/// the point, and the caller leaves the row out. A row of zero errors
/// would read as "every algorithm optimal".
pub fn opt_baseline(
    cfg: &OptConfig,
    num_labels: usize,
    overlap: f64,
    (lambda_s, tau_s): (i64, i64),
    set: &[Solver],
    seeds: impl Iterator<Item = u64>,
) -> Result<Option<Vec<OptRun>>, MqdError> {
    let lambda = FixedLambda(secs(lambda_s));
    let mut done = Vec::new();
    for seed in seeds {
        let inst = ten_minute_instance(num_labels, OPT_FEASIBLE_PER_LABEL_PER_MIN, overlap, seed)?;
        let opt = match solve_opt(&inst, lambda.0, cfg) {
            Ok(s) => s.size(),
            Err(e @ MqdError::OptBudgetExceeded { .. }) => {
                eprintln!("skipping seed {seed}: {e}");
                continue;
            }
            Err(e) => return Err(e),
        };
        done.push(OptRun {
            overlap_rate: inst.overlap_rate(),
            opt,
            sizes: solver_sizes(set, &inst, &lambda, secs(tau_s)),
        });
    }
    if done.is_empty() {
        eprintln!(
            "|L| = {num_labels}, overlap {overlap}, lambda = {lambda_s} s, tau = {tau_s} s: \
             OPT blew its budget on every seed, row omitted"
        );
        return Ok(None);
    }
    Ok(Some(done))
}

/// Fills `t` with means against OPT at |L| = 2, overlap 1.25 (Figure 7 and
/// each panel of Figures 9 and 10): one row per `xs_s` value, which
/// `point` maps to `(lambda_s, tau_s, seed offset of run 0)`; `per_run`
/// picks what is averaged over a point's runs.
pub fn opt_mean_rows(
    args: &BenchArgs,
    mut t: Table,
    set: &[Solver],
    runs: usize,
    xs_s: &[i64],
    point: impl Fn(i64) -> (i64, i64, i64),
    per_run: impl Fn(&OptRun) -> Vec<f64>,
) -> Result<Table, MqdError> {
    let cfg = OptConfig::default();
    for &x in xs_s {
        let (lambda_s, tau_s, base) = point(x);
        let seeds = (0..runs).map(|r| args.seed_at(base as usize + r));
        if let Some(done) = opt_baseline(&cfg, 2, 1.25, (lambda_s, tau_s), set, seeds)? {
            let values: Vec<Vec<f64>> = done.iter().map(&per_run).collect();
            t.row(&mean_row(x.to_string(), &values, f3));
        }
    }
    Ok(t)
}

/// Mean solution sizes over seeded slices (Figure 11, the Scan+ order
/// ablation): one row per axis value, `runs` slices per row seeded
/// `row index * 100 + r`; `sizes_at(x, seed)` builds the slice and solves
/// it, one size per column after the axis column.
pub fn mean_sizes_table(
    args: &BenchArgs,
    mut t: Table,
    xs: &[f64],
    runs: usize,
    sizes_at: impl Fn(f64, u64) -> Result<Vec<usize>, MqdError>,
) -> Result<Table, MqdError> {
    for (xi, &x) in xs.iter().enumerate() {
        let mut values = Vec::new();
        for r in 0..runs {
            let sizes = sizes_at(x, args.seed_at(xi * 100 + r))?;
            values.push(sizes.into_iter().map(|n| n as f64).collect());
        }
        t.row(&mean_row(format!("{x:.1}"), &values, f1));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_solver_returns_a_cover_under_its_header() {
        let inst = ten_minute_instance(2, 6.0, 1.2, 5).unwrap();
        let lambda = FixedLambda(10_000);
        for set in [OFFLINE, STREAM_ENGINES] {
            for (name, solve) in set {
                let selected = solve(&inst, &lambda, 5_000);
                assert!(
                    coverage::is_cover(&inst, &lambda, &selected),
                    "{name} failed to produce a cover"
                );
            }
        }
        assert_eq!(
            headers(&["tau_s"], STREAM_ENGINES),
            [
                "tau_s",
                "StreamScan",
                "StreamScan+",
                "StreamGreedySC",
                "StreamGreedySC+"
            ]
        );
        assert_eq!(headers(&[], OFFLINE), ["scan", "scanplus", "greedy"]);
    }

    #[test]
    fn mean_row_averages_columns_in_run_order() {
        let runs = [vec![1.0, 10.0], vec![2.0, 20.0]];
        assert_eq!(mean_row("k".into(), &runs, f1), ["k", "1.5", "15.0"]);
        assert_eq!(mean_row("k".into(), &[], f1), ["k"]);
    }

    #[test]
    fn a_point_whose_every_seed_blows_the_budget_has_no_baseline() {
        let point = |cfg: &OptConfig| {
            opt_baseline(cfg, 2, 1.25, (5, 0), OFFLINE, [1u64, 2].into_iter()).unwrap()
        };
        let tiny = OptConfig {
            max_patterns_per_step: 1,
        };
        assert!(
            point(&tiny).is_none(),
            "every seed skipped must be None, not zeros"
        );
        let done = point(&OptConfig::default()).expect("the default budget is feasible");
        assert_eq!(done.len(), 2);
        for run in &done {
            assert!(run.opt > 0);
            assert!(
                run.errors().iter().all(|&e| e >= 0.0),
                "OPT is a lower bound"
            );
        }
    }
}
