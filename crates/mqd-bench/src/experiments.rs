//! The experiment table: every table and figure of the paper's Section 7,
//! plus the ablations and extensions, as one function each that *returns*
//! its [`Report`]. `repro` is the only caller that writes files. The doc
//! comment on each function records what the paper expects and therefore
//! why its grid has the values it has.

use mqd_core::algorithms::{
    solve_greedy_sc, solve_greedy_sc_scan_max, solve_opt, solve_scan, solve_scan_plus, LabelOrder,
    OptConfig,
};
use mqd_core::metrics::{per_label_counts, proportionality_l1};
use mqd_core::{coverage, FixedLambda, LabelId, MqdError, VariableLambda};
use mqd_datagen::bursts::{generate_burst_posts, Burst, BurstStreamConfig};
use mqd_datagen::{generate_news, LabeledStreamConfig, NewsConfig, BROAD_TOPICS};
use mqd_geo::{
    generate_geo_posts, solve_geo_greedy, solve_geo_sweep, GeoInstance, GeoLambda, GeoStreamConfig,
};
use mqd_rng::rngs::StdRng;
use mqd_rng::{RngExt, SeedableRng};
use mqd_stream::{AdaptiveInstant, MultiUserHub};
use mqd_topics::{extract_topics, LdaConfig, LdaModel, Vocabulary};

use crate::grid::{
    day_sizes_by_labels, day_time_per_post, headers, mean_row, mean_sizes_table, opt_baseline,
    opt_mean_rows, solver_sizes, OptRun, OFFLINE, STREAM_ENGINES,
};
use crate::measure::{micros_per_post, time_it};
use crate::report::{f1, f3, Report, Table};
use crate::workloads::{
    mins, secs, stream_instance, ten_minute_instance, CALIBRATED_PER_LABEL_PER_MIN,
    OPT_FEASIBLE_PER_LABEL_PER_MIN,
};
use crate::BenchArgs;

/// One reproducible artifact: its id (the report's file stem and the
/// argument `repro` takes) and the function that computes it.
pub struct Experiment {
    /// Report id, e.g. `"fig09"`.
    pub id: &'static str,
    /// Runs the experiment under the given options.
    pub run: fn(&BenchArgs) -> Result<Report, MqdError>,
}

/// Every experiment, in the order of DESIGN.md §6: the paper's tables and
/// figures, then the ablations and extensions.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "table1", run: table1 },
    Experiment { id: "table2", run: table2 },
    Experiment { id: "fig06", run: fig06 },
    Experiment { id: "fig07", run: fig07 },
    Experiment { id: "fig08", run: fig08 },
    Experiment { id: "fig09", run: fig09 },
    Experiment { id: "fig10", run: fig10 },
    Experiment { id: "fig11", run: fig11 },
    Experiment { id: "fig12", run: fig12 },
    Experiment { id: "fig13", run: fig13 },
    Experiment { id: "fig14", run: fig14 },
    Experiment { id: "fig15", run: fig15 },
    Experiment { id: "ablation_greedy_heap", run: ablation_greedy_heap },
    Experiment { id: "ablation_scan_order", run: ablation_scan_order },
    Experiment { id: "ablation_variable_lambda", run: ablation_variable_lambda },
    Experiment { id: "opt_feasibility", run: opt_feasibility },
    Experiment { id: "ext_geo", run: ext_geo },
    Experiment { id: "ext_multiuser", run: ext_multiuser },
    Experiment { id: "ext_adaptive_lambda", run: ext_adaptive_lambda },
];

/// A report under `id` (an [`EXPERIMENTS`] id).
fn report(id: &str, title: &str, notes: Vec<String>, tables: Vec<Table>) -> Report {
    Report {
        id: id.into(),
        title: title.into(),
        notes,
        tables,
    }
}

/// The note every day-scale figure opens with.
fn day_note(args: &BenchArgs) -> String {
    format!(
        "calibrated per-label rate {CALIBRATED_PER_LABEL_PER_MIN}/min, overlap 1.15, day-scale {}",
        args.effective_scale()
    )
}

/// The note Figures 13–15 open with; `suffix` is Figure 13's "in-memory
/// timing" remark.
fn day_timing_note(args: &BenchArgs, suffix: &str) -> String {
    format!(
        "one day of tweets at {CALIBRATED_PER_LABEL_PER_MIN}/label/min, overlap 1.15, day-scale {}{suffix}",
        args.effective_scale()
    )
}

/// Table 1 — example topics with their highest-weight keywords.
///
/// Pipeline: synthetic news corpus (RSS substitute) → collapsed-Gibbs LDA
/// (Mallet substitute) → per-topic top keywords. The paper shows two
/// example topics each for Sports and Politics; we print the same shape:
/// for each broad topic group, the extracted LDA topics and their top
/// keywords.
fn table1(args: &BenchArgs) -> Result<Report, MqdError> {
    let articles = if args.quick { 150 } else { 600 };
    let num_topics = if args.quick { 12 } else { 30 };
    let iters = if args.quick { 25 } else { 60 };

    let corpus = generate_news(&NewsConfig {
        articles,
        seed: args.seed,
        ..NewsConfig::default()
    });
    let mut vocab = Vocabulary::new();
    let docs: Vec<Vec<u32>> = corpus.iter().map(|a| vocab.intern_text(&a.text)).collect();
    let model = LdaModel::train(
        &docs,
        vocab.len(),
        LdaConfig {
            num_topics,
            iterations: iters,
            seed: args.seed,
            ..LdaConfig::default()
        },
    );
    let topics = extract_topics(&model, &vocab, 10);

    // Majority ground-truth broad topic per LDA topic.
    let mut votes = vec![[0u32; 10]; num_topics];
    for (d, a) in corpus.iter().enumerate() {
        votes[model.dominant_topic(d)][a.broad_topic] += 1;
    }

    let mut t = Table::new(
        "Extracted topics (top keywords), grouped by majority broad topic",
        &["broad topic", "LDA topic", "top keywords"],
    );
    for (k, topic) in topics.iter().enumerate() {
        let broad = (0..10).max_by_key(|&b| votes[k][b]).unwrap_or(0);
        let kws: Vec<&str> = topic
            .keywords
            .iter()
            .take(8)
            .map(|(w, _)| w.as_str())
            .collect();
        t.row(&[
            BROAD_TOPICS[broad].name.to_string(),
            format!("#{k}"),
            kws.join(" "),
        ]);
    }
    Ok(report(
        "table1",
        "Example topics with highest-weight keywords",
        vec![
            format!(
                "corpus: {articles} synthetic news articles; LDA K={num_topics}, {iters} Gibbs sweeps"
            ),
            format!(
                "model quality: per-word perplexity {:.1} (uniform baseline = vocabulary size {})",
                model.perplexity(&docs),
                vocab.len()
            ),
            "paper used 1M+ RSS articles and Mallet with K=300, keeping top-40 keywords; \
             same pipeline at laptop scale"
                .into(),
        ],
        vec![t],
    ))
}

/// Table 2 — number of matching posts per minute for label sets of size
/// |L| ∈ {2, 5, 20}.
///
/// The paper measured 136 / 308 / 1180 matching posts per minute on the 1%
/// Twitter sample. Our generator is calibrated to the same per-label rate
/// (~62/min), so the reproduced column should land in the same range with
/// the same sublinear growth caused by label overlap.
fn table2(args: &BenchArgs) -> Result<Report, MqdError> {
    let minutes = if args.quick { 10 } else { 60 };
    let paper = [(2usize, 136.0f64), (5, 308.0), (20, 1180.0)];

    let mut t = Table::new(
        "Matching posts per minute",
        &[
            "|L|",
            "paper (real Twitter)",
            "reproduced (synthetic)",
            "overlap rate",
        ],
    );
    for &(l, paper_rate) in &paper {
        let inst = stream_instance(&LabeledStreamConfig {
            num_labels: l,
            per_label_per_minute: CALIBRATED_PER_LABEL_PER_MIN,
            overlap: 1.15,
            duration_ms: mins(minutes),
            seed: args.seed_at(l),
            ..LabeledStreamConfig::default()
        })?;
        t.row(&[
            l.to_string(),
            f1(paper_rate),
            f1(inst.len() as f64 / minutes as f64),
            format!("{:.2}", inst.overlap_rate()),
        ]);
    }
    Ok(report(
        "table2",
        "Matching posts per minute per label-set size",
        vec![format!(
            "{minutes}-minute streams at the calibrated per-label rate of {CALIBRATED_PER_LABEL_PER_MIN}/min, overlap 1.15"
        )],
        vec![t],
    ))
}

/// Figure 6 — relative solution-size error of Scan / Scan+ / GreedySC
/// against the exact OPT, and absolute solution sizes, as the *post overlap
/// rate* varies (|L| = 3, lambda = 5 s, 10-minute slices).
///
/// Paper expectation: GreedySC error is generally lower than Scan/Scan+
/// except at overlap ≈ 1 (where Scan is optimal per label and overall);
/// absolute sizes drop as overlap grows.
fn fig06(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs_per_point = if args.quick { 2 } else { 8 };
    let overlaps: &[f64] = &[1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8];

    let mut scatter = Table::new(
        "Per-run results (Fig 6a-c scatter)",
        &["overlap", "opt", "scan_err", "scanplus_err", "greedy_err"],
    );
    let mut sizes = Table::new(
        "Mean absolute solution sizes (Fig 6d)",
        &["overlap", "opt", "scan", "scanplus", "greedy"],
    );
    for (oi, &overlap) in overlaps.iter().enumerate() {
        let seeds = (0..runs_per_point).map(|r| args.seed_at(oi * 1000 + r));
        let Some(runs) = opt_baseline(&OptConfig::default(), 3, overlap, (5, 0), OFFLINE, seeds)?
        else {
            continue;
        };
        for run in &runs {
            let mut cells = vec![format!("{:.3}", run.overlap_rate), run.opt.to_string()];
            cells.extend(run.errors().into_iter().map(f3));
            scatter.row(&cells);
        }
        let abs: Vec<Vec<f64>> = runs
            .iter()
            .map(|r| std::iter::once(&r.opt).chain(&r.sizes))
            .map(|sizes| sizes.map(|&n| n as f64).collect())
            .collect();
        sizes.row(&mean_row(format!("{overlap:.1}"), &abs, f3));
    }
    Ok(report(
        "fig06",
        "Relative errors and solution sizes vs overlap (|L|=3, lambda=5s, 10-min)",
        vec![
            format!(
                "per-label rate {OPT_FEASIBLE_PER_LABEL_PER_MIN}/min (OPT-feasible scale), {runs_per_point} label sets per overlap value"
            ),
            "paper: Figures 6a-6d; GreedySC < Scan except near overlap 1 where Scan is optimal"
                .into(),
        ],
        vec![scatter, sizes],
    ))
}

/// Figure 7 — relative solution-size error of the approximation algorithms
/// for varying lambda (|L| = 2, 10-minute slices, exact OPT baseline).
///
/// Paper expectation: all approximation errors grow with lambda (more
/// coverage choices make the problem harder); GreedySC stays below the
/// Scan variants, with up to ~60% improvement at lambda = 20–30 s.
fn fig07(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs = if args.quick { 3 } else { 12 };
    let t = opt_mean_rows(
        args,
        Table::new(
            "Mean relative error vs OPT",
            &["lambda_s", "scan", "scanplus", "greedy", "opt_size"],
        ),
        OFFLINE,
        runs,
        &[5, 10, 15, 20, 25, 30],
        |lambda_s| (lambda_s, 0, lambda_s * 100),
        |run| [run.errors(), vec![run.opt as f64]].concat(),
    )?;
    Ok(report(
        "fig07",
        "Relative solution-size error vs lambda (|L|=2, 10-min slices)",
        vec![
            format!(
                "per-label rate {OPT_FEASIBLE_PER_LABEL_PER_MIN}/min (OPT-feasible scale), overlap 1.25, {runs} label sets per lambda"
            ),
            "paper: Figure 7; errors increase with lambda, GreedySC lowest".into(),
        ],
        vec![t],
    ))
}

/// Figure 8 — absolute solution sizes on one day of tweets for varying
/// label-set size |L|, at lambda = 10 and 30 minutes.
///
/// Paper expectation: Scan grows linearly in |L| (it handles labels
/// independently); GreedySC outperforms both Scan variants, increasingly so
/// for larger |L|.
fn fig08(args: &BenchArgs) -> Result<Report, MqdError> {
    Ok(report(
        "fig08",
        "Solution sizes on one day of tweets vs |L| (lambda = 10 / 30 min)",
        vec![
            day_note(args),
            "paper: Figures 8a-8b; Scan linear in |L|, GreedySC best and gap widens with |L|"
                .into(),
        ],
        day_sizes_by_labels(args, 8, OFFLINE, 0)?,
    ))
}

/// The note Figures 9 and 10 open with.
fn stream_error_note(runs: usize) -> String {
    format!(
        "per-label rate {OPT_FEASIBLE_PER_LABEL_PER_MIN}/min, overlap 1.25, {runs} runs per point; baseline = static OPT"
    )
}

/// Figure 9 — streaming relative solution-size errors for varying lambda,
/// one panel per decision delay tau ∈ {5, 10, 15} s (|L| = 2, 10-minute
/// slices).
///
/// The baseline is the clairvoyant optimum: the static OPT over the same
/// interval (Section 7.2's definition of the streaming optimum).
///
/// Paper expectation: errors grow with lambda; StreamGreedySC+ slightly
/// better than StreamGreedySC; greedy variants less stable than the Scan
/// variants.
fn fig09(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs = if args.quick { 3 } else { 10 };
    Ok(report(
        "fig09",
        "Streaming relative errors vs lambda, per tau panel (|L|=2, 10-min)",
        vec![stream_error_note(runs), "paper: Figures 9a-9c".into()],
        [5, 10, 15]
            .iter()
            .map(|&tau_s| {
                opt_mean_rows(
                    args,
                    Table::new(
                        format!("Fig 9 panel: tau = {tau_s} s"),
                        &headers(&["lambda_s"], STREAM_ENGINES),
                    ),
                    STREAM_ENGINES,
                    runs,
                    &[5, 10, 15, 20, 25, 30],
                    |lambda_s| (lambda_s, tau_s, tau_s * 10_000 + lambda_s * 100),
                    OptRun::errors,
                )
            })
            .collect::<Result<_, _>>()?,
    ))
}

/// Figure 10 — streaming relative solution-size errors for varying decision
/// delay tau, one panel per lambda ∈ {10, 15, 20} s (|L| = 2, 10-minute
/// slices, static-OPT baseline).
///
/// Paper expectation: the Scan variants stabilize once tau > lambda (they
/// then equal offline Scan); the greedy variants show a local error peak
/// when tau is slightly above 2*lambda and a minimum around tau = lambda
/// (the "in-between posts" effect of Section 7.2).
fn fig10(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs = if args.quick { 3 } else { 10 };
    Ok(report(
        "fig10",
        "Streaming relative errors vs tau, per lambda panel (|L|=2, 10-min)",
        vec![
            stream_error_note(runs),
            "paper: Figures 10a-10c; Scan stable for tau>lambda, greedy peak near tau≈2*lambda"
                .into(),
        ],
        [10, 15, 20]
            .iter()
            .map(|&lambda_s| {
                opt_mean_rows(
                    args,
                    Table::new(
                        format!("Fig 10 panel: lambda = {lambda_s} s"),
                        &headers(&["tau_s"], STREAM_ENGINES),
                    ),
                    STREAM_ENGINES,
                    runs,
                    &[0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
                    |tau_s| (lambda_s, tau_s, lambda_s * 10_000 + tau_s * 100),
                    OptRun::errors,
                )
            })
            .collect::<Result<_, _>>()?,
    ))
}

/// Figure 11 — streaming absolute solution sizes vs overlap rate
/// (|L| = 2, lambda = 10 s, tau = 5 s, 10-minute slices).
///
/// Paper expectation: same trend as the static algorithms — the greedy
/// engines win at high overlap, the Scan engines at low overlap (Scan is
/// optimal per label when posts carry a single label).
fn fig11(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs = if args.quick { 3 } else { 10 };
    let t = mean_sizes_table(
        args,
        Table::new(
            "Mean solution sizes",
            &headers(&["overlap"], STREAM_ENGINES),
        ),
        &[1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8],
        runs,
        |overlap, seed| {
            let inst = ten_minute_instance(2, OPT_FEASIBLE_PER_LABEL_PER_MIN, overlap, seed)?;
            let lambda = FixedLambda(secs(10));
            Ok(solver_sizes(STREAM_ENGINES, &inst, &lambda, secs(5)))
        },
    )?;
    Ok(report(
        "fig11",
        "Streaming absolute solution sizes vs overlap (|L|=2, lambda=10s, tau=5s)",
        vec![
            format!(
                "per-label rate {OPT_FEASIBLE_PER_LABEL_PER_MIN}/min, {runs} runs per overlap, 10-min slices"
            ),
            "paper: Figure 11; greedy better at high overlap, Scan at overlap ≈ 1".into(),
        ],
        vec![t],
    ))
}

/// Figure 12 — streaming solution sizes on one day of tweets vs |L|,
/// with tau = 30 s, one panel per lambda ∈ {10, 30} minutes.
///
/// Paper expectation: same ordering as Figure 8; StreamGreedySC beats
/// StreamGreedySC+ at large lambda.
fn fig12(args: &BenchArgs) -> Result<Report, MqdError> {
    Ok(report(
        "fig12",
        "Streaming solution sizes on one day vs |L| (tau = 30 s)",
        vec![day_note(args), "paper: Figures 12a-12b".into()],
        day_sizes_by_labels(args, 12, STREAM_ENGINES, secs(30))?,
    ))
}

/// Figure 13 — execution time per post for MQDP on one day of tweets,
/// varying lambda, one panel per |L| ∈ {2, 5, 20}.
///
/// Paper expectation: the Scan variants are orders of magnitude faster than
/// GreedySC and roughly flat in lambda; GreedySC gets *faster* as lambda
/// grows (fewer greedy rounds) and slower as |L| grows; Scan gets slightly
/// faster with |L| (more cross-coverage per pick).
fn fig13(args: &BenchArgs) -> Result<Report, MqdError> {
    Ok(report(
        "fig13",
        "MQDP execution time per post (us) vs lambda, per |L| panel",
        vec![
            day_timing_note(args, "; in-memory timing"),
            "paper: Figures 13a-13c (log axis); Scan ~1-3 orders faster than GreedySC".into(),
        ],
        day_time_per_post(
            args,
            13,
            &["lambda_s", "scan_us", "scanplus_us", "greedy_us"],
            OFFLINE,
            &[10, 30, 60, 300, 600, 1800],
            |lambda| (lambda, 0),
        )?,
    ))
}

/// Figure 14 — execution time per post for StreamMQDP on one day of
/// tweets, varying lambda with fixed tau = 300 s, one panel per
/// |L| ∈ {2, 5, 20}.
///
/// Paper expectation: StreamScan/StreamScan+ flat and fast; the greedy
/// engines get faster with larger lambda (fewer set-cover rounds).
fn fig14(args: &BenchArgs) -> Result<Report, MqdError> {
    Ok(report(
        "fig14",
        "StreamMQDP execution time per post (us) vs lambda (tau = 300 s)",
        vec![day_timing_note(args, ""), "paper: Figures 14a-14c".into()],
        day_time_per_post(
            args,
            14,
            &headers(&["lambda_s"], STREAM_ENGINES),
            STREAM_ENGINES,
            &[60, 120, 300, 600, 1200, 1800],
            |lambda| (lambda, secs(300)),
        )?,
    ))
}

/// Figure 15 — execution time per post for StreamMQDP on one day of
/// tweets, varying tau with fixed lambda = 300 s, one panel per
/// |L| ∈ {2, 5, 20}.
///
/// Paper expectation: Scan engines stable in tau; greedy engines slightly
/// slower as tau grows (bigger windows per set-cover round).
fn fig15(args: &BenchArgs) -> Result<Report, MqdError> {
    Ok(report(
        "fig15",
        "StreamMQDP execution time per post (us) vs tau (lambda = 300 s)",
        vec![day_timing_note(args, ""), "paper: Figures 15a-15c".into()],
        day_time_per_post(
            args,
            15,
            &headers(&["tau_s"], STREAM_ENGINES),
            STREAM_ENGINES,
            &[10, 30, 60, 120, 300, 600],
            |tau| (secs(300), tau),
        )?,
    ))
}

/// Ablation — GreedySC selection strategy: lazy-evaluation heap vs the
/// paper's scan-max loop (Section 7.3 discusses exactly this implementation
/// choice; they found a naive heap slower because of re-insertion overhead,
/// and picked the scan. Our lazy heap only re-inserts stale entries, which
/// changes the trade-off).
///
/// Verifies both strategies return identical covers, then compares
/// per-post running time across lambda.
fn ablation_greedy_heap(args: &BenchArgs) -> Result<Report, MqdError> {
    // An hour of stream keeps the quadratic scan-max affordable.
    let minutes = if args.quick { 10 } else { 60 };
    let l = 5;
    let inst = stream_instance(&LabeledStreamConfig {
        num_labels: l,
        per_label_per_minute: CALIBRATED_PER_LABEL_PER_MIN,
        overlap: 1.15,
        duration_ms: mins(minutes),
        seed: args.seed,
        ..Default::default()
    })?;

    let mut t = Table::new(
        "Per-post time (us) and solution sizes",
        &["lambda_s", "lazy_us", "scanmax_us", "size", "identical"],
    );
    for ls in [10, 30, 60, 300] {
        let lambda = FixedLambda(secs(ls));
        let (lazy, d_lazy) = time_it(|| solve_greedy_sc(&inst, &lambda));
        let (scan, d_scan) = time_it(|| solve_greedy_sc_scan_max(&inst, &lambda));
        t.row(&[
            ls.to_string(),
            f3(micros_per_post(inst.len(), d_lazy)),
            f3(micros_per_post(inst.len(), d_scan)),
            lazy.size().to_string(),
            (lazy.selected == scan.selected).to_string(),
        ]);
    }
    Ok(report(
        "ablation_greedy_heap",
        "GreedySC selection: lazy heap vs scan-max (identical covers, timing)",
        vec![format!(
            "{minutes}-minute stream, |L| = {l}, {} posts",
            inst.len()
        )],
        vec![t],
    ))
}

/// Ablation — Scan+ label processing order. Section 4.3 notes "the
/// effectiveness of this optimization depends on the ordering of the labels
/// processed by Scan"; this experiment quantifies it on popularity-skewed
/// streams.
fn ablation_scan_order(args: &BenchArgs) -> Result<Report, MqdError> {
    let runs = if args.quick { 3 } else { 10 };
    let l = 8;
    let lambda = FixedLambda(secs(30));
    let t = mean_sizes_table(
        args,
        Table::new(
            "Mean solution sizes by label processing order",
            &[
                "label_skew",
                "scan",
                "input",
                "densest_first",
                "sparsest_first",
            ],
        ),
        &[0.0, 0.5, 1.0, 1.5],
        runs,
        |skew, seed| {
            let inst = stream_instance(&LabeledStreamConfig {
                num_labels: l,
                per_label_per_minute: CALIBRATED_PER_LABEL_PER_MIN / 4.0,
                overlap: 1.4,
                label_skew: skew,
                duration_ms: mins(10),
                seed,
                ..Default::default()
            })?;
            let orders = [
                LabelOrder::Input,
                LabelOrder::DensestFirst,
                LabelOrder::SparsestFirst,
            ];
            let mut sizes = vec![solve_scan(&inst, &lambda).size()];
            sizes.extend(orders.map(|o| solve_scan_plus(&inst, &lambda, o).size()));
            Ok(sizes)
        },
    )?;
    Ok(report(
        "ablation_scan_order",
        "Scan+ label order: input vs densest-first vs sparsest-first",
        vec![format!(
            "10-min slices, |L| = {l}, overlap 1.4, {runs} runs per skew, lambda = 30 s"
        )],
        vec![t],
    ))
}

/// Ablation — proportional diversity (Section 6): fixed lambda vs the
/// density-dependent lambda of Equation 2.
///
/// On a popularity-skewed stream, the output under a fixed lambda allocates
/// representatives roughly uniformly per label, while Equation 2 shifts the
/// allocation toward popular labels (more matching posts → smaller local
/// lambda → more representatives), without starving rare labels — the
/// "smooth" proportionality the paper argues for.
fn ablation_variable_lambda(args: &BenchArgs) -> Result<Report, MqdError> {
    let l = 6;
    let lambda0 = secs(60);
    let minutes = if args.quick { 10 } else { 30 };
    let inst = stream_instance(&LabeledStreamConfig {
        num_labels: l,
        per_label_per_minute: CALIBRATED_PER_LABEL_PER_MIN / 4.0,
        overlap: 1.2,
        label_skew: 1.2,
        duration_ms: mins(minutes),
        seed: args.seed,
        ..Default::default()
    })?;

    let fixed = FixedLambda(lambda0);
    let var = VariableLambda::compute(&inst, lambda0);
    let sol_fixed = solve_greedy_sc(&inst, &fixed);
    let sol_var = solve_greedy_sc(&inst, &var);
    assert!(coverage::is_cover(&inst, &fixed, &sol_fixed.selected));
    assert!(coverage::is_cover(&inst, &var, &sol_var.selected));

    let mut t = Table::new(
        "Per-label share of input vs share of output",
        &["label", "input_share", "fixed_share", "proportional_share"],
    );
    let shares = |selected: &[u32]| -> Vec<f64> {
        let counts = per_label_counts(&inst, selected);
        let total = counts.iter().sum::<usize>().max(1);
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    };
    let all: Vec<u32> = (0..inst.len() as u32).collect();
    let (input, by_fixed, by_var) = (
        shares(&all),
        shares(&sol_fixed.selected),
        shares(&sol_var.selected),
    );
    for a in 0..l {
        t.row(&[
            LabelId(a as u16).to_string(),
            f3(input[a]),
            f3(by_fixed[a]),
            f3(by_var[a]),
        ]);
    }

    let mut s = Table::new(
        "Proportionality (L1 distance to input shares; lower is better)",
        &["strategy", "l1_distance", "solution_size"],
    );
    for (name, sol) in [("fixed", &sol_fixed), ("proportional", &sol_var)] {
        let l1 = proportionality_l1(&inst, &sol.selected);
        s.row(&[name.into(), f3(l1), sol.size().to_string()]);
    }
    Ok(report(
        "ablation_variable_lambda",
        "Fixed lambda vs Equation-2 proportional lambda (GreedySC)",
        vec![
            format!(
                "{minutes}-min stream, |L| = {l}, label skew 1.2, lambda0 = 60 s, {} posts",
                inst.len()
            ),
            format!(
                "total selected: fixed = {}, proportional = {}",
                sol_fixed.size(),
                sol_var.size()
            ),
        ],
        vec![t, s],
    ))
}

/// Section 7.4's feasibility claim for the exact DP: "our proposed exact
/// dynamic programming algorithm is feasible for small problem instances,
/// where the number of queries is up to 2-3 and lambda is less than a
/// minute." This experiment maps that frontier: OPT wall time (or budget
/// blow-up) across |L| and lambda on 10-minute slices.
fn opt_feasibility(args: &BenchArgs) -> Result<Report, MqdError> {
    // The transition cost is (candidate product) x (previous layer), so the
    // per-step budget also bounds time; keep it small enough that a "blown"
    // verdict arrives in seconds rather than hours.
    let cfg = OptConfig {
        max_patterns_per_step: 5_000,
    };

    let mut t = Table::new(
        "OPT wall time (ms) per (|L|, lambda)",
        &["|L|", "lambda_s", "posts", "result", "wall_ms", "opt_size"],
    );
    for l in [1usize, 2, 3, 4] {
        let inst = ten_minute_instance(l, OPT_FEASIBLE_PER_LABEL_PER_MIN, 1.25, args.seed_at(l))?;
        for ls in [5, 15, 30, 60, 120] {
            let (res, d) = time_it(|| solve_opt(&inst, secs(ls), &cfg));
            let (status, size) = match &res {
                Ok(s) => ("ok".to_string(), s.size().to_string()),
                Err(e) => (format!("blown ({e})"), "-".to_string()),
            };
            t.row(&[
                l.to_string(),
                ls.to_string(),
                inst.len().to_string(),
                status,
                f1(d.as_secs_f64() * 1000.0),
                size,
            ]);
            // Don't climb further up a blown column.
            if res.is_err() {
                break;
            }
        }
    }
    Ok(report(
        "opt_feasibility",
        "Exact DP feasibility frontier (wall ms; 'blown' = state budget exceeded)",
        vec![
            format!(
                "10-minute slices at {OPT_FEASIBLE_PER_LABEL_PER_MIN} posts/label/min, overlap 1.25, \
                 budget {} end-patterns/step",
                cfg.max_patterns_per_step
            ),
            "paper §7.4: feasible for |L| up to 2-3 and lambda below a minute".into(),
        ],
        vec![t],
    ))
}

/// Extension experiment — spatiotemporal MQDP (the paper's Section 9
/// future work): solution sizes and per-post time of the greedy set-cover
/// solver vs the per-label time-sweep heuristic, across spatial thresholds,
/// on hotspot-clustered geo streams.
///
/// Expectation: with a large spatial threshold the problem degenerates to
/// 1-D MQDP and the two nearly tie; as the threshold shrinks below the
/// hotspot spread, solutions grow (each hotspot needs its own
/// representatives) and greedy's cross-label/cross-hotspot choices beat the
/// sweep.
fn ext_geo(args: &BenchArgs) -> Result<Report, MqdError> {
    let posts_n = if args.quick { 400 } else { 2_000 };
    let runs = if args.quick { 2 } else { 5 };

    let mut t = Table::new(
        "Mean solution sizes and per-post time",
        &[
            "lambda_dist",
            "greedy_size",
            "sweep_size",
            "greedy_us",
            "sweep_us",
        ],
    );
    for d in [100i64, 300, 1_000, 5_000, 50_000] {
        let mut sums = [0f64; 4];
        for r in 0..runs {
            let posts = generate_geo_posts(&GeoStreamConfig {
                posts: posts_n,
                seed: args.seed_at(r),
                ..Default::default()
            });
            let inst = GeoInstance::new(posts, 3, GeoLambda::new(mins(5), d));
            let (g, dg) = time_it(|| solve_geo_greedy(&inst));
            let (s, ds) = time_it(|| solve_geo_sweep(&inst));
            assert!(inst.is_cover(&g.selected), "greedy non-cover");
            assert!(inst.is_cover(&s.selected), "sweep non-cover");
            sums[0] += g.size() as f64;
            sums[1] += s.size() as f64;
            sums[2] += micros_per_post(inst.len(), dg);
            sums[3] += micros_per_post(inst.len(), ds);
        }
        let [greedy, sweep, greedy_us, sweep_us] = sums.map(|sum| sum / runs as f64);
        t.row(&[
            d.to_string(),
            f1(greedy),
            f1(sweep),
            f3(greedy_us),
            f3(sweep_us),
        ]);
    }
    Ok(report(
        "ext_geo",
        "Spatiotemporal extension: greedy vs time-sweep across spatial thresholds",
        vec![format!(
            "{posts_n} posts, 4 hotspots (spread 300), 3 labels, lambda.time = 5 min, {runs} runs per point"
        )],
        vec![t],
    ))
}

/// Extension experiment — multi-user fan-out throughput (Section 7.3's
/// "millions of users" motivation): posts per second sustained by the
/// shared-pass [`MultiUserHub`] as the user population grows, versus the
/// naive one-engine-per-user baseline cost model.
fn ext_multiuser(args: &BenchArgs) -> Result<Report, MqdError> {
    let num_topics = 300u32; // the paper's LDA topic count
    let posts_n = if args.quick { 20_000 } else { 100_000 };
    let user_counts: &[usize] = if args.quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };

    // Global stream: each post carries 1-2 of the 300 topics (zipf-ish).
    let mut rng = StdRng::seed_from_u64(args.seed);
    let zipf_topic = |rng: &mut StdRng| -> u32 {
        // Approximate zipf by squaring a uniform draw.
        let u: f64 = rng.random();
        ((u * u) * num_topics as f64) as u32
    };
    let stream: Vec<(i64, Vec<u32>)> = (0..posts_n)
        .map(|i| {
            let mut topics = vec![zipf_topic(&mut rng)];
            if rng.random::<f64>() < 0.2 {
                topics.push(zipf_topic(&mut rng));
            }
            topics.sort_unstable();
            topics.dedup();
            (i as i64 * 20, topics) // ~50 posts/sec
        })
        .collect();

    let mut t = Table::new(
        "Hub throughput",
        &[
            "users",
            "posts_per_sec",
            "total_deliveries",
            "mean_deliveries_per_user",
        ],
    );
    for &users_n in user_counts {
        let subscriptions: Vec<Vec<u32>> = (0..users_n)
            .map(|_| {
                let k = rng.random_range(2..=5usize);
                let mut ts: Vec<u32> = (0..k).map(|_| zipf_topic(&mut rng)).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            })
            .collect();
        let mut hub = MultiUserHub::new(subscriptions, secs(60));
        let (deliveries, dt) = time_it(|| {
            let delivered = |(time, topics): &(i64, Vec<u32>)| hub.on_post(*time, topics).len();
            stream.iter().map(delivered).sum::<usize>()
        });
        t.row(&[
            users_n.to_string(),
            f1(posts_n as f64 / dt.as_secs_f64()),
            deliveries.to_string(),
            f1(deliveries as f64 / users_n as f64),
        ]);
    }
    Ok(report(
        "ext_multiuser",
        "Multi-user fan-out: shared-pass hub throughput vs user count",
        vec![format!(
            "{posts_n} global posts over {num_topics} topics; each user subscribes to 2-5 topics; lambda = 60 s"
        )],
        vec![t],
    ))
}

/// Extension experiment — Section 6's proportional diversity taken online:
/// the [`AdaptiveInstant`] engine (Eq. 2 estimated from the stream prefix)
/// versus the fixed-lambda instant engine, on a bursty news-event stream.
///
/// Expectation: during a burst the adaptive engine shrinks its threshold
/// and keeps more posts (the event is unfolding — more of it should
/// surface), while in quiet stretches it keeps about the same; the output
/// tracks the input distribution across event phases.
fn ext_adaptive_lambda(args: &BenchArgs) -> Result<Report, MqdError> {
    let lambda0 = mins(2);
    let cfg = BurstStreamConfig {
        num_labels: 1,
        base_rate: 8.0,
        duration_ms: mins(120),
        bursts: vec![
            Burst {
                label: 0,
                start_ms: mins(40),
                duration_ms: mins(15),
                intensity: 10.0,
            },
            Burst {
                label: 0,
                start_ms: mins(90),
                duration_ms: mins(10),
                intensity: 5.0,
            },
        ],
        seed: args.seed,
    };
    let posts = generate_burst_posts(&cfg);

    let mut adaptive = AdaptiveInstant::new(1, lambda0);
    let mut fixed_last: Option<i64> = None;

    // Phase bookkeeping: (input, fixed kept, adaptive kept) per 10-minute
    // bucket.
    let bucket_ms = mins(10);
    let buckets = (cfg.duration_ms / bucket_ms) as usize;
    let mut input = vec![0u32; buckets];
    let mut kept_fixed = vec![0u32; buckets];
    let mut kept_adaptive = vec![0u32; buckets];

    for p in &posts {
        let b = (p.value() / bucket_ms) as usize;
        input[b] += 1;
        if adaptive.on_post(p.value(), &[LabelId(0)]) {
            kept_adaptive[b] += 1;
        }
        if fixed_last.is_none_or(|t| p.value() as i128 - t as i128 > lambda0 as i128) {
            fixed_last = Some(p.value());
            kept_fixed[b] += 1;
        }
    }

    let mut t = Table::new(
        "Posts kept per 10-minute phase",
        &[
            "phase_min",
            "input",
            "fixed",
            "adaptive",
            "adaptive_share_of_input",
        ],
    );
    for b in 0..buckets {
        t.row(&[
            format!("{}-{}", b * 10, b * 10 + 10),
            input[b].to_string(),
            kept_fixed[b].to_string(),
            kept_adaptive[b].to_string(),
            f3(kept_adaptive[b] as f64 / input[b].max(1) as f64),
        ]);
    }

    let burst_buckets = [4usize, 5, 9];
    let mut s = Table::new(
        "Totals",
        &["strategy", "kept_total", "kept_in_bursts", "bursts_share"],
    );
    for (name, kept) in [("fixed", &kept_fixed), ("adaptive", &kept_adaptive)] {
        let total: u32 = kept.iter().sum();
        let in_bursts: u32 = burst_buckets.iter().map(|&b| kept[b]).sum();
        s.row(&[
            name.into(),
            total.to_string(),
            in_bursts.to_string(),
            f1(100.0 * in_bursts as f64 / total.max(1) as f64) + "%",
        ]);
    }
    Ok(report(
        "ext_adaptive_lambda",
        "Online Eq. 2 lambda (AdaptiveInstant) vs fixed-lambda instant on a bursty stream",
        vec![format!(
            "{} posts over 2 h; bursts at 40-55 min (10x) and 90-100 min (5x); lambda0 = 2 min",
            posts.len()
        )],
        vec![t, s],
    ))
}
