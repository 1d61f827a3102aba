//! `benchmark`: the live four-workload serving benchmark.
//!
//! ```text
//! benchmark [--seed N] [--seconds S]                 all four workloads + traced pass
//! benchmark --workload W --trace 0|1 [--seed N] [--seconds S]   the driver contract
//! benchmark --quick                                  a <= 20 s smoke of everything
//! benchmark spread --runs N [--seed N] [--seconds S] [--trace 1]   repeat, print per-metric spread
//! ```
//!
//! Every mode exits non-zero on a wrong answer, a failed guard, a lost
//! acknowledged write, or a replayed answer that differs from the live one.

mod check;
mod layers;
mod live;
mod plan;
mod report;
mod stats;
mod sut;
mod wire;

use std::path::{Path, PathBuf};

use plan::{Plan, Workload, CORPUS_ROWS};
use report::{Guard, Metric, Traced};

/// Default `--seed`: the paper's conference date.
const DEFAULT_SEED: u64 = 20130612;
/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Sampled responses per run, roughly: every `ops / SAMPLES`-th query
/// keeps its payload for checking.
const SAMPLES: usize = 200;
/// `--quick` sizes.
const QUICK_ROWS: usize = 20_000;
const QUICK_SECONDS: u64 = 2;

/// What one invocation measures for a workload.
#[derive(Clone, Copy)]
struct Mode {
    /// Report the end-to-end metrics.
    end_to_end: bool,
    /// Run the traced pass and report the per-layer metrics.
    layers: bool,
    corpus_rows: usize,
    seconds: u64,
}

impl Mode {
    /// Not `--quick`: the sizes the guards and bounds were set for.
    fn full_size(&self) -> bool {
        self.corpus_rows == CORPUS_ROWS
    }
}

/// One workload's result.
struct Outcome {
    metrics: Vec<Metric>,
    guards: Vec<Guard>,
    attempted: usize,
    failed: usize,
    /// Everything that makes the run incorrect, in words.
    problems: Vec<String>,
    /// The traced pass's per-op time by layer, one line per kind of op.
    breakdown: Vec<String>,
    steal_share: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("MQD_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

fn run_workload(bin: &Path, workload: Workload, seed: u64, mode: Mode) -> Result<Outcome, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let plan = Plan::build(workload, seed, mode.seconds, mode.corpus_rows);
    eprintln!(
        "{}: seed {seed}, plan digest {:016x}, {} ops over {} s, corpus {} rows",
        workload.name(),
        plan.digest,
        plan.ops.len(),
        mode.seconds,
        plan.corpus.len()
    );

    // A deterministic 1-in-N sample of the queries keeps its payload.
    let stride = (plan.ops.len() / SAMPLES).max(1);
    let keep: Vec<bool> = plan
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| i % stride == 0 && matches!(op.kind, plan::OpKind::Query(_)))
        .collect();
    // Only the end-to-end set reports `setup_s`, as a median over several
    // complete set-ups; a smoke needs no median.
    let repeat_setups = mode.end_to_end && mode.full_size();
    let live = live::run(bin, &plan, &keep, repeat_setups, mode.layers, &out)?;

    let mut problems = Vec::new();
    let mut failed = 0;
    for (i, outcome) in live.outcomes.iter().enumerate() {
        if let Some(why) = check::op_failure(outcome) {
            failed += 1;
            if failed <= 5 {
                problems.push(format!("op {i} failed: {why}"));
            }
        }
    }
    let (checked, wrong) = check::verify(&plan, &live.outcomes)?;
    failed += wrong.len();
    problems.extend(
        wrong
            .iter()
            .take(5)
            .map(|(i, why)| format!("op {i} wrong answer: {why}")),
    );
    eprintln!(
        "{}: {checked} sampled answers checked, {} wrong",
        workload.name(),
        wrong.len()
    );
    if let Some(d) = &live.durability {
        failed += d.failures.len();
        problems.extend(
            d.failures
                .iter()
                .take(5)
                .map(|f| format!("durability: {f}")),
        );
        eprintln!(
            "{}: durability leg: {} checks, {} failed (flush policy: fsync on every ack)",
            workload.name(),
            d.checks,
            d.failures.len()
        );
    }

    let mut layer_metrics = Vec::new();
    let mut breakdown = Vec::new();
    if mode.layers {
        let scratch = sut::Scratch::new(&out, &format!("{}-replay", workload.name()))?;
        let order = check::replay_order(&plan, &live.outcomes);
        let traced = layers::replay(&plan, &order, &keep, true, &scratch.fresh("traced")?)?;
        let plain = layers::replay(&plan, &order, &keep, false, &scratch.fresh("plain")?)?;
        let mismatched = check::replay_mismatches(&plan, &live.outcomes, &traced.responses);
        failed += mismatched.len();
        problems.extend(
            mismatched
                .iter()
                .take(5)
                .map(|(i, why)| format!("op {i} traced pass: {why}")),
        );
        let trace_file = out.join(format!("trace-{}.json", workload.name()));
        layers::write_trace(&trace_file, &plan, &traced.spans)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        eprintln!(
            "{}: traced pass: {} spans -> {}, {} replayed answers differ from live",
            workload.name(),
            traced.spans.len(),
            trace_file.display(),
            mismatched.len()
        );
        breakdown = report::breakdown(&traced.spans);
        layer_metrics = report::per_layer(
            &plan,
            &live,
            &Traced {
                spans: &traced.spans,
                timed_ns: (traced.timed_ns, plain.timed_ns),
                recovered_rows: traced.recovered_rows,
            },
        );
    }
    // End-to-end first, per-layer after; the two sets never share a name.
    let mut metrics = Vec::new();
    if mode.end_to_end {
        metrics = report::end_to_end(&plan, &live, failed);
    }
    metrics.extend(layer_metrics);

    let guards = report::guards(&plan, &live, sut::nproc(), mode.full_size());
    problems.extend(
        guards
            .iter()
            .filter(|g| !g.ok)
            .map(|g| format!("guard failed: {} ({})", g.name, g.detail)),
    );
    Ok(Outcome {
        metrics,
        guards,
        attempted: plan.ops.len(),
        failed,
        problems,
        breakdown,
        steal_share: live.steal_share,
    })
}

fn print_outcome(workload: Workload, o: &Outcome) {
    for m in &o.metrics {
        println!(
            "{:<14} {:<36} {:>16.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for line in &o.breakdown {
        println!("{:<14} traced {line}", workload.name());
    }
    for g in &o.guards {
        println!(
            "{:<14} guard: {} ... {} ({})",
            workload.name(),
            g.name,
            if g.ok { "ok" } else { "FAILED" },
            g.detail
        );
    }
    for p in &o.problems {
        println!("{:<14} PROBLEM: {p}", workload.name());
    }
    println!(
        "{}",
        report::json_line(o.correct(), o.attempted, o.failed, &o.metrics)
    );
}

/// `--key value` flags; a bare `--key` reads as "1".
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = raw
                        .next_if(|v| !v.starts_with("--"))
                        .unwrap_or_else(|| "1".into());
                    args.flags.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        args
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{key} {v}: {e}"))
        })
    }
}

fn spread(bin: &Path, args: &Args) -> Result<bool, String> {
    let runs = args.number("runs", 10)? as usize;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let mode = Mode {
        end_to_end: true,
        // `--trace 1` adds the traced pass, and so the per-layer metrics,
        // to every run: the evidence for what cannot carry a bound.
        layers: args.get("trace") == Some("1"),
        corpus_rows: CORPUS_ROWS,
        seconds: args.number("seconds", DEFAULT_SECONDS)?,
    };
    let mut all_correct = true;
    let mut steal = Vec::new();
    // values[workload][metric] = one value per run
    let mut values: Vec<Vec<(Metric, Vec<f64>)>> = vec![Vec::new(); Workload::ALL.len()];
    for run in 0..runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let o = run_workload(bin, workload, seed + run as u64, mode)?;
            all_correct &= o.correct();
            for p in &o.problems {
                println!("{:<14} run {run} PROBLEM: {p}", workload.name());
            }
            steal.push(o.steal_share);
            let line: Vec<String> = o
                .metrics
                .iter()
                .map(|m| format!("{}={:.4}", m.name, m.value))
                .collect();
            println!(
                "run {run} {:<14} steal={:.4} {}",
                workload.name(),
                o.steal_share,
                line.join(" ")
            );
            for (i, m) in o.metrics.iter().enumerate() {
                if values[w].len() <= i {
                    values[w].push((m.clone(), Vec::new()));
                }
                values[w][i].1.push(m.value);
            }
        }
    }
    println!(
        "spread over {runs} runs, seeds {seed}..{}, {} s each; nproc {}; git rev {}; client.steal_share median {:.3}",
        seed + runs as u64 - 1,
        mode.seconds,
        sut::nproc(),
        std::env::var("MQD_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        stats::median(&steal).unwrap_or(0.0),
    );
    println!("| workload | metric | unit | min | median | max | IQR / median |");
    println!("|---|---|---|---:|---:|---:|---:|");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, v) in &values[w] {
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {} |",
                workload.name(),
                m.name,
                m.unit,
                min,
                stats::median(v).unwrap_or(0.0),
                max,
                stats::relative_spread(v).map_or("n/a".into(), |s| format!("{:.2} %", s * 100.0)),
            );
        }
    }
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1));
    let bin = sut::mqdiv_binary()?;
    if args.positional.first().map(String::as_str) == Some("spread") {
        return spread(&bin, &args);
    }
    let quick = args.get("quick").is_some();
    let seed = args.number("seed", DEFAULT_SEED)?;
    let trace = args.get("trace").map(|t| t != "0");
    let mode = Mode {
        // Neither flag: a person at the terminal, who wants everything.
        end_to_end: trace != Some(true),
        layers: trace != Some(false),
        corpus_rows: if quick { QUICK_ROWS } else { CORPUS_ROWS },
        seconds: args.number(
            "seconds",
            if quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            },
        )?,
    };
    let workloads = match args.get("workload") {
        Some(name) => vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        let outcome = run_workload(&bin, workload, seed, mode)?;
        print_outcome(workload, &outcome);
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
