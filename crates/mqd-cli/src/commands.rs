//! The `mqdiv` subcommand implementations, written against generic readers
//! and writers so they are unit-testable without touching the filesystem.
//!
//! Labeled posts are `mqd_core::record`'s TSV rows
//! (`id \t value \t label,label,...`); raw microblog posts for `match` are
//! text rows (`id \t timestamp_ms \t text`, [`TextRow`]). In both, lines
//! starting with `#` and blank lines are ignored.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use mqd_core::algorithms::{
    solve_greedy_sc, solve_opt, solve_scan, solve_scan_plus, LabelOrder, OptConfig,
};
use mqd_core::record::{read_tsv_records, to_instance, validate_stream, write_tsv_records, Record};
use mqd_core::{coverage, metrics, FixedLambda, MqdError, Solution, VariableLambda};
use mqd_datagen::{
    generate_labeled_posts, generate_tweets, LabeledStreamConfig, TweetStreamConfig, MINUTE_MS,
};
use mqd_text::{KeywordMatcher, NearDuplicateFilter, SentimentScorer};

/// Offline diversification options.
#[derive(Clone, Debug)]
pub struct DiversifyOpts {
    /// Coverage threshold (dimension units).
    pub lambda: i64,
    /// `scan`, `scan+`, `greedy`, or `opt`.
    pub algorithm: String,
    /// Use the Eq. 2 proportional lambda with `lambda` as lambda0.
    pub proportional: bool,
}

/// `mqdiv diversify`: read labeled rows, emit the selected subset plus a
/// summary on stderr-style `log` writer.
pub fn diversify(
    input: impl BufRead,
    out: impl Write,
    log: &mut impl Write,
    opts: &DiversifyOpts,
) -> Result<(), String> {
    let rows = read_tsv_records(input).map_err(|e| e.to_string())?;
    let inst = to_instance(&rows).map_err(|e| e.to_string())?;

    let solution: Solution = if opts.proportional {
        let lam = VariableLambda::compute(&inst, opts.lambda);
        match opts.algorithm.as_str() {
            "scan" => solve_scan(&inst, &lam),
            "scan+" => solve_scan_plus(&inst, &lam, LabelOrder::Input),
            "greedy" => solve_greedy_sc(&inst, &lam),
            "opt" => return Err("OPT supports a fixed lambda only (see DESIGN.md)".into()),
            other => return Err(format!("unknown algorithm '{other}'")),
        }
    } else {
        let lam = FixedLambda(opts.lambda);
        match opts.algorithm.as_str() {
            "scan" => solve_scan(&inst, &lam),
            "scan+" => solve_scan_plus(&inst, &lam, LabelOrder::Input),
            "greedy" => solve_greedy_sc(&inst, &lam),
            "opt" => {
                solve_opt(&inst, opts.lambda, &OptConfig::default()).map_err(|e| e.to_string())?
            }
            other => return Err(format!("unknown algorithm '{other}'")),
        }
    };

    // Verification is cheap relative to I/O; always do it.
    if !opts.proportional {
        let lam = FixedLambda(opts.lambda);
        if !coverage::is_cover(&inst, &lam, &solution.selected) {
            return Err("internal error: produced a non-cover".into());
        }
    }

    let selected_rows: Vec<Record> = solution
        .selected
        .iter()
        .map(|&i| Record {
            id: inst.post(i).id().0,
            value: inst.value(i),
            labels: inst.labels(i).iter().map(|l| l.0).collect(),
        })
        .collect();
    write_tsv_records(out, &selected_rows).map_err(|e| e.to_string())?;

    let rep = metrics::representation_error(&inst, &solution.selected);
    writeln!(
        log,
        "{}: kept {} of {} posts (compression {:.3}); representation mean {:.1} max {}",
        solution.algorithm,
        solution.size(),
        inst.len(),
        metrics::compression_ratio(&inst, &solution.selected),
        rep.mean,
        rep.max,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Streaming options.
#[derive(Clone, Debug)]
pub struct StreamOpts {
    /// Coverage threshold (ms).
    pub lambda: i64,
    /// Delay budget (ms).
    pub tau: i64,
    /// `scan`, `scan+`, `greedy`, `greedy+`, `instant`, or `adaptive`
    /// (online Eq. 2 with `lambda` as lambda0).
    pub engine: String,
}

/// `mqdiv stream`: replay labeled rows through a streaming engine; emits
/// `id \t value \t labels \t emit_time \t delay_ms` rows.
pub fn stream(
    input: impl BufRead,
    mut out: impl Write,
    log: &mut impl Write,
    opts: &StreamOpts,
) -> Result<(), String> {
    use mqd_stream::{run_stream, InstantScan, StreamEngine, StreamGreedy, StreamScan};
    let rows = read_tsv_records(input).map_err(|e| e.to_string())?;
    validate_stream(&rows).map_err(|e| e.to_string())?;
    let inst = to_instance(&rows).map_err(|e| e.to_string())?;
    let lam = FixedLambda(opts.lambda);
    let l = inst.num_labels();
    let n = inst.len();
    let mut engine: Box<dyn StreamEngine> = match opts.engine.as_str() {
        "scan" => Box::new(StreamScan::new(l, n)),
        "scan+" => Box::new(StreamScan::new_plus(l, n)),
        "greedy" => Box::new(StreamGreedy::new(l, n)),
        "greedy+" => Box::new(StreamGreedy::new_plus(l, n)),
        "instant" => Box::new(InstantScan::new(l)),
        "adaptive" => Box::new(mqd_stream::AdaptiveEngine::new(l, opts.lambda.max(1))),
        other => return Err(format!("unknown engine '{other}'")),
    };
    let instantaneous = matches!(opts.engine.as_str(), "instant" | "adaptive");
    let tau = if instantaneous { 0 } else { opts.tau };
    let res = run_stream(&inst, &lam, tau, engine.as_mut());
    // The adaptive engine's guarantee is at Eq. 2's analytic cap, not at
    // lambda itself.
    let verify_lambda = if opts.engine == "adaptive" {
        FixedLambda(mqd_stream::AdaptiveEngine::cover_lambda(opts.lambda.max(1)))
    } else {
        lam
    };
    if !res.is_cover(&inst, &verify_lambda) {
        return Err("internal error: emitted sub-stream is not a cover".into());
    }
    for e in &res.emissions {
        let labels: Vec<String> = inst
            .labels(e.post)
            .iter()
            .map(|l| l.0.to_string())
            .collect();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            inst.post(e.post).id().0,
            inst.value(e.post),
            labels.join(","),
            e.emit_time,
            e.delay(&inst)
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(
        log,
        "{}: emitted {} of {} posts, max delay {} ms (tau {} ms)",
        res.algorithm,
        res.size(),
        inst.len(),
        res.max_delay,
        tau
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Supervised (fault-tolerant) streaming options.
#[derive(Clone, Debug, Default)]
pub struct SupervisedStreamOpts {
    /// Coverage threshold (ms).
    pub lambda: i64,
    /// Delay budget (ms).
    pub tau: i64,
    /// `scan`, `scan+`, `greedy`, or `greedy+` (the supervisable engines).
    pub engine: String,
    /// Requested shard count (clamped to the label count).
    pub shards: usize,
    /// Deterministic fault-injection seed; `None` runs fault-free.
    pub chaos_seed: Option<u64>,
    /// Rolling checkpoint destination (atomically replaced).
    pub checkpoint: Option<PathBuf>,
    /// Arrivals between checkpoint writes.
    pub checkpoint_every: u64,
    /// Checkpoint to resume from instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Where to write the machine-readable fault report (JSON).
    pub fault_report: Option<PathBuf>,
}

fn shard_engine_kind(engine: &str) -> Result<mqd_stream::ShardEngineKind, String> {
    use mqd_stream::ShardEngineKind;
    match engine {
        "scan" => Ok(ShardEngineKind::Scan),
        "scan+" => Ok(ShardEngineKind::ScanPlus),
        "greedy" => Ok(ShardEngineKind::Greedy),
        "greedy+" => Ok(ShardEngineKind::GreedyPlus),
        other => Err(format!(
            "engine '{other}' cannot run supervised (use scan, scan+, greedy, or greedy+)"
        )),
    }
}

/// `mqdiv stream` with supervision: shard panics are restarted from the
/// last snapshot, injected faults come from a seeded plan, overload flips
/// shards into the Instant scheme, and the run can checkpoint to (and
/// resume from) disk. Output rows are
/// `id \t value \t labels \t emit_time \t delay_ms \t degraded`.
pub fn stream_supervised(
    input: impl BufRead,
    mut out: impl Write,
    log: &mut impl Write,
    opts: &SupervisedStreamOpts,
) -> Result<(), String> {
    use mqd_stream::{
        encode_checkpoint, resume_supervised, run_supervised_stream, FaultPlan, SupervisedRun,
    };
    let rows = read_tsv_records(input).map_err(|e| e.to_string())?;
    validate_stream(&rows).map_err(|e| e.to_string())?;
    let inst = to_instance(&rows).map_err(|e| e.to_string())?;
    let lam = FixedLambda(opts.lambda);
    let kind = shard_engine_kind(&opts.engine)?;
    let plan = match opts.chaos_seed {
        Some(seed) => FaultPlan::for_instance(&inst, opts.shards, seed, opts.tau),
        None => FaultPlan::none(),
    };

    let res = if opts.resume.is_some() || opts.checkpoint.is_some() {
        // Checkpointing needs the resumable sequential run; its output is
        // byte-identical to the threaded runner's for any fault plan.
        let mut run = match &opts.resume {
            Some(path) => {
                let bytes =
                    std::fs::read(path).map_err(|e| format!("--resume {}: {e}", path.display()))?;
                resume_supervised(
                    &inst,
                    opts.lambda,
                    opts.tau,
                    opts.shards,
                    kind,
                    &plan,
                    &bytes,
                )
                .map_err(|e| e.to_string())?
            }
            None => SupervisedRun::new(&inst, opts.lambda, opts.tau, opts.shards, kind, &plan),
        };
        if run.position() > 0 {
            writeln!(
                log,
                "resumed at arrival {} of {}",
                run.position(),
                inst.len()
            )
            .map_err(|e| e.to_string())?;
        }
        let every = opts.checkpoint_every.max(1);
        let mut delivered = 0u64;
        while run.step().map_err(|e| e.to_string())? {
            delivered += 1;
            if let Some(path) = &opts.checkpoint {
                if delivered.is_multiple_of(every) || run.done() {
                    mqd_wal::fsio::write_atomic(path, &encode_checkpoint(&mut run), true)
                        .map_err(|e| format!("--checkpoint {}: {e}", path.display()))?;
                }
            }
        }
        run.finish().map_err(|e| e.to_string())?
    } else {
        run_supervised_stream(&inst, opts.lambda, opts.tau, opts.shards, kind, &plan)
            .map_err(|e| e.to_string())?
    };

    if !res.result.is_cover(&inst, &lam) {
        return Err("internal error: emitted sub-stream is not a cover".into());
    }
    if res.report.tau_violations_unflagged > 0 {
        return Err("internal error: a non-degraded emission exceeded tau".into());
    }
    for e in &res.emissions {
        let labels: Vec<String> = inst
            .labels(e.post)
            .iter()
            .map(|l| l.0.to_string())
            .collect();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            inst.post(e.post).id().0,
            inst.value(e.post),
            labels.join(","),
            e.emit_time,
            e.delay(&inst),
            u8::from(e.degraded),
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(path) = &opts.fault_report {
        std::fs::write(path, res.report.to_json())
            .map_err(|e| format!("--fault-report {}: {e}", path.display()))?;
    }
    writeln!(
        log,
        "{}: emitted {} of {} posts, max delay {} ms (tau {} ms); \
         {} fault(s) injected, {} restart(s), {} degraded emission(s)",
        res.result.algorithm,
        res.result.size(),
        inst.len(),
        res.result.max_delay,
        opts.tau,
        res.report.faults.len(),
        res.report.restarts.len(),
        res.report.counters.degraded_emissions,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// One raw text row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TextRow {
    /// External post id.
    pub id: u64,
    /// Timestamp (ms).
    pub time: i64,
    /// Post text.
    pub text: String,
}

fn parse_err(line_no: usize, msg: impl std::fmt::Display) -> MqdError {
    MqdError::Parse {
        line: line_no,
        msg: msg.to_string(),
    }
}

/// Parses text rows from a reader. Malformed rows are typed
/// [`MqdError::Parse`] errors carrying the 1-based line number.
pub fn read_text(r: impl BufRead) -> Result<Vec<TextRow>, MqdError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(MqdError::from)?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let id: u64 = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing id"))?
            .parse()
            .map_err(|e| parse_err(i + 1, format!("bad id: {e}")))?;
        let time: i64 = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing timestamp"))?
            .parse()
            .map_err(|e| parse_err(i + 1, format!("bad timestamp: {e}")))?;
        let text = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing text"))?
            .to_string();
        out.push(TextRow { id, time, text });
    }
    Ok(out)
}

/// Writes text rows; tabs and newlines inside a text become spaces.
pub fn write_text(mut w: impl Write, rows: &[TextRow]) -> std::io::Result<()> {
    for r in rows {
        writeln!(
            w,
            "{}\t{}\t{}",
            r.id,
            r.time,
            r.text.replace(['\t', '\n'], " ")
        )?;
    }
    Ok(())
}

/// Matching options.
#[derive(Clone, Debug)]
pub struct MatchOpts {
    /// One comma-separated keyword list per query.
    pub queries: Vec<String>,
    /// Drop SimHash near-duplicates first (threshold 3 bits).
    pub dedup: bool,
    /// Use sentiment polarity (fixed-point) as the output value instead of
    /// the timestamp.
    pub sentiment: bool,
}

/// `mqdiv match`: raw text rows → labeled rows via keyword matching, with
/// optional SimHash dedup and sentiment dimension.
pub fn match_posts(
    input: impl BufRead,
    out: impl Write,
    log: &mut impl Write,
    opts: &MatchOpts,
) -> Result<(), String> {
    if opts.queries.is_empty() {
        return Err("need at least one --query".into());
    }
    let queries: Vec<Vec<String>> = opts
        .queries
        .iter()
        .map(|q| q.split(',').map(|s| s.trim().to_lowercase()).collect())
        .collect();
    let matcher = KeywordMatcher::new(&queries);
    let scorer = SentimentScorer::new();
    let rows = read_text(input).map_err(|e| e.to_string())?;
    let total = rows.len();
    let mut dedup = NearDuplicateFilter::new(3);
    let mut matched = Vec::new();
    let mut dropped_dups = 0usize;
    for r in &rows {
        if opts.dedup && !dedup.insert_text(&r.text) {
            dropped_dups += 1;
            continue;
        }
        let labels = matcher.match_labels(&r.text);
        if labels.is_empty() {
            continue;
        }
        let value = if opts.sentiment {
            scorer.score_fixed(&r.text)
        } else {
            r.time
        };
        matched.push(Record {
            id: r.id,
            value,
            labels,
        });
    }
    let kept = matched.len();
    write_tsv_records(out, &matched).map_err(|e| e.to_string())?;
    writeln!(
        log,
        "matched {kept} of {total} posts ({dropped_dups} near-duplicates dropped)"
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Generation options.
#[derive(Clone, Debug)]
pub struct GenOpts {
    /// Generate raw text instead of labeled rows.
    pub text: bool,
    /// Number of labels (labeled mode).
    pub labels: usize,
    /// Matching posts per label per minute (labeled) or tweets per minute
    /// (text).
    pub rate: f64,
    /// Mean labels per post.
    pub overlap: f64,
    /// Stream duration in minutes.
    pub minutes: i64,
    /// RNG seed.
    pub seed: u64,
}

/// `mqdiv gen`: write a synthetic stream.
pub fn generate(out: impl Write, log: &mut impl Write, opts: &GenOpts) -> Result<(), String> {
    if opts.text {
        let tweets = generate_tweets(&TweetStreamConfig {
            tweets_per_minute: opts.rate,
            duration_ms: opts.minutes * MINUTE_MS,
            seed: opts.seed,
            ..Default::default()
        });
        let rows: Vec<TextRow> = tweets
            .iter()
            .enumerate()
            .map(|(i, t)| TextRow {
                id: i as u64,
                time: t.timestamp_ms,
                text: t.text.clone(),
            })
            .collect();
        write_text(out, &rows).map_err(|e| e.to_string())?;
        writeln!(log, "generated {} text posts", rows.len()).map_err(|e| e.to_string())?;
    } else {
        let posts = generate_labeled_posts(&LabeledStreamConfig {
            num_labels: opts.labels,
            per_label_per_minute: opts.rate,
            overlap: opts.overlap,
            duration_ms: opts.minutes * MINUTE_MS,
            seed: opts.seed,
            ..Default::default()
        });
        let rows: Vec<Record> = posts
            .iter()
            .map(|p| Record {
                id: p.id().0,
                value: p.value(),
                labels: p.labels().iter().map(|l| l.0).collect(),
            })
            .collect();
        write_tsv_records(out, &rows).map_err(|e| e.to_string())?;
        writeln!(log, "generated {} labeled posts", rows.len()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `mqdiv oracle` options.
#[derive(Clone, Debug)]
pub struct OracleOpts {
    /// Seeds per profile.
    pub seeds: u64,
    /// First seed of the sweep (re-run a single reported seed with
    /// `--first-seed N --seeds 1`).
    pub first_seed: u64,
    /// Restrict to one profile by name; `None` sweeps all of them.
    pub profile: Option<String>,
    /// Where shrunk reproducers are written on failure.
    pub report_dir: PathBuf,
}

/// `mqdiv oracle`: run the differential/metamorphic correctness sweep.
/// Returns `Err` when any invariant fails, so the process exits nonzero.
pub fn oracle(log: &mut impl Write, opts: &OracleOpts) -> Result<(), String> {
    let profile = match opts.profile.as_deref() {
        None => None,
        Some(name) => Some(mqd_oracle::Profile::from_name(name).ok_or_else(|| {
            format!(
                "--profile {name}: unknown (expected one of: {})",
                mqd_oracle::Profile::all()
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?),
    };
    let cfg = mqd_oracle::OracleConfig {
        seeds: opts.seeds,
        first_seed: opts.first_seed,
        profile,
        report_dir: opts.report_dir.clone(),
        write_reports: true,
    };
    let summary = mqd_oracle::run_oracle(&cfg, log);
    writeln!(
        log,
        "oracle: {} cases, {} checks, {} failure(s)",
        summary.cases,
        summary.checks,
        summary.failures.len()
    )
    .map_err(|e| e.to_string())?;
    if summary.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant failure(s); shrunk repros under {}",
            summary.failures.len(),
            opts.report_dir.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_labeled(minutes: i64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut log = Vec::new();
        generate(
            &mut out,
            &mut log,
            &GenOpts {
                text: false,
                labels: 2,
                rate: 10.0,
                overlap: 1.2,
                minutes,
                seed: 5,
            },
        )
        .unwrap();
        out
    }

    #[test]
    fn gen_then_diversify_round_trip() {
        let data = gen_labeled(5);
        for alg in ["scan", "scan+", "greedy"] {
            let mut out = Vec::new();
            let mut log = Vec::new();
            diversify(
                data.as_slice(),
                &mut out,
                &mut log,
                &DiversifyOpts {
                    lambda: 30_000,
                    algorithm: alg.into(),
                    proportional: false,
                },
            )
            .unwrap();
            let selected = read_tsv_records(out.as_slice()).unwrap();
            let input = read_tsv_records(data.as_slice()).unwrap();
            assert!(!selected.is_empty());
            assert!(selected.len() < input.len());
            let log_s = String::from_utf8(log).unwrap();
            assert!(log_s.contains("kept"), "{log_s}");
        }
    }

    #[test]
    fn diversify_rejects_unknown_algorithm() {
        let data = gen_labeled(1);
        let err = diversify(
            data.as_slice(),
            &mut Vec::new(),
            &mut Vec::new(),
            &DiversifyOpts {
                lambda: 1000,
                algorithm: "magic".into(),
                proportional: false,
            },
        )
        .unwrap_err();
        assert!(err.contains("unknown algorithm"));
    }

    #[test]
    fn proportional_rejects_opt() {
        let data = gen_labeled(1);
        let err = diversify(
            data.as_slice(),
            &mut Vec::new(),
            &mut Vec::new(),
            &DiversifyOpts {
                lambda: 1000,
                algorithm: "opt".into(),
                proportional: true,
            },
        )
        .unwrap_err();
        assert!(err.contains("fixed lambda"));
    }

    #[test]
    fn stream_emits_with_delays() {
        let data = gen_labeled(5);
        for engine in ["scan", "scan+", "greedy", "greedy+", "instant", "adaptive"] {
            let mut out = Vec::new();
            let mut log = Vec::new();
            stream(
                data.as_slice(),
                &mut out,
                &mut log,
                &StreamOpts {
                    lambda: 30_000,
                    tau: 10_000,
                    engine: engine.into(),
                },
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            for line in text.lines() {
                let fields: Vec<&str> = line.split('\t').collect();
                assert_eq!(fields.len(), 5, "{engine}: {line}");
                let delay: i64 = fields[4].parse().unwrap();
                assert!(delay <= 10_000);
            }
        }
    }

    #[test]
    fn stream_rejects_contract_violations() {
        let unsorted = b"0\t100\t0\n1\t50\t1\n";
        let err = stream(
            &unsorted[..],
            &mut Vec::new(),
            &mut Vec::new(),
            &StreamOpts {
                lambda: 10,
                tau: 5,
                engine: "scan".into(),
            },
        )
        .unwrap_err();
        assert!(err.contains("time-sorted"), "{err}");

        let unlabeled = b"0\t100\t0\n1\t200\t\n";
        let err = stream(
            &unlabeled[..],
            &mut Vec::new(),
            &mut Vec::new(),
            &StreamOpts {
                lambda: 10,
                tau: 5,
                engine: "scan".into(),
            },
        )
        .unwrap_err();
        assert!(err.contains("empty label set"), "{err}");
    }

    fn supervised_opts(engine: &str) -> SupervisedStreamOpts {
        SupervisedStreamOpts {
            lambda: 30_000,
            tau: 10_000,
            engine: engine.into(),
            shards: 2,
            checkpoint_every: 64,
            ..Default::default()
        }
    }

    #[test]
    fn stream_supervised_under_chaos_flags_all_late_emissions() {
        let data = gen_labeled(5);
        let dir = std::env::temp_dir().join(format!("mqdiv_sup_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let mut opts = supervised_opts("scan+");
        opts.chaos_seed = Some(7);
        opts.fault_report = Some(report_path.clone());
        let mut out = Vec::new();
        let mut log = Vec::new();
        stream_supervised(data.as_slice(), &mut out, &mut log, &opts).unwrap();
        // Unflagged rows must honor tau; a report must have been written.
        let text = String::from_utf8(out).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 6, "{line}");
            let delay: i64 = fields[4].parse().unwrap();
            let degraded: u8 = fields[5].parse().unwrap();
            if degraded == 0 {
                assert!(delay <= opts.tau, "{line}");
            }
        }
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("\"seed\":7"), "{report}");
        assert!(
            report.contains("\"tau_violations_unflagged\":0"),
            "{report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_supervised_checkpoint_resume_matches_straight_run() {
        let data = gen_labeled(5);
        let dir = std::env::temp_dir().join(format!("mqdiv_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.mqdc");
        // Someone else's file: the checkpoint's temp name must not be
        // derived from the stem (regression: it used to be `state.tmp`).
        let sibling = dir.join("state.tmp");
        std::fs::write(&sibling, b"not a checkpoint").unwrap();

        // Straight threaded run (no checkpointing) as the reference.
        let mut reference = Vec::new();
        stream_supervised(
            data.as_slice(),
            &mut reference,
            &mut Vec::new(),
            &supervised_opts("greedy+"),
        )
        .unwrap();

        // Run once writing rolling checkpoints, then "crash-recover": resume
        // from the final checkpoint (the whole stream already delivered) and
        // again from a mid-stream one.
        let mut opts = supervised_opts("greedy+");
        opts.checkpoint = Some(ckpt.clone());
        opts.checkpoint_every = 50;
        let mut first = Vec::new();
        stream_supervised(data.as_slice(), &mut first, &mut Vec::new(), &opts).unwrap();
        assert_eq!(first, reference, "checkpointing must not change output");
        assert!(ckpt.exists());
        assert_eq!(std::fs::read(&sibling).unwrap(), b"not a checkpoint");
        // Only the checkpoint and the sibling: no temp file is left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);

        let mut resumed = Vec::new();
        let mut log = Vec::new();
        let mut ropts = supervised_opts("greedy+");
        ropts.resume = Some(ckpt.clone());
        stream_supervised(data.as_slice(), &mut resumed, &mut log, &ropts).unwrap();
        // The resumed run replays nothing but still flushes the same cover.
        assert_eq!(resumed, reference);
        assert!(String::from_utf8(log).unwrap().contains("resumed at"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_supervised_rejects_unsupervisable_engines() {
        let data = gen_labeled(1);
        for engine in ["instant", "adaptive", "magic"] {
            let err = stream_supervised(
                data.as_slice(),
                &mut Vec::new(),
                &mut Vec::new(),
                &supervised_opts(engine),
            )
            .unwrap_err();
            assert!(err.contains("supervised"), "{err}");
        }
    }

    #[test]
    fn match_text_to_labels_with_sentiment() {
        let input = b"0\t100\tobama wins a great victory\n1\t200\tlunch was nice\n2\t300\tsenate failure scandal\n";
        let mut out = Vec::new();
        let mut log = Vec::new();
        match_posts(
            &input[..],
            &mut out,
            &mut log,
            &MatchOpts {
                queries: vec!["obama,senate".into()],
                dedup: false,
                sentiment: true,
            },
        )
        .unwrap();
        let rows = read_tsv_records(out.as_slice()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].value > 0, "victory should score positive");
        assert!(rows[1].value < 0, "fails should score negative");
    }

    #[test]
    fn match_requires_queries() {
        let err = match_posts(
            &b""[..],
            &mut Vec::new(),
            &mut Vec::new(),
            &MatchOpts {
                queries: vec![],
                dedup: false,
                sentiment: false,
            },
        )
        .unwrap_err();
        assert!(err.contains("--query"));
    }

    #[test]
    fn text_round_trip_preserves_tabs_as_spaces() {
        let rows = vec![TextRow {
            id: 3,
            time: 42,
            text: "hello\tworld".into(),
        }];
        let mut buf = Vec::new();
        write_text(&mut buf, &rows).unwrap();
        let parsed = read_text(buf.as_slice()).unwrap();
        assert_eq!(parsed[0].text, "hello world");
        // text may contain further tabs on read (splitn keeps them)
        let raw = b"1\t5\ta\tb\tc\n";
        let parsed = read_text(&raw[..]).unwrap();
        assert_eq!(parsed[0].text, "a\tb\tc");
    }

    #[test]
    fn gen_text_mode() {
        let mut out = Vec::new();
        let mut log = Vec::new();
        generate(
            &mut out,
            &mut log,
            &GenOpts {
                text: true,
                labels: 0,
                rate: 30.0,
                overlap: 1.0,
                minutes: 2,
                seed: 1,
            },
        )
        .unwrap();
        let rows = read_text(out.as_slice()).unwrap();
        assert!(!rows.is_empty());
    }
}
