//! `mqdiv load`: the open-loop scenario driver front-end (DESIGN.md §17).
//!
//! Builds the deterministic scenario plan ([`mqd_load::scenario`]), runs
//! it against a live endpoint (`--addr`, the wire protocol over TCP), and
//! writes the `BENCH_load_<scenario>.json` evidence artifact with the SLO
//! verdict embedded.

use std::io::Write;

use mqd_load::{build, evaluate_slo, render_report, run_live, ScenarioCfg, CATALOG};

/// Options for `mqdiv load`.
pub struct LoadOpts {
    /// Scenario name from [`mqd_load::CATALOG`].
    pub scenario: String,
    /// Live target (`host:port`); required.
    pub addr: Option<String>,
    /// The one seed every client action derives from.
    pub seed: u64,
    /// Mean offered rate, requests/second.
    pub rate: f64,
    /// Run length in milliseconds.
    pub duration_ms: u64,
    /// Paced connection lanes.
    pub lanes: u16,
    /// Report path; `None` writes `BENCH_load_<scenario>.json` in the
    /// working directory.
    pub out: Option<std::path::PathBuf>,
    /// Exit with an error when the SLO fails (for CI).
    pub check: bool,
}

impl Default for LoadOpts {
    fn default() -> Self {
        let cfg = ScenarioCfg::default();
        LoadOpts {
            scenario: "steady".into(),
            addr: None,
            seed: cfg.seed,
            rate: cfg.rate,
            duration_ms: cfg.duration_ms,
            lanes: cfg.lanes,
            out: None,
            check: false,
        }
    }
}

/// Runs one scenario and writes its evidence artifact. Returns the SLO
/// violations (empty = pass) so callers can script on the verdict.
pub fn load(log: &mut impl Write, opts: &LoadOpts) -> Result<Vec<String>, String> {
    let cfg = ScenarioCfg {
        seed: opts.seed,
        rate: opts.rate,
        duration_ms: opts.duration_ms,
        lanes: opts.lanes,
        ..ScenarioCfg::default()
    };
    let plan = build(&opts.scenario, &cfg).map_err(|e| {
        let names: Vec<&str> = CATALOG.iter().map(|(n, _)| *n).collect();
        format!("{e} (scenarios: {})", names.join(", "))
    })?;
    let addr = opts.addr.as_ref().ok_or("--addr HOST:PORT is required")?;
    writeln!(
        log,
        "scenario {}: {} op(s) ({} query, {} ingest), {} slow conn(s), digest {:016x}",
        plan.scenario,
        plan.ops.len(),
        plan.query_ops(),
        plan.ingest_ops(),
        plan.slow_conns.len(),
        plan.digest()
    )
    .map_err(|e| e.to_string())?;

    let outcome = run_live(&plan, addr).map_err(|e| e.to_string())?;
    let violations = evaluate_slo(&plan.scenario, &outcome);

    let report = render_report(&plan, &outcome);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_load_{}.json", plan.scenario).into());
    std::fs::write(&path, &report).map_err(|e| format!("write {}: {e}", path.display()))?;
    writeln!(
        log,
        "{}: {} ok / {} overloaded / {} timeout / {} error / {} dropped -> {}",
        if violations.is_empty() {
            "SLO pass"
        } else {
            "SLO FAIL"
        },
        outcome.counts.ok,
        outcome.counts.overloads,
        outcome.counts.timeouts,
        outcome.counts.errors,
        outcome.counts.dropped,
        path.display()
    )
    .map_err(|e| e.to_string())?;
    for v in &violations {
        writeln!(log, "  violation: {v}").map_err(|e| e.to_string())?;
    }
    if opts.check && !violations.is_empty() {
        return Err(format!(
            "SLO failed for {} ({} violation(s); see {})",
            plan.scenario,
            violations.len(),
            path.display()
        ));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_lists_the_catalog() {
        let mut log = Vec::new();
        let err = load(
            &mut log,
            &LoadOpts {
                scenario: "nope".into(),
                ..LoadOpts::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("steady"), "{err}");
        assert!(err.contains("slowloris"), "{err}");
    }

    #[test]
    fn target_flags_are_validated() {
        let mut log = Vec::new();
        let err = load(&mut log, &LoadOpts::default()).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
    }
}
