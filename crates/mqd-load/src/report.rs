//! SLO evidence artifacts: `BENCH_load_<scenario>.json`.
//!
//! Every run funnels into one [`RunOutcome`] and is rendered by
//! [`render_report`] with byte-stable formatting (integers and
//! fixed-precision floats only, keys in a pinned order): the plan block
//! (digest, op mix, offered rate) is identical for a seed, so any report
//! names the exact schedule that produced it. The SLO verdict is embedded
//! in the artifact — the evidence-file discipline: the claim, the
//! numbers, and the replay coordinates travel together.

use mqd_server::json_u64;

use crate::hist::Hist;
use crate::plan::Plan;

/// Typed response tallies for the paced ops.
#[derive(Clone, Default, Debug)]
pub struct Counts {
    /// `+OK` responses.
    pub ok: u64,
    /// `-ERR` responses other than timeouts (protocol/server faults).
    pub errors: u64,
    /// Typed `-OVERLOADED` admission rejections.
    pub overloads: u64,
    /// Typed `-ERR Timeout` responses (idle/body deadline enforced).
    pub timeouts: u64,
    /// Ops with no response inside the runner's patience (or never sent
    /// because the lane's connection failed).
    pub dropped: u64,
}

impl Counts {
    /// Every op accounted for, across all outcomes.
    pub fn total(&self) -> u64 {
        self.ok + self.errors + self.overloads + self.timeouts + self.dropped
    }
}

/// What became of the slow-connection fleet.
#[derive(Clone, Default, Debug)]
pub struct SlowOutcome {
    /// Connections that reached the server.
    pub opened: u64,
    /// Ended with a typed `-ERR`/`-OVERLOADED` response.
    pub typed_rejected: u64,
    /// Server closed the socket without a readable typed response.
    pub server_closed: u64,
    /// Still parked on a worker when the run ended — the starvation case
    /// the slowloris SLO forbids.
    pub unresolved: u64,
}

/// Aggregated result of executing a [`Plan`].
#[derive(Clone)]
pub struct RunOutcome {
    /// Latency of every responded op, µs from the *scheduled* deadline.
    pub all_hist: Hist,
    /// Latency of query ops only.
    pub query_hist: Hist,
    /// Response tallies.
    pub counts: Counts,
    /// Slow-connection fleet outcome.
    pub slow: SlowOutcome,
    /// Wall-clock run length, µs.
    pub wall_us: u64,
    /// Raw `STATS` JSON before the run (`None` when the fetch failed).
    pub stats_before: Option<String>,
    /// Raw `STATS` JSON after the run (`None` when the fetch failed).
    pub stats_after: Option<String>,
}

/// The STATS keys the report tracks as before/after deltas: cache pressure
/// (what adversarial-ingest maximizes) and the served-section tallies.
const DELTA_KEYS: &[&str] = &[
    "repairs",
    "refreshes",
    "stale_served",
    "invalidations",
    "queries",
    "ingested_rows",
    "errors",
    "overloads",
    "timeouts",
];

fn render_stats_delta(before: &str, after: &str) -> String {
    let mut parts = Vec::with_capacity(DELTA_KEYS.len() + 1);
    for key in DELTA_KEYS {
        let b = json_u64(before, key);
        let a = json_u64(after, key);
        let v = match (b, a) {
            (Some(b), Some(a)) => a.saturating_sub(b).to_string(),
            _ => "null".to_string(),
        };
        parts.push(format!("\"{key}\":{v}"));
    }
    // Router targets expose per-backend liveness; count what's alive now.
    let alive = after.matches("\"alive\":true").count();
    let dead = after.matches("\"alive\":false").count();
    if alive + dead > 0 {
        parts.push(format!("\"backends_alive\":{alive}"));
        parts.push(format!("\"backends_dead\":{dead}"));
    }
    format!("{{{}}}", parts.join(","))
}

/// Evaluates the scenario's SLO, returning human-readable violations
/// (empty = pass). Overloads and typed timeouts are *not* failures — they
/// are the admission controller doing its job; silent drops and untyped
/// errors are.
pub fn evaluate_slo(scenario: &str, out: &RunOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let total = out.counts.total();
    if total == 0 {
        v.push("no ops were attempted".to_string());
        return v;
    }
    let frac = |n: u64| n as f64 / total as f64;
    if frac(out.counts.errors) > 0.01 {
        v.push(format!(
            "error rate {:.3} exceeds 0.01 ({} of {total})",
            frac(out.counts.errors),
            out.counts.errors
        ));
    }
    if frac(out.counts.dropped) > 0.10 {
        v.push(format!(
            "dropped-op rate {:.3} exceeds 0.10 ({} of {total}): ops got no response at all",
            frac(out.counts.dropped),
            out.counts.dropped
        ));
    }
    if scenario == "slowloris" {
        if out.slow.unresolved > 0 {
            v.push(format!(
                "{} slow connection(s) still parked on a worker at run end (starvation, not admission control)",
                out.slow.unresolved
            ));
        }
        if out.slow.opened > 0 && out.slow.typed_rejected + out.slow.server_closed == 0 {
            v.push("no slow connection was rejected or closed".to_string());
        }
        if frac(out.counts.ok) < 0.90 {
            v.push(format!(
                "liveness probes succeeded at only {:.3} under slowloris pressure",
                frac(out.counts.ok)
            ));
        }
    }
    v
}

fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Renders the full evidence artifact. Key order is part of the format
/// contract; `"mode"` is the constant `"live"` (the only executor).
pub fn render_report(plan: &Plan, out: &RunOutcome) -> String {
    let violations = evaluate_slo(&plan.scenario, out);
    let wall_s = (out.wall_us.max(1)) as f64 / 1_000_000.0;
    let achieved = out.counts.ok as f64 / wall_s;
    let mut s = String::with_capacity(2048);
    s.push_str(&format!(
        concat!(
            "{{\"bench\":\"load\",\"scenario\":\"{}\",\"mode\":\"live\",\"seed\":{},\n",
            " \"plan\":{{\"digest\":\"{:016x}\",\"ops\":{},\"query_ops\":{},\"ingest_ops\":{},",
            "\"slow_conns\":{},\"duration_ms\":{},\"lanes\":{}}},\n"
        ),
        plan.scenario,
        plan.seed,
        plan.digest(),
        plan.ops.len(),
        plan.query_ops(),
        plan.ingest_ops(),
        plan.slow_conns.len(),
        plan.duration_us / 1000,
        plan.lanes,
    ));
    s.push_str(&format!(
        " \"offered_rate\":{},\"achieved_rps\":{},\n",
        f1(plan.offered_rate),
        f1(achieved)
    ));
    s.push_str(&format!(" \"latency_us\":{},\n", out.all_hist.to_json()));
    s.push_str(&format!(
        " \"query_latency_us\":{},\n",
        out.query_hist.to_json()
    ));
    s.push_str(&format!(
        " \"counts\":{{\"ok\":{},\"errors\":{},\"overloads\":{},\"timeouts\":{},\"dropped\":{}}},\n",
        out.counts.ok, out.counts.errors, out.counts.overloads, out.counts.timeouts, out.counts.dropped
    ));
    s.push_str(&format!(
        " \"slow_conns\":{{\"opened\":{},\"typed_rejected\":{},\"server_closed\":{},\"unresolved\":{}}},\n",
        out.slow.opened, out.slow.typed_rejected, out.slow.server_closed, out.slow.unresolved
    ));
    match (&out.stats_before, &out.stats_after) {
        (Some(b), Some(a)) => {
            s.push_str(&format!(" \"stats_delta\":{},\n", render_stats_delta(b, a)));
        }
        _ => s.push_str(" \"stats_delta\":null,\n"),
    }
    let viol_json: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('"', "'")))
        .collect();
    s.push_str(&format!(
        " \"slo\":{{\"pass\":{},\"violations\":[{}]}},\n",
        violations.is_empty(),
        viol_json.join(",")
    ));
    s.push_str(&format!(
        " \"replay\":\"mqdiv load --scenario {} --seed {} --rate {} --duration-ms {}\"}}\n",
        plan.scenario,
        plan.seed,
        f1(plan.offered_rate),
        plan.duration_us / 1000
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        let mut all = Hist::new();
        let mut q = Hist::new();
        for v in [100u64, 200, 400, 800] {
            all.record(v);
            q.record(v);
        }
        RunOutcome {
            all_hist: all,
            query_hist: q,
            counts: Counts {
                ok: 4,
                ..Counts::default()
            },
            slow: SlowOutcome::default(),
            wall_us: 1_000_000,
            stats_before: None,
            stats_after: None,
        }
    }

    fn tiny_plan() -> Plan {
        Plan {
            scenario: "steady".into(),
            seed: 7,
            duration_us: 1_000_000,
            offered_rate: 4.0,
            lanes: 1,
            ops: Vec::new(),
            slow_conns: Vec::new(),
        }
    }

    #[test]
    fn stats_delta_subtracts_and_counts_liveness() {
        let before = r#"{"repairs":10,"refreshes":1,"stale_served":5,"invalidations":0,"queries":100,"ingested_rows":50,"errors":0,"overloads":0,"timeouts":0}"#;
        let after = r#"{"repairs":25,"refreshes":2,"stale_served":9,"invalidations":1,"queries":300,"ingested_rows":80,"errors":1,"overloads":4,"timeouts":2,"backends":[{"alive":true},{"alive":false}]}"#;
        let d = render_stats_delta(before, after);
        assert!(d.contains("\"repairs\":15"), "{d}");
        assert!(d.contains("\"queries\":200"), "{d}");
        assert!(d.contains("\"timeouts\":2"), "{d}");
        assert!(d.contains("\"backends_alive\":1"), "{d}");
        assert!(d.contains("\"backends_dead\":1"), "{d}");
    }

    #[test]
    fn report_is_byte_stable_and_carries_slo() {
        let p = tiny_plan();
        let o = outcome();
        let a = render_report(&p, &o);
        let b = render_report(&p, &o);
        assert_eq!(a, b);
        assert!(a.contains("\"bench\":\"load\""));
        assert!(a.contains("\"p999\""));
        assert!(a.contains("\"slo\":{\"pass\":true"));
        assert!(a.contains("\"replay\":\"mqdiv load --scenario steady --seed 7"));
    }

    #[test]
    fn slo_flags_untyped_failures_not_typed_rejections() {
        let mut o = outcome();
        o.counts.overloads = 1000; // typed rejections are fine
        assert!(evaluate_slo("steady", &o).is_empty());
        o.counts.errors = 200; // untyped server faults are not
        assert!(!evaluate_slo("steady", &o).is_empty());
    }

    #[test]
    fn slowloris_slo_requires_resolution() {
        let mut o = outcome();
        o.slow.opened = 8;
        o.slow.typed_rejected = 8;
        assert!(evaluate_slo("slowloris", &o).is_empty());
        o.slow.unresolved = 1;
        let v = evaluate_slo("slowloris", &o);
        assert!(v.iter().any(|m| m.contains("parked")), "{v:?}");
        o.slow.unresolved = 0;
        o.slow.typed_rejected = 0;
        o.slow.server_closed = 0;
        assert!(!evaluate_slo("slowloris", &o).is_empty());
    }
}
