//! Turns what a run observed into named metrics and guard verdicts.
//! `BENCHMARK.json` lists exactly the names produced here (a self-test
//! holds the two together).

use crate::layers::{names, Span, SEGMENT_ROWS, SETUP_OP};
use crate::live::{LiveRun, Stats, LANES, WINDOW};
use crate::plan::{OpKind, Plan, Tier, Workload, CACHE_CAPACITY, TIER_SHARES};
use crate::stats::{median, percentile_of, supported_tail, windowed_percentile};
use crate::wire::Outcome;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Latency of an answered op, ns from its *scheduled* send.
fn latency_ns(plan: &Plan, i: usize, outcome: &Outcome) -> u64 {
    outcome.done_ns.saturating_sub(plan.ops[i].at_us * 1_000)
}

/// `(scheduled send µs, latency ns)` of every `+OK` op of one kind.
fn samples(plan: &Plan, outcomes: &[Outcome], queries: bool) -> Vec<(u64, u64)> {
    let ops = plan.ops.iter().zip(outcomes).enumerate();
    ops.filter(|(_, (op, o))| matches!(op.kind, OpKind::Query(_)) == queries && o.is_ok())
        .map(|(i, (op, o))| (op.at_us, latency_ns(plan, i, o)))
        .collect()
}

/// The queries answered `+OK`: `(op index, spec index, outcome)`.
fn ok_queries<'a>(
    plan: &'a Plan,
    outcomes: &'a [Outcome],
) -> impl Iterator<Item = (usize, usize, &'a Outcome)> {
    let ops = plan.ops.iter().zip(outcomes).enumerate();
    ops.filter_map(|(i, (op, o))| match op.kind {
        OpKind::Query(spec) if o.is_ok() => Some((i, spec, o)),
        _ => None,
    })
}

fn p_us(latencies_ns: &[u64], p: f64) -> f64 {
    percentile_of(latencies_ns, p).map_or(0.0, |v| v as f64 / 1e3)
}

/// Percentile `p` of each [`WINDOW`], median over the windows, in µs.
fn windowed_us(samples: &[(u64, u64)], live: &LiveRun, p: f64) -> f64 {
    let width_us = WINDOW.as_micros() as u64;
    windowed_percentile(samples, width_us, live.window_cpu_us.len(), p).unwrap_or(0.0) / 1e3
}

/// Server CPU per answered op: per [`WINDOW`], the servers' on-CPU time over
/// the ops scheduled in it; median over the windows.
fn cpu_us_per_op(plan: &Plan, live: &LiveRun) -> f64 {
    let windows = live.window_cpu_us.len().max(1);
    let mut ops = vec![0u32; windows];
    for (op, outcome) in plan.ops.iter().zip(&live.outcomes) {
        if outcome.is_ok() {
            let w = (op.at_us / WINDOW.as_micros() as u64) as usize;
            ops[w.min(windows - 1)] += 1;
        }
    }
    let per_window: Vec<f64> = live
        .window_cpu_us
        .iter()
        .zip(&ops)
        .filter(|(_, &n)| n > 0)
        .map(|(cpu_us, &n)| cpu_us / n as f64)
        .collect();
    median(&per_window).unwrap_or(0.0)
}

/// The metrics a user of the system would see. `failed` counts timed ops
/// that went unanswered or were refused, plus every wrong answer found.
pub fn end_to_end(plan: &Plan, live: &LiveRun, failed: usize) -> Vec<Metric> {
    let answered = ok_queries(plan, &live.outcomes).count();
    let rows: u64 = ok_queries(plan, &live.outcomes)
        .map(|(_, _, o)| o.rows as u64)
        .sum();
    vec![
        metric("setup_s", median(&live.setup_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", live.peak_rss_mb, "MiB"),
        metric(
            "ok_share",
            1.0 - failed as f64 / plan.ops.len().max(1) as f64,
            "share",
        ),
        metric(
            "cover_rows_mean",
            rows as f64 / answered.max(1) as f64,
            "rows",
        ),
    ]
}

/// Durations and per-unit costs of the timed-phase spans of one name.
struct Layer<'a> {
    spans: Vec<&'a Span>,
}

impl<'a> Layer<'a> {
    fn of(spans: &'a [Span], name: &str, setup: bool) -> Self {
        Layer {
            spans: spans
                .iter()
                .filter(|s| s.name == name && (s.op == SETUP_OP) == setup)
                .collect(),
        }
    }

    /// Only the spans that handled at least one unit.
    fn busy(mut self) -> Self {
        self.spans.retain(|s| s.units > 0);
        self
    }

    /// Median duration, ns.
    fn p50_ns(&self) -> f64 {
        let d: Vec<u64> = self.spans.iter().map(|s| s.ns()).collect();
        percentile_of(&d, 0.50).map_or(0.0, |v| v as f64)
    }

    /// Median over spans of duration ÷ units, ns (spans of no units left out).
    fn ns_per_unit(&self) -> f64 {
        let r: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.units > 0)
            .map(|s| s.ns() as f64 / s.units as f64)
            .collect();
        median(&r).unwrap_or(0.0)
    }
}

/// What the traced pass adds to the live run.
pub struct Traced<'a> {
    pub spans: &'a [Span],
    /// Wall time of the timed ops, replayed with and without spans.
    pub timed_ns: (u64, u64),
    pub recovered_rows: u64,
}

/// The per-layer metrics. Sources: T = a span of the traced pass, S = a
/// `STATS` delta of the live run, L = live timing classified by the plan.
/// A layer the workload leaves idle reads 0.
pub fn per_layer(plan: &Plan, live: &LiveRun, traced: &Traced) -> Vec<Metric> {
    let t = |name: &str| Layer::of(traced.spans, name, false);
    let setup = |name: &str| Layer::of(traced.spans, name, true);
    let queries = samples(plan, &live.outcomes, true);
    let mut query_ns: Vec<u64> = queries.iter().map(|s| s.1).collect();
    query_ns.sort_unstable();
    let ingests = samples(plan, &live.outcomes, false);
    let answered = query_ns.len().max(1) as f64;
    let s = &live.stats;
    let ingested: usize = plan
        .ops
        .iter()
        .zip(&live.outcomes)
        .filter_map(|(op, o)| match &op.kind {
            OpKind::Ingest(r) if o.is_ok() => Some(r.len()),
            _ => None,
        })
        .sum();
    let lookups = (s.hits + s.misses).max(1) as f64;
    let wal_pending = s.generation % SEGMENT_ROWS;
    let resp_bytes: u64 = ok_queries(plan, &live.outcomes)
        .map(|(_, _, o)| o.wire_bytes as u64)
        .sum();
    let tier_p50 = |tier: Tier| {
        let routed = plan.workload == Workload::RoutedMix;
        let ns: Vec<u64> = ok_queries(plan, &live.outcomes)
            .filter(|&(_, q, _)| routed && Plan::tier_of(&plan.specs[q]) == tier)
            .map(|(i, _, o)| latency_ns(plan, i, o))
            .collect();
        p_us(&ns, 0.50)
    };
    let late: Vec<u64> = plan
        .ops
        .iter()
        .zip(&live.outcomes)
        .filter(|(_, o)| o.sent_ns != 0)
        .map(|(op, o)| o.sent_ns.saturating_sub(op.at_us * 1_000))
        .collect();
    let trace_query_p50_us = t(names::OP_QUERY).p50_ns() / 1e3;
    let live_query_p50_us = windowed_us(&queries, live, 0.50);
    let open = setup(names::WAL_OPEN);
    let d = live.durability.clone().unwrap_or_default();
    vec![
        // T: solvers, per post of the slice they solved.
        metric(
            "mqd-core.scan_ns_per_post",
            t(names::SCAN).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-core.scanplus_ns_per_post",
            t(names::SCANPLUS).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-core.greedysc_ns_per_post",
            t(names::GREEDYSC).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-core.render_ns_per_row",
            t(names::RENDER).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-core.decode_ns_per_row",
            t(names::DECODE).ns_per_unit(),
            "ns",
        ),
        // T: store and cache.
        metric("mqd-store.slice_us", t(names::SLICE).p50_ns() / 1e3, "us"),
        metric(
            "mqd-store.slice_ns_per_post",
            t(names::SLICE).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-store.lookup_hit_us",
            t(names::LOOKUP_HIT).p50_ns() / 1e3,
            "us",
        ),
        metric(
            "mqd-store.lookup_miss_us",
            t(names::LOOKUP_MISS).p50_ns() / 1e3,
            "us",
        ),
        metric(
            "mqd-store.insert_fresh_us",
            t(names::INSERT_FRESH).p50_ns() / 1e3,
            "us",
        ),
        metric(
            "mqd-store.apply_delta_us",
            t(names::APPLY_DELTA).p50_ns() / 1e3,
            "us",
        ),
        metric(
            "mqd-store.append_ns_per_row",
            setup(names::APPEND).ns_per_unit(),
            "ns",
        ),
        // S: what the cache says it did over the timed phase.
        metric(
            "mqd-store.cache_hit_ratio",
            s.hits as f64 / lookups,
            "share",
        ),
        metric(
            "mqd-store.repairs_per_row",
            s.repairs as f64 / ingested.max(1) as f64,
            "1/row",
        ),
        metric("mqd-store.refreshes", s.refreshes as f64, "count"),
        metric(
            "mqd-store.stale_share",
            s.stale_served as f64 / lookups,
            "share",
        ),
        // T: incremental repair.
        metric(
            "mqd-stream.repair_state_us",
            t(names::REPAIR_STATE).busy().p50_ns() / 1e3,
            "us",
        ),
        metric(
            "mqd-stream.repair_ns_per_row",
            t(names::REPAIR_OBSERVE).ns_per_unit(),
            "ns",
        ),
        // T: the WAL on a real directory with fsync on.
        metric(
            "mqd-wal.append_us",
            t(names::WAL_APPEND).p50_ns() / 1e3,
            "us",
        ),
        metric("mqd-wal.sync_us", t(names::WAL_SYNC).p50_ns() / 1e3, "us"),
        metric("mqd-wal.seal_ms", t(names::WAL_SEAL).p50_ns() / 1e6, "ms"),
        // S: WAL size over the rows it holds; seals during the timed phase.
        metric(
            "mqd-wal.wal_bytes_per_row",
            if wal_pending == 0 {
                0.0
            } else {
                s.wal_bytes as f64 / wal_pending as f64
            },
            "B/row",
        ),
        metric(
            "mqd-wal.segments_flushed",
            s.segments_flushed as f64,
            "count",
        ),
        // L and T: the restart path.
        metric("mqd-wal.recover_ms", d.recover_ms, "ms"),
        metric(
            "mqd-wal.recover_rows_per_s",
            if open.p50_ns() == 0.0 {
                0.0
            } else {
                traced.recovered_rows as f64 / open.p50_ns() * 1e9
            },
            "rows/s",
        ),
        metric("mqd-wal.disk_bytes_per_row", d.disk_bytes_per_row, "B/row"),
        // T and L: framing and the wire.
        metric("mqd-server.parse_ns", t(names::PARSE).p50_ns(), "ns"),
        metric(
            "mqd-server.frame_ns_per_row",
            t(names::FRAME).ns_per_unit(),
            "ns",
        ),
        metric(
            "mqd-server.resp_bytes_per_query",
            resp_bytes as f64 / answered,
            "B",
        ),
        metric("mqd-server.ping_p50_us", p_us(&live.ping_ns, 0.50), "us"),
        metric(
            "mqd-server.wire_share",
            if live_query_p50_us == 0.0 {
                0.0
            } else {
                1.0 - trace_query_p50_us / live_query_p50_us
            },
            "share",
        ),
        // L and T: the router.
        metric("mqd-router.forward_p50_us", tier_p50(Tier::Forward), "us"),
        metric("mqd-router.cover_p50_us", tier_p50(Tier::Cover), "us"),
        metric("mqd-router.gather_p50_us", tier_p50(Tier::Gather), "us"),
        metric("mqd-router.merge_us", t(names::MERGE).p50_ns() / 1e3, "us"),
        metric(
            "mqd-router.resolve_us",
            t(names::RESOLVE).p50_ns() / 1e3,
            "us",
        ),
        // The reconciling rows: the whole op, replayed without sockets.
        metric("trace.query_op_p50_us", trace_query_p50_us, "us"),
        metric(
            "trace.ingest_op_p50_us",
            t(names::OP_INGEST).p50_ns() / 1e3,
            "us",
        ),
        metric(
            "trace.refresh_op_p50_us",
            t(names::OP_REFRESH).p50_ns() / 1e3,
            "us",
        ),
        // The generator: how far to trust the run.
        metric("client.gen_late_p50_us", p_us(&late, 0.50), "us"),
        metric("client.gen_late_p99_us", p_us(&late, 0.99), "us"),
        metric("client.steal_share", live.steal_share, "share"),
        metric("client.gen_cpu_share", live.gen_cpu_share, "share"),
        metric("client.cpu_us_per_op", cpu_us_per_op(plan, live), "us"),
        metric("client.query_p50_us", live_query_p50_us, "us"),
        metric(
            "client.query_p90_us",
            windowed_us(&queries, live, 0.90),
            "us",
        ),
        metric(
            "client.query_p99_us",
            supported_tail(&query_ns).map_or(0.0, |(_, v)| v as f64 / 1e3),
            "us",
        ),
        metric(
            "client.query_tail_percentile",
            supported_tail(&query_ns).map_or(0.0, |(p, _)| p),
            "share",
        ),
        metric(
            "client.ingest_p50_us",
            windowed_us(&ingests, live, 0.50),
            "us",
        ),
        metric(
            "client.ingest_p90_us",
            windowed_us(&ingests, live, 0.90),
            "us",
        ),
        metric("client.samples", query_ns.len() as f64, "count"),
        metric(
            "client.trace_overhead_share",
            (traced.timed_ns.0 as f64 - traced.timed_ns.1 as f64) / traced.timed_ns.1.max(1) as f64,
            "share",
        ),
    ]
}

/// Where an op's time goes, by layer: per kind of op, the mean duration of
/// its span and the mean each child layer accounts for. `self` is the op
/// span minus all its children — glue the replay itself adds plus whatever
/// no span covers. Means, because unlike medians they add up.
pub fn breakdown(spans: &[Span]) -> Vec<String> {
    let mut out = Vec::new();
    for root in [names::OP_QUERY, names::OP_INGEST, names::OP_REFRESH] {
        let is_root = |s: &Span| s.name == root && s.op != SETUP_OP;
        let count = spans.iter().filter(|s| is_root(s)).count();
        if count == 0 {
            continue;
        }
        let total: u64 = spans.iter().filter(|s| is_root(s)).map(Span::ns).sum();
        let mut layers: std::collections::BTreeMap<&str, u64> = Default::default();
        for s in spans {
            if spans.get(s.parent as usize).is_some_and(is_root) {
                *layers.entry(s.name).or_default() += s.ns();
            }
        }
        let mean_us = |ns: u64| ns as f64 / count as f64 / 1e3;
        let covered: u64 = layers.values().sum();
        let mut parts: Vec<(&str, u64)> = layers.into_iter().collect();
        parts.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        parts.push(("self", total.saturating_sub(covered)));
        let parts: Vec<String> = parts
            .iter()
            .map(|&(name, ns)| format!("{name} {:.1}", mean_us(ns)))
            .collect();
        out.push(format!(
            "{root} x{count}: mean {:.1} us = {}",
            mean_us(total),
            parts.join(" + ")
        ));
    }
    out
}

/// One workload guard: the run fails when a workload stops doing what its
/// name says.
#[derive(Clone, Debug)]
pub struct Guard {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn guard(name: &'static str, ok: bool, detail: String) -> Guard {
    Guard { name, ok, detail }
}

/// Tier shares of `routed-mix` as the live system saw them, from `STATS`
/// alone: forwards are the only queries that reach a backend's cache, a
/// `COVER` union costs one backend query per shard, and a `SLICE` gather
/// none.
pub fn measured_tier_shares(router: &Stats, backends: &[Stats]) -> [(Tier, f64); 3] {
    let forward = backends.iter().map(|b| b.hits + b.misses).sum::<u64>() as f64;
    let backend_queries = backends.iter().map(|b| b.queries).sum::<u64>() as f64;
    let cover = (backend_queries - forward) / backends.len().max(1) as f64;
    let all = (router.queries as f64).max(1.0);
    [
        (Tier::Forward, forward / all),
        (Tier::Cover, cover / all),
        (Tier::Gather, (all - forward - cover) / all),
    ]
}

/// Evaluates the guards. `full_size` is false under `--quick`, where the
/// run is too short for the guards that need a minimum of traffic.
pub fn guards(plan: &Plan, live: &LiveRun, nproc: usize, full_size: bool) -> Vec<Guard> {
    let s = &live.stats;
    let answered = ok_queries(plan, &live.outcomes).count() as u64;
    let allowed = nproc.max(LANES);
    let mut out = vec![guard(
        "generator threads and connections <= nproc",
        LANES <= allowed && live.threads_mid_run <= allowed + 1,
        format!(
            "{LANES} connections, {} threads mid-run (lanes + the parked main thread), nproc {nproc}",
            live.threads_mid_run
        ),
    )];
    match plan.workload {
        Workload::HotRead => out.push(guard(
            "hit ratio exactly 1.0",
            s.misses == 0 && s.hits == answered && s.hits > 0,
            format!(
                "{} hits, {} misses, {answered} queries answered",
                s.hits, s.misses
            ),
        )),
        Workload::ColdSolve => {
            out.push(guard(
                "hit ratio exactly 0.0",
                s.hits == 0 && s.misses == answered && s.misses > 0,
                format!(
                    "{} hits, {} misses, {answered} queries answered",
                    s.hits, s.misses
                ),
            ));
            out.push(guard(
                "cache at capacity, so every insert evicts",
                s.entries == CACHE_CAPACITY as u64,
                format!("{} entries of {CACHE_CAPACITY}", s.entries),
            ));
        }
        Workload::IngestRepair => {
            let before = plan.corpus.len() as u64;
            let expected = s.generation / SEGMENT_ROWS - before / SEGMENT_ROWS;
            out.push(guard(
                "segment seals as the row count dictates",
                s.segments_flushed == expected && (expected >= 2 || !full_size),
                format!(
                    "{} seals, {expected} expected (>= 2 at full size)",
                    s.segments_flushed
                ),
            ));
            out.push(guard(
                "repairs > 0",
                s.repairs > 0,
                format!("{} repairs", s.repairs),
            ));
            out.push(guard(
                "refreshes > 0",
                s.refreshes > 0,
                format!("{} refreshes", s.refreshes),
            ));
            out.push(guard(
                "stale_served > 0",
                s.stale_served > 0 || !full_size,
                format!("{} stale answers served", s.stale_served),
            ));
        }
        Workload::RoutedMix => {
            let measured = measured_tier_shares(s, &live.backend_stats);
            let detail: Vec<String> = measured
                .iter()
                .zip(TIER_SHARES)
                .map(|((tier, got), (_, want))| format!("{tier:?} {got:.3} (plan {want:.2})"))
                .collect();
            out.push(guard(
                "tier shares within 2 points of plan",
                measured
                    .iter()
                    .zip(TIER_SHARES)
                    .all(|((_, got), (_, want))| (got - want).abs() <= 0.02),
                detail.join(", "),
            ));
        }
    }
    out
}

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` — the line
/// the driver reads.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

/// Every digit of the measurement; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let line = json_line(
            true,
            10,
            0,
            &[metric("a_us", 1.25, "us"), metric("b", f64::NAN, "share")],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a_us":{"value":1.25,"unit":"us"},"b":{"value":0,"unit":"share"}}}"#
        );
    }

    /// `"name": "x"` values of the array under `key` in BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let from = json.find(&format!("\"{key}\"")).expect(key);
        let array = &json[from..from + json[from..].find(']').expect("array end")];
        array
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect(path);
        let plan = Plan::build(Workload::HotRead, 1, 1, 200);
        let live = LiveRun::default();
        let names = |m: Vec<Metric>| m.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(
            declared(&json, "end_to_end"),
            names(end_to_end(&plan, &live, 0))
        );
        let traced = Traced {
            spans: &[],
            timed_ns: (0, 0),
            recovered_rows: 0,
        };
        assert_eq!(
            declared(&json, "per_layer"),
            names(per_layer(&plan, &live, &traced))
        );
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared(&json, "workloads"), workloads);
    }

    #[test]
    fn tier_shares_come_out_of_stats_alone() {
        // 40 forwards (cache lookups on backends), 30 covers (2 backend
        // queries each, no lookup), 30 gathers (SLICE: not a query).
        let router = Stats {
            queries: 100,
            ..Stats::default()
        };
        let b0 = Stats {
            hits: 5,
            misses: 15,
            queries: 20 + 30,
            ..Stats::default()
        };
        let b1 = Stats {
            hits: 0,
            misses: 20,
            queries: 20 + 30,
            ..Stats::default()
        };
        let got = measured_tier_shares(&router, &[b0, b1]);
        assert_eq!(
            got,
            [
                (Tier::Forward, 0.40),
                (Tier::Cover, 0.30),
                (Tier::Gather, 0.30)
            ]
        );
    }
}
