//! Every call into program internals lives in this file, and only through
//! items reachable from each crate's root. When ROADMAP items 1/3/4 move an
//! API, this is the one file to fix.
//!
//! Two things are built on those calls:
//!
//! * [`Mirror`] — an in-process store the answer checker solves against.
//! * [`replay`] — the **traced pass**: a single-threaded, in-process replay
//!   of a workload's op sequence through the same public calls, in the same
//!   order, that `mqd-server`'s `answer_query` / `ingest_rows` /
//!   `refresh_entry` and `mqd-router`'s `route_query` / `route_ingest`
//!   make, with one [`Span`] around each call. The spans are recorded from
//!   here, outside the program; in-process telemetry is ROADMAP item 1.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mqd_core::record::{decode_records, encode_records, format_tsv, Record};
use mqd_core::wire::shard_of_label;
use mqd_core::MqdError;
use mqd_router::{merge_rows, solve_merged, Topology};
use mqd_server::protocol::{parse_request, write_ok, Request};
use mqd_store::{
    repair_state, repairable, run_query, run_query_cover, solve_slice, validate_spec, Algorithm,
    CoverCache, Lookup, QuerySpec, Slice, Store, SEGMENT_TARGET_ROWS,
};
use mqd_stream::CoverRepair;
use mqd_wal::{DurableOptions, DurableStore};

use crate::plan::{
    ingest_bytes, ingestb_request, Alg, OpKind, Plan, Row, Spec, Workload, PRELOAD_BATCH, SHARDS,
};

/// Rows per sealed WAL segment.
pub const SEGMENT_ROWS: u64 = SEGMENT_TARGET_ROWS as u64;

/// The program's label→shard map for the `routed-mix` cluster.
pub fn shard_of(label: u16) -> u32 {
    shard_of_label(label, SHARDS)
}

/// The MQDL body of an `INGESTB` for `rows`.
pub fn encode_batch(rows: &[Row]) -> Vec<u8> {
    encode_records(&rows.iter().map(record).collect::<Vec<_>>())
}

fn record(row: &Row) -> Record {
    Record {
        id: row.id,
        value: row.value,
        labels: row.labels.clone(),
    }
}

fn query_spec(spec: &Spec) -> QuerySpec {
    QuerySpec {
        labels: spec.labels.clone(),
        lambda: spec.lambda,
        proportional: spec.prop,
        algorithm: match spec.alg {
            Alg::Scan => Algorithm::Scan,
            Alg::ScanPlus => Algorithm::ScanPlus,
            Alg::GreedySc => Algorithm::GreedySc,
        },
        from: spec.from.unwrap_or(i64::MIN),
        to: spec.to.unwrap_or(i64::MAX),
    }
}

fn payload_bytes(rows: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        out.extend_from_slice(format_tsv(r).as_bytes());
        out.push(b'\n');
    }
    out
}

/// A cold, cache-free store the checker solves against: the offline answer
/// every served answer must equal byte for byte.
pub struct Mirror {
    store: Store,
}

impl Mirror {
    pub fn new() -> Self {
        Mirror {
            store: Store::new(),
        }
    }

    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    pub fn append(&mut self, row: &Row) -> Result<(), String> {
        self.store.append(record(row)).map_err(|e| e.to_string())
    }

    /// `run_query` at the mirror's current generation, rendered as the
    /// payload bytes a server would put between status line and `.`.
    pub fn answer(&self, spec: &Spec) -> Result<Vec<u8>, String> {
        run_query(&self.store, &query_spec(spec))
            .map(|rows| payload_bytes(&rows))
            .map_err(|e| e.to_string())
    }
}

/// Index of a span in [`Tracer::spans`]; [`NO_SPAN`] for "none".
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed call. `parent` is the op span that caused it ([`NO_SPAN`] for
/// an op span itself); spans of one op share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
    /// Rows or posts the call handled, for the per-unit metrics.
    pub units: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans go into a preallocated `Vec`, nothing is written until the replay
/// is over. With `on == false` no clock is read at all: the second replay
/// that measures tracing overhead.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            units: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    fn end(&mut self, id: SpanId, units: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.t0.elapsed().as_nanos() as u64;
            span.units = units;
        }
    }

    /// Ends a span whose name depends on the call's outcome.
    fn end_as(&mut self, id: SpanId, name: &'static str, units: u64) {
        self.end(id, units);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.name = name;
        }
    }
}

/// Span names. The per-layer metrics in `main.rs` are keyed on these.
pub mod names {
    pub const OP_QUERY: &str = "op.query";
    pub const OP_INGEST: &str = "op.ingest";
    pub const OP_REFRESH: &str = "op.refresh";
    pub const PARSE: &str = "mqd-server.parse";
    pub const FRAME: &str = "mqd-server.frame";
    pub const RENDER: &str = "mqd-core.render";
    pub const DECODE: &str = "mqd-core.decode";
    pub const ENCODE: &str = "mqd-core.encode";
    pub const SCAN: &str = "mqd-core.solve_scan";
    pub const SCANPLUS: &str = "mqd-core.solve_scanplus";
    pub const GREEDYSC: &str = "mqd-core.solve_greedysc";
    pub const SOLVE_PROP: &str = "mqd-core.solve_prop";
    pub const SLICE: &str = "mqd-store.slice";
    pub const COVER_SOLVE: &str = "mqd-store.run_query_cover";
    pub const LOOKUP_HIT: &str = "mqd-store.lookup_hit";
    pub const LOOKUP_STALE: &str = "mqd-store.lookup_stale";
    pub const LOOKUP_MISS: &str = "mqd-store.lookup_miss";
    pub const INSERT_FRESH: &str = "mqd-store.insert_fresh";
    pub const INSTALL_REFRESHED: &str = "mqd-store.install_refreshed";
    pub const APPLY_DELTA: &str = "mqd-store.apply_delta";
    pub const APPEND: &str = "mqd-store.append";
    pub const REPAIR_STATE: &str = "mqd-stream.repair_state";
    pub const REPAIR_OBSERVE: &str = "mqd-stream.repair_observe";
    pub const WAL_APPEND: &str = "mqd-wal.append";
    pub const WAL_SEAL: &str = "mqd-wal.append_and_seal";
    pub const WAL_SYNC: &str = "mqd-wal.sync";
    pub const WAL_OPEN: &str = "mqd-wal.open";
    pub const SPLIT: &str = "mqd-router.split";
    pub const MERGE: &str = "mqd-router.merge_rows";
    pub const RESOLVE: &str = "mqd-router.solve_merged";
}
use names::*;

fn solve_name(spec: &QuerySpec) -> &'static str {
    match (spec.proportional, spec.algorithm) {
        (true, _) => SOLVE_PROP,
        (false, Algorithm::Scan) => SCAN,
        (false, Algorithm::ScanPlus) => SCANPLUS,
        (false, _) => GREEDYSC,
    }
}

/// What `answer_query` returns: rows, watermark generation, cached, stale.
type Answered = (Vec<Record>, u64, bool, bool);

/// One serving node's state — the `State` of `mqd-server`, minus sockets.
struct Node {
    store: DurableStore,
    cache: CoverCache,
    sink: Vec<u8>,
}

impl Node {
    fn new(store: DurableStore) -> Self {
        Node {
            store,
            cache: CoverCache::new(),
            sink: Vec::new(),
        }
    }

    /// `slice` + `solve_slice` + `repair_state`, as the miss path and the
    /// refresher both run them.
    fn solve(
        &self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        spec: &QuerySpec,
    ) -> Result<(Vec<Record>, Option<CoverRepair>), MqdError> {
        let s = tr.begin(SLICE, parent, op);
        let slice: Slice = self.store.store().slice(&spec.labels, spec.from, spec.to);
        let posts = slice.instance.len() as u64;
        tr.end(s, posts);
        let s = tr.begin(solve_name(spec), parent, op);
        let records = solve_slice(&slice, spec)?;
        tr.end(s, posts);
        let s = tr.begin(REPAIR_STATE, parent, op);
        let repair = repair_state(&slice, spec);
        // No units when the spec is not repairable and the call was a no-op.
        tr.end(s, if repair.is_some() { posts } else { 0 });
        Ok((records, repair))
    }

    /// Mirrors `answer_query`. A stale hit that claims the refresh returns
    /// its spec through `refresh` for the caller to run after the op.
    fn answer(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        spec: &QuerySpec,
        refresh: &mut Vec<QuerySpec>,
    ) -> Result<Answered, MqdError> {
        validate_spec(spec)?;
        let generation = self.store.generation();
        let s = tr.begin(LOOKUP_MISS, parent, op);
        let looked = self.cache.lookup(spec, generation);
        match looked {
            Lookup::Fresh(records) => {
                tr.end_as(s, LOOKUP_HIT, records.len() as u64);
                Ok((records, generation, true, false))
            }
            Lookup::Stale {
                records,
                generation: watermark,
                enqueue_refresh,
            } => {
                tr.end_as(s, LOOKUP_STALE, records.len() as u64);
                if enqueue_refresh {
                    refresh.push(spec.clone());
                }
                Ok((records, watermark, true, true))
            }
            Lookup::Miss => {
                tr.end(s, 0);
                let (records, repair) = self.solve(tr, parent, op, spec)?;
                let s = tr.begin(INSERT_FRESH, parent, op);
                self.cache
                    .insert_fresh(spec, records.clone(), generation, repair);
                tr.end(s, records.len() as u64);
                Ok((records, generation, false, false))
            }
        }
    }

    /// Mirrors `refresh_entry`, run inline: the replay has no refresher
    /// thread, so a dirtied entry is re-solved before the next op.
    fn refresh(&mut self, tr: &mut Tracer, op: u32, spec: &QuerySpec) -> Result<(), MqdError> {
        let root = tr.begin(OP_REFRESH, NO_SPAN, op);
        let generation = self.store.generation();
        let (records, repair) = self.solve(tr, root, op, spec)?;
        let s = tr.begin(INSTALL_REFRESHED, root, op);
        self.cache
            .install_refreshed(spec, records, generation, repair);
        tr.end(s, 0);
        tr.end(root, 0);
        Ok(())
    }

    /// Mirrors `ingest_rows`: append each row, the ack-barrier sync, then
    /// seal the delta into the cache. With `per_row` every append gets its
    /// own span (and the one that seals a segment its own name).
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        rows: &[Record],
        per_row: bool,
    ) -> Result<(u64, Vec<QuerySpec>), MqdError> {
        if per_row {
            for row in rows {
                let s = tr.begin(WAL_APPEND, parent, op);
                self.store.append(row)?;
                let sealed = self.store.generation().is_multiple_of(SEGMENT_ROWS);
                tr.end_as(s, if sealed { WAL_SEAL } else { WAL_APPEND }, 1);
            }
        } else {
            let s = tr.begin(APPEND, parent, op);
            for row in rows {
                self.store.append(row)?;
            }
            tr.end(s, rows.len() as u64);
        }
        let s = tr.begin(WAL_SYNC, parent, op);
        self.store.sync()?;
        tr.end(s, rows.len() as u64);
        let generation = self.store.generation();
        let s = tr.begin(APPLY_DELTA, parent, op);
        let to_refresh = self.cache.apply_delta(rows, generation);
        let _ = self.cache.live_lease();
        tr.end(s, rows.len() as u64);
        Ok((generation, to_refresh))
    }

    /// A backend's whole `QUERY` exchange: parse, answer, render, frame.
    /// Returns the response bytes.
    fn serve_query(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        line: &str,
        refresh: &mut Vec<QuerySpec>,
    ) -> Result<&[u8], MqdError> {
        let s = tr.begin(PARSE, parent, op);
        let req = parse_request(line)?;
        tr.end(s, 0);
        let Request::Query(spec) = req else {
            return Err(MqdError::Protocol {
                msg: format!("not a QUERY: {line}"),
            });
        };
        let (rows, generation, cached, stale) = self.answer(tr, parent, op, &spec, refresh)?;
        let s = tr.begin(RENDER, parent, op);
        let payload: Vec<String> = rows.iter().map(format_tsv).collect();
        tr.end(s, rows.len() as u64);
        let json = format!(
            r#"{{"algorithm":"{}","count":{},"cached":{},"stale":{},"generation":{}}}"#,
            spec.algorithm.as_str(),
            rows.len(),
            cached,
            stale,
            generation,
        );
        self.frame(tr, parent, op, &json, &payload)?;
        Ok(&self.sink)
    }

    /// A backend's whole `INGESTB` exchange.
    fn serve_ingest(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        request: &[u8],
        per_row: bool,
    ) -> Result<Vec<QuerySpec>, MqdError> {
        let (line, body) = split_ingestb(request)?;
        let s = tr.begin(PARSE, parent, op);
        let req = parse_request(line)?;
        tr.end(s, 0);
        if !matches!(req, Request::IngestBatch { bytes } if bytes == body.len()) {
            return Err(MqdError::Protocol {
                msg: format!("bad INGESTB header: {line}"),
            });
        }
        let s = tr.begin(DECODE, parent, op);
        let rows = decode_records(body)?;
        tr.end(s, rows.len() as u64);
        let (generation, to_refresh) = self.ingest(tr, parent, op, &rows, per_row)?;
        let json = format!(r#"{{"ingested":{},"generation":{generation}}}"#, rows.len());
        self.frame(tr, parent, op, &json, &[])?;
        Ok(to_refresh)
    }

    fn frame(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u32,
        json: &str,
        payload: &[String],
    ) -> Result<(), MqdError> {
        let s = tr.begin(FRAME, parent, op);
        self.sink.clear();
        write_ok(&mut self.sink, json, payload)?;
        tr.end(s, payload.len() as u64);
        Ok(())
    }
}

/// Splits `INGESTB <n>\n<body>` request bytes into header line and body.
fn split_ingestb(request: &[u8]) -> Result<(&str, &[u8]), MqdError> {
    let nl = request
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| MqdError::Protocol {
            msg: "INGESTB without a header line".into(),
        })?;
    let line = std::str::from_utf8(&request[..nl])
        .map_err(|e| MqdError::Protocol { msg: e.to_string() })?;
    Ok((line, &request[nl + 1..]))
}

/// The system a workload runs against, in-process: one node, or — with a
/// topology — `mqdiv route` over one backend node per shard.
struct Sut {
    router: Option<Topology>,
    nodes: Vec<Node>,
    /// The router's response buffer.
    sink: Vec<u8>,
}

impl Sut {
    /// One client `QUERY`, end to end, then the refresh it may have claimed.
    /// Returns the response bytes.
    fn query(&mut self, tr: &mut Tracer, op: u32, spec: &Spec) -> Result<Vec<u8>, MqdError> {
        let Sut {
            router,
            nodes,
            sink,
        } = self;
        let root = tr.begin(OP_QUERY, NO_SPAN, op);
        let line = spec.line();
        let mut refresh = Vec::new();
        // The node that answered from its cache, if one did.
        let mut served = 0;
        let response = match router {
            None => nodes[0]
                .serve_query(tr, root, op, &line, &mut refresh)?
                .to_vec(),
            Some(topo) => {
                // Mirrors `route_query`.
                let s = tr.begin(PARSE, root, op);
                let req = parse_request(&line)?;
                tr.end(s, 0);
                let Request::Query(spec) = req else {
                    return Err(MqdError::Protocol {
                        msg: format!("not a QUERY: {line}"),
                    });
                };
                let owning = topo.owning_shards(&spec.labels);
                let rows: Vec<String> = if owning.len() <= 1 {
                    served = owning.first().copied().unwrap_or(0) as usize;
                    let resp = nodes[served].serve_query(tr, root, op, &line, &mut refresh)?;
                    response_lines(resp)
                } else if repairable(&spec) {
                    let mut parts = Vec::new();
                    for &shard in &owning {
                        let cover: Vec<u16> = spec
                            .labels
                            .iter()
                            .copied()
                            .filter(|&l| shard_of_label(l, topo.shard_count()) == shard)
                            .collect();
                        let s = tr.begin(COVER_SOLVE, root, op);
                        let store = nodes[shard as usize].store.store();
                        let rows = run_query_cover(store, &spec, &cover)?;
                        tr.end(s, rows.len() as u64);
                        let s = tr.begin(RENDER, root, op);
                        parts.push(rows.iter().map(format_tsv).collect::<Vec<_>>());
                        tr.end(s, rows.len() as u64);
                    }
                    let s = tr.begin(MERGE, root, op);
                    let merged = merge_rows(&parts)?;
                    tr.end(s, merged.len() as u64);
                    merged
                } else {
                    let mut parts = Vec::new();
                    for &shard in &owning {
                        let s = tr.begin(SLICE, root, op);
                        let store = nodes[shard as usize].store.store();
                        let slice = store.slice(&spec.labels, spec.from, spec.to);
                        let posts = slice.instance.len() as u64;
                        tr.end(s, posts);
                        let s = tr.begin(RENDER, root, op);
                        parts.push(
                            (0..posts as u32)
                                .map(|i| format_tsv(&slice.record_for(i)))
                                .collect::<Vec<_>>(),
                        );
                        tr.end(s, posts);
                    }
                    let s = tr.begin(MERGE, root, op);
                    let merged = merge_rows(&parts)?;
                    tr.end(s, merged.len() as u64);
                    let s = tr.begin(RESOLVE, root, op);
                    let solved = solve_merged(&merged, &spec)?;
                    tr.end(s, merged.len() as u64);
                    solved
                };
                let json = format!(
                    r#"{{"algorithm":"{}","count":{}}}"#,
                    spec.algorithm.as_str(),
                    rows.len()
                );
                let s = tr.begin(FRAME, root, op);
                sink.clear();
                write_ok(sink, &json, &rows)?;
                tr.end(s, rows.len() as u64);
                sink.clone()
            }
        };
        tr.end(root, 0);
        for spec in &refresh {
            nodes[served].refresh(tr, op, spec)?;
        }
        Ok(response)
    }

    /// One client `INGESTB`, end to end, then the refreshes it caused.
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        request: &[u8],
        per_row: bool,
    ) -> Result<(), MqdError> {
        let Sut {
            router,
            nodes,
            sink,
        } = self;
        let root = tr.begin(OP_INGEST, NO_SPAN, op);
        // Per node, the specs its ingest dirtied.
        let mut to_refresh: Vec<Vec<QuerySpec>> = vec![Vec::new(); nodes.len()];
        match router {
            None => to_refresh[0] = nodes[0].serve_ingest(tr, root, op, request, per_row)?,
            Some(topo) => {
                // Mirrors `route_ingest`.
                let (_, body) = split_ingestb(request)?;
                let s = tr.begin(DECODE, root, op);
                let rows = decode_records(body)?;
                tr.end(s, rows.len() as u64);
                let s = tr.begin(SPLIT, root, op);
                let mut per_shard: Vec<Vec<Record>> = vec![Vec::new(); nodes.len()];
                for row in &rows {
                    for shard in topo.owning_shards(&row.labels) {
                        per_shard[shard as usize].push(row.clone());
                    }
                }
                tr.end(s, rows.len() as u64);
                for (shard, part) in per_shard.iter().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    let s = tr.begin(ENCODE, root, op);
                    let request = ingestb_request(&encode_records(part));
                    tr.end(s, part.len() as u64);
                    to_refresh[shard] =
                        nodes[shard].serve_ingest(tr, root, op, &request, per_row)?;
                }
                let s = tr.begin(FRAME, root, op);
                sink.clear();
                write_ok(sink, &format!(r#"{{"ingested":{}}}"#, rows.len()), &[])?;
                tr.end(s, 0);
            }
        }
        tr.end(root, 0);
        for (node, specs) in nodes.iter_mut().zip(&to_refresh) {
            for spec in specs {
                node.refresh(tr, op, spec)?;
            }
        }
        Ok(())
    }
}

/// Payload lines of a response frame (status line and `.` dropped).
fn response_lines(frame: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(frame);
    let mut lines: Vec<String> = text.lines().skip(1).map(String::from).collect();
    lines.pop();
    lines
}

/// What one replay produced.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Response bytes of the timed query ops the caller asked to keep,
    /// indexed like `plan.ops`.
    pub responses: Vec<Option<Vec<u8>>>,
    /// Wall time of the timed ops alone (set-up excluded), for the
    /// tracing-overhead comparison.
    pub timed_ns: u64,
    /// Rows `DurableStore::open` recovered at the end (durable runs).
    pub recovered_rows: u64,
}

/// Op id of set-up work in the spans (preload, warm).
pub const SETUP_OP: u32 = u32::MAX;

/// Replays `plan` in-process. `order` lists the timed ops to run, by index
/// into `plan.ops`, in the order to run them; `keep[i]` asks for op `i`'s
/// response bytes. `data_dir` must be an empty directory; it is used (with
/// fsync on, the served default) by `ingest-repair` only.
pub fn replay(
    plan: &Plan,
    order: &[usize],
    keep: &[bool],
    traced: bool,
    data_dir: &Path,
) -> Result<Replay, String> {
    run_replay(plan, order, keep, traced, data_dir).map_err(|e| format!("replay: {e}"))
}

fn run_replay(
    plan: &Plan,
    order: &[usize],
    keep: &[bool],
    traced: bool,
    data_dir: &Path,
) -> Result<Replay, MqdError> {
    let durable = plan.workload == Workload::IngestRepair;
    let options = DurableOptions::default();
    let (router, stores) = match plan.workload {
        Workload::RoutedMix => (
            Some(Topology::new(
                (0..SHARDS).map(|s| format!("shard-{s}")).collect(),
                SHARDS,
            )?),
            (0..SHARDS).map(|_| DurableStore::memory()).collect(),
        ),
        _ if durable => (None, vec![DurableStore::open(data_dir, &options)?]),
        _ => (None, vec![DurableStore::memory()]),
    };
    let mut sut = Sut {
        router,
        nodes: stores.into_iter().map(Node::new).collect(),
        sink: Vec::new(),
    };
    // Roughly: ops × spans per op, plus a span per ingested row when durable.
    let capacity = plan.corpus.len() / PRELOAD_BATCH * 8
        + (plan.warm.len() + plan.ops.len()) * 16
        + plan.tail.len() * if durable { 8 } else { 1 };
    let mut tr = Tracer::new(traced, capacity);

    // Set-up, as the live run does it: preload in 4096-row batches through
    // the ingest path, then issue every warm spec once.
    for chunk in plan.corpus.chunks(PRELOAD_BATCH) {
        sut.ingest(&mut tr, SETUP_OP, &ingest_bytes(chunk), false)?;
    }
    for &i in &plan.warm {
        sut.query(&mut tr, SETUP_OP, &plan.specs[i])?;
    }

    // A shadow fold over the ingested rows, for the one layer `apply_delta`
    // hides from outside: `CoverRepair::observe`.
    let mut shadow = plan
        .specs
        .iter()
        .find(|s| durable && s.repairable())
        .map(|spec| {
            let q = query_spec(spec);
            let slice = sut.nodes[0].store.store().slice(&q.labels, q.from, q.to);
            let fold = repair_state(&slice, &q);
            (q, fold)
        });

    let mut responses: Vec<Option<Vec<u8>>> = vec![None; plan.ops.len()];
    let started = Instant::now();
    for &i in order {
        let op = &plan.ops[i];
        match &op.kind {
            OpKind::Query(s) => {
                let resp = sut.query(&mut tr, i as u32, &plan.specs[*s])?;
                if keep[i] {
                    responses[i] = Some(resp);
                }
            }
            OpKind::Ingest(range) => {
                sut.ingest(&mut tr, i as u32, &plan.op_bytes(op), durable)?;
                if let Some((q, Some(rep))) = shadow.as_mut() {
                    let s = tr.begin(REPAIR_OBSERVE, NO_SPAN, i as u32);
                    let mut folded = 0;
                    for row in &plan.tail[range.clone()] {
                        if row.value >= q.from && row.labels.iter().any(|l| q.labels.contains(l)) {
                            rep.observe(&record(row));
                            folded += 1;
                        }
                    }
                    tr.end(s, folded);
                }
            }
        }
    }
    let timed_ns = started.elapsed().as_nanos() as u64;

    // Restart path: drop the store un-flushed (the WAL tail stays, as after
    // a crash) and time a recovery of the same directory.
    let mut recovered_rows = 0;
    if durable {
        drop(sut);
        let s = tr.begin(WAL_OPEN, NO_SPAN, SETUP_OP);
        let reopened = DurableStore::open(data_dir, &options)?;
        recovered_rows = reopened.durable_stats().recovered_rows;
        tr.end(s, recovered_rows);
    }
    Ok(Replay {
        spans: tr.spans,
        responses,
        timed_ns,
        recovered_rows,
    })
}

/// Writes the spans as JSON (one object per line inside the array, so the
/// file diffs and greps well).
pub fn write_trace(path: &Path, plan: &Plan, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        r#"{{"workload":"{}","seed":{},"plan_digest":"{:016x}","spans":["#,
        plan.workload.name(),
        plan.seed,
        plan.digest
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            s.parent as i64
        };
        let op = if s.op == SETUP_OP { -1 } else { s.op as i64 };
        writeln!(
            w,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{op},"units":{}}}{}"#,
            s.name,
            s.start_ns,
            s.end_ns,
            s.units,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
