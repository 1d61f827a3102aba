//! The router runtime: the scatter-gather [`Handler`] behind the shared
//! connection engine (`mqd_server::conn`), and the `SUBSCRIBE` failover
//! relay.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use mqd_core::record::{encode_rows, Rows};
use mqd_core::MqdError;
use mqd_server::conn::{Counters, Engine, Fail, Handler};
use mqd_server::protocol::{
    decode_batch, write_abort, write_ingested, write_ok, write_response, Request, SubscribeSpec,
    TERMINATOR,
};
use mqd_server::{json_u64, stats_object, Client, Response};
use mqd_store::{repairable, QuerySpec, StoreStats};

use crate::backend::{BackendPool, Fan, Topology};
use crate::merge::{merge_rows, solve_merged};

/// Router settings, as exposed by `mqdiv route`.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Ordered backend addresses; backend `j` serves shard
    /// `j mod shards`, so the list length must be a multiple of `shards`.
    pub backends: Vec<String>,
    /// Number of label shards the cluster is partitioned into.
    pub shards: u32,
    /// Worker threads; 0 sizes off [`mqd_par::configured_threads`],
    /// floored at 4 (same reasoning as the server: handlers block on
    /// backend I/O, not CPU).
    pub threads: usize,
    /// Admission queue depth, as on the server.
    pub max_queue: usize,
    /// Per-request idle budget for frontend connections, as on the server
    /// ([`ServerConfig::idle_timeout`](mqd_server::ServerConfig)): stalled
    /// request lines and bodies get a typed `-ERR Timeout`, and stalled
    /// response writes are closed, instead of parking a worker. `None`
    /// (the default) waits forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            shards: 1,
            threads: 0,
            max_queue: 64,
            idle_timeout: None,
        }
    }
}

/// The router's exact corpus ledger. The router is the cluster's single
/// ingest door, so counting at the door reproduces the single-node STATS
/// core fields (`rows`, `labels`, `generation`, `min_value`, `max_value`)
/// without a scatter — and `watermarks[s]` is the generation backend
/// replicas of shard `s` must have reached once they have applied every
/// routed row, which is what `QUERY` responses stamp as the vector
/// watermark.
struct Ledger {
    rows: u64,
    /// Bit `l % 64` of word `l / 64` is set once a routed row carried
    /// label `l`: the label set without a tree insert per label.
    labels: Vec<u64>,
    min_value: Option<i64>,
    max_value: Option<i64>,
    watermarks: Vec<u64>,
}

impl Ledger {
    fn new(shard_count: usize) -> Self {
        Ledger {
            rows: 0,
            labels: vec![0; (u16::MAX as usize + 1) / 64],
            min_value: None,
            max_value: None,
            watermarks: vec![0; shard_count],
        }
    }

    fn apply(&mut self, rows: &Rows, per_shard: &[u64]) {
        self.rows += rows.len() as u64;
        for row in rows.iter() {
            for &l in row.labels {
                self.labels[l as usize / 64] |= 1 << (l % 64);
            }
        }
        let values = rows.values().iter().copied();
        if let (Some(lo), Some(hi)) = (values.clone().min(), values.max()) {
            self.min_value = Some(self.min_value.map_or(lo, |m| m.min(lo)));
            self.max_value = Some(self.max_value.map_or(hi, |m| m.max(hi)));
        }
        for (w, add) in self.watermarks.iter_mut().zip(per_shard) {
            *w += add;
        }
    }

    /// Where `rows` first breaks a single node's append contract (at
    /// least one label per row, values never below the last routed one),
    /// checked against what the ledger has routed: the length of the valid
    /// prefix and the error a single node returns at that row, numbered as
    /// its store numbers rows. Every routed row passed this check, so the
    /// largest routed value is the last one.
    fn refusal(&self, rows: &Rows) -> Option<(usize, MqdError)> {
        let mut prev = self.max_value;
        for (i, row) in rows.iter().enumerate() {
            let row_no = self.rows as usize + i + 1;
            if row.labels.is_empty() {
                return Some((i, MqdError::EmptyLabelSet { row: row_no }));
            }
            if let Some(prev) = prev.filter(|&p| row.value < p) {
                return Some((
                    i,
                    MqdError::NonMonotoneTimestamp {
                        row: row_no,
                        prev,
                        got: row.value,
                    },
                ));
            }
            prev = Some(row.value);
        }
        None
    }

    /// Distinct labels routed so far.
    fn label_count(&self) -> usize {
        self.labels.iter().map(|w| w.count_ones() as usize).sum()
    }
}

struct RouterState {
    topo: Topology,
    ledger: Mutex<Ledger>,
}

/// A bound, ready-to-run router. [`Router::run`] blocks until a `DRAIN`
/// request shuts it down (after forwarding the drain to every backend).
pub struct Router {
    engine: Engine,
    state: RouterState,
}

impl Router {
    /// Validates the topology and binds the frontend socket. Backends are
    /// dialed lazily per connection, so `bind` succeeds even while the
    /// backends are still starting.
    pub fn bind(cfg: &RouterConfig) -> Result<Self, MqdError> {
        let topo = Topology::new(cfg.backends.clone(), cfg.shards)?;
        let engine = Engine::bind(
            "router",
            &cfg.addr,
            cfg.threads,
            cfg.max_queue,
            cfg.idle_timeout,
        )?;
        let shard_count = topo.shard_count() as usize;
        Ok(Router {
            engine,
            state: RouterState {
                topo,
                ledger: Mutex::new(Ledger::new(shard_count)),
            },
        })
    }

    /// The bound frontend address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.engine.local_addr()
    }

    /// Serves until drained (see [`Engine::serve`]).
    pub fn run(self) -> Result<(), MqdError> {
        self.engine.serve(&self.state);
        Ok(())
    }
}

/// Relays a backend's typed rejection to the client verbatim, counted as
/// an error like any other `-ERR` answer.
fn relay(counters: &Counters, w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    counters.errors.fetch_add(1, Ordering::Relaxed);
    write_response(w, resp)
}

impl Handler for RouterState {
    type Session<'a> = BackendPool<'a>;

    fn open(&self) -> BackendPool<'_> {
        BackendPool::new(&self.topo)
    }

    fn execute(
        &self,
        engine: &Engine,
        pool: &mut BackendPool<'_>,
        req: &Request,
        body: &[u8],
        w: &mut impl Write,
    ) -> Result<(), Fail> {
        let counters = engine.counters();
        match req {
            Request::Stats => write_ok(w, &cluster_stats(self, engine, pool)?, &[])?,
            Request::Ingest(row) => {
                route_ingest(self, counters, pool, std::iter::once(row).collect(), w)?
            }
            Request::IngestBatch { .. } => {
                route_ingest(self, counters, pool, decode_batch(body)?, w)?
            }
            Request::Query(spec) => {
                counters.queries.fetch_add(1, Ordering::Relaxed);
                route_query(self, counters, pool, spec, w)?;
            }
            Request::Subscribe(spec) => {
                counters.subscribes.fetch_add(1, Ordering::Relaxed);
                route_subscribe(self, counters, pool, spec, w)?;
            }
            // Backend-internal verbs: accepting them at the frontend would
            // let a client bypass the shard map the router exists to
            // enforce.
            Request::QueryCover { .. } | Request::Slice { .. } | Request::Hello { .. } => {
                let msg =
                    "COVER/SLICE/HELLO are backend verbs; the router serves client verbs only";
                return Err(MqdError::protocol(msg).into());
            }
            Request::Ping | Request::Drain | Request::Quit => {
                return Err(MqdError::protocol("transport verb reached the handler").into());
            }
        }
        Ok(())
    }

    fn before_drain(&self, pool: &mut BackendPool<'_>) {
        // Drain the backends first (best-effort: a dead backend is already
        // drained for our purposes), then the router itself.
        for idx in 0..self.topo.backends().len() {
            let _ = pool.drain(idx);
        }
    }
}

/// Checks `rows` at the door against the ledger, then scatters the valid
/// prefix to every replica of every owning shard (order preserved: each
/// backend sees the monotone subsequence of the feed its labels select)
/// and answers as a single node does: the ingest acknowledgement, with
/// `generation` the router's global row count, or, for a batch the door
/// refused, the single node's typed error after the prefix is applied. A
/// shard's part is encoded once, for all its replicas.
fn route_ingest(
    state: &RouterState,
    counters: &Counters,
    pool: &mut BackendPool,
    rows: Rows,
    w: &mut impl Write,
) -> Result<(), Fail> {
    let refusal = lock_ledger(state)?.refusal(&rows);
    let rows = match &refusal {
        Some((valid, _)) => rows.iter().take(*valid).collect(),
        None => rows,
    };
    let per_shard = state.topo.split(&rows);
    let frames: Vec<(u32, Vec<u8>)> = (per_shard.iter().enumerate())
        .filter(|(_, part)| !part.is_empty())
        .map(|(shard, part)| {
            let body = encode_rows(part);
            let frame = Request::IngestBatch { bytes: body.len() }.frame(&body);
            (shard as u32, frame)
        })
        .collect();
    if let Err(rejection) = pool.scatter(Fan::Write, &frames)? {
        // A typed backend rejection: relay it verbatim. The other shards
        // keep their parts (ROADMAP item 5(d)).
        return Ok(relay(counters, w, &rejection)?);
    }
    let per_shard_counts: Vec<u64> = per_shard.iter().map(|p| p.len() as u64).collect();
    let generation = {
        let mut ledger = lock_ledger(state)?;
        ledger.apply(&rows, &per_shard_counts);
        ledger.rows
    };
    counters
        .ingested_rows
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    match refusal {
        Some((_, e)) => Err(e.into()),
        None => Ok(write_ingested(w, rows.len(), generation)?),
    }
}

/// Sends each `(shard, request)` to the first live replica of its shard
/// in one scatter, and returns each reply's payload lines, in order, or
/// the first rejection.
fn read_lines(
    pool: &mut BackendPool,
    requests: Vec<(u32, Request)>,
) -> Result<Result<Vec<Vec<String>>, Response>, MqdError> {
    let frames: Vec<(u32, Vec<u8>)> = (requests.into_iter())
        .map(|(shard, req)| (shard, req.frame(&[])))
        .collect();
    Ok(pool
        .scatter(Fan::Read, &frames)?
        .map(|replies| replies.into_iter().map(|r| r.lines).collect()))
}

fn lock_ledger(state: &RouterState) -> Result<std::sync::MutexGuard<'_, Ledger>, MqdError> {
    state
        .ledger
        .lock()
        .map_err(|_| MqdError::Poisoned { what: "ledger" })
}

/// Scatter-gathers one `QUERY`:
///
/// * all labels on one shard — forward verbatim, relay the rows;
/// * multi-shard fixed-λ Scan — per-shard `COVER` halves, merged;
/// * anything else multi-shard — per-shard `SLICE`, dedup-merge, solve
///   locally over the reconstructed slice.
fn route_query(
    state: &RouterState,
    counters: &Counters,
    pool: &mut BackendPool,
    spec: &QuerySpec,
    w: &mut impl Write,
) -> Result<(), Fail> {
    let owning = state.topo.owning_shards(&spec.labels);
    let gathered: Result<Result<Vec<String>, Response>, MqdError> = (|| {
        if owning.len() <= 1 {
            let shard = owning.first().copied().unwrap_or(0);
            let reply = read_lines(pool, vec![(shard, Request::Query(spec.clone()))])?;
            return Ok(reply.map(|mut parts| parts.pop().unwrap_or_default()));
        }
        if repairable(spec) {
            // Fixed-λ Scan: per-label greedy covers are independent, so
            // each shard solves exactly the labels it owns (against the
            // full query's slice) and the union is the global answer.
            let covers: Vec<(u32, Request)> = owning
                .iter()
                .map(|&shard| {
                    let owned: BTreeSet<u16> = spec
                        .labels
                        .iter()
                        .copied()
                        .filter(|&l| state.topo.owning_shards(&[l]) == [shard])
                        .collect();
                    let cover = owned.into_iter().collect();
                    (
                        shard,
                        Request::QueryCover {
                            spec: spec.clone(),
                            cover,
                        },
                    )
                })
                .collect();
            return match read_lines(pool, covers)? {
                Ok(parts) => Ok(Ok(merge_rows(&parts)?)),
                Err(rejection) => Ok(Err(rejection)),
            };
        }
        // Global objective: gather the raw shard slices, reconstruct the
        // single-node slice, and solve through the shared definition.
        let slices: Vec<(u32, Request)> = (owning.iter())
            .map(|&shard| {
                let (labels, from, to) = (spec.labels.clone(), spec.from, spec.to);
                (shard, Request::Slice { labels, from, to })
            })
            .collect();
        match read_lines(pool, slices)? {
            Ok(parts) => Ok(Ok(solve_merged(&merge_rows(&parts)?, spec)?)),
            Err(rejection) => Ok(Err(rejection)),
        }
    })();
    match gathered? {
        Ok(rows) => {
            // The vector watermark: per shard, the generation its replicas
            // reach once every routed row is applied.
            let marks = lock_ledger(state)?.watermarks.clone();
            let gens: Vec<String> = marks.iter().map(|g| g.to_string()).collect();
            let json = format!(
                r#"{{"algorithm":"{}","count":{},"generations":[{}]}}"#,
                spec.algorithm.as_str(),
                rows.len(),
                gens.join(","),
            );
            write_ok(w, &json, &rows)?;
        }
        Err(resp) => relay(counters, w, &resp)?,
    }
    Ok(())
}

enum StreamEnd {
    /// The response frame completed (terminator relayed or synthesized).
    Complete,
    /// The backend died mid-stream; fail over to the next replica.
    Died,
}

/// Relays one `SUBSCRIBE` attempt against an already-pinned session.
/// `relayed` counts the EMIT lines actually forwarded across *all*
/// attempts — the reissue skip count — and `header_sent` suppresses the
/// duplicate `+OK` header a failover replica would otherwise inject.
fn relay_stream(
    client: &mut Client,
    frame: &[u8],
    relayed: &mut u64,
    header_sent: &mut bool,
    w: &mut impl Write,
) -> std::io::Result<StreamEnd> {
    if client.send(frame).is_err() {
        return Ok(StreamEnd::Died);
    }
    let header = match client.next_line() {
        Ok(Some(h)) => h,
        _ => return Ok(StreamEnd::Died),
    };
    if !header.starts_with("+OK") {
        // A typed pre-stream rejection (bad parameters, checkpoint
        // mismatch). Deterministic across replicas, so relay rather than
        // fail over — except mid-failover, where the header is already
        // out and the rejection must travel inside the payload framing.
        if *header_sent {
            write_abort(w, "Protocol", &format!("failover rejected: {header}"))?;
            return Ok(StreamEnd::Complete);
        }
        // A death before the terminator still closes the frame.
        let mut lines = Vec::new();
        while let Ok(Some(l)) = client.next_line() {
            if l == TERMINATOR {
                break;
            }
            lines.push(l);
        }
        write_response(
            w,
            &Response {
                status: header,
                lines,
            },
        )?;
        return Ok(StreamEnd::Complete);
    }
    if !*header_sent {
        writeln!(w, "{header}")?;
        w.flush()?;
        *header_sent = true;
    }
    // DONE/ABORT already relayed: the stream's substance is complete, so a
    // death before the trailing terminator only needs the frame closed —
    // failing over would replay a finished session and duplicate its DONE.
    let mut finished = false;
    loop {
        match client.next_line() {
            Ok(Some(l)) if l == TERMINATOR => break,
            Ok(Some(l)) => {
                if l.starts_with("EMIT ") {
                    *relayed += 1;
                } else if l.starts_with("DONE") || l.starts_with("ABORT") {
                    finished = true;
                }
                writeln!(w, "{l}")?;
                w.flush()?;
            }
            _ if finished => break,
            _ => return Ok(StreamEnd::Died),
        }
    }
    writeln!(w, "{TERMINATOR}")?;
    w.flush()?;
    Ok(StreamEnd::Complete)
}

/// Routes a `SUBSCRIBE` to its owning shard and relays the stream with
/// replica failover. The resumability contract that makes this exact: the
/// emission sequence is a pure function of (instance, parameters), every
/// replica of the shard holds the same instance, and `AFTER n` skips
/// exactly `n` leading emissions without changing the `DONE` totals — so
/// reissuing on a fresh replica with `AFTER (client's skip + relayed)`
/// continues the stream with zero duplicated and zero missing emissions.
fn route_subscribe(
    state: &RouterState,
    counters: &Counters,
    pool: &mut BackendPool,
    spec: &SubscribeSpec,
    w: &mut impl Write,
) -> Result<(), Fail> {
    let owning = state.topo.owning_shards(&spec.labels);
    let Some((&shard, rest)) = owning.split_first() else {
        return Err(MqdError::protocol("SUBSCRIBE needs at least one label").into());
    };
    if !rest.is_empty() {
        return Err(MqdError::protocol(format!(
            "SUBSCRIBE labels span shards {owning:?}; a session streams from one shard \
             (split the subscription per shard)"
        ))
        .into());
    }
    let mut relayed: u64 = 0;
    let mut header_sent = false;
    for idx in state.topo.replicas(shard) {
        let reissue = SubscribeSpec {
            after: spec.after + relayed,
            ..spec.clone()
        };
        let frame = Request::Subscribe(reissue).frame(&[]);
        let end = match pool.session(idx) {
            Ok(client) => relay_stream(client, &frame, &mut relayed, &mut header_sent, w)?,
            Err(_) => StreamEnd::Died,
        };
        match end {
            StreamEnd::Complete => return Ok(()),
            StreamEnd::Died => pool.drop_session(idx),
        }
    }
    let reason = format!(
        "shard {shard}/{} has no live backend",
        state.topo.shard_count()
    );
    if !header_sent {
        return Err(MqdError::protocol(reason).into());
    }
    // The +OK header is out: abort inside the payload framing.
    counters.errors.fetch_add(1, Ordering::Relaxed);
    Ok(write_abort(w, "Protocol", &reason)?)
}

/// Renders the router `STATS` through [`stats_object`], as a single node
/// does: the core fields from the ledger (`segments` is a per-backend
/// physical detail, reported as 0), the cluster map with per-backend
/// liveness probes, and the router's own serving counters.
fn cluster_stats(
    state: &RouterState,
    engine: &Engine,
    pool: &mut BackendPool,
) -> Result<String, MqdError> {
    let (core, marks) = {
        let ledger = lock_ledger(state)?;
        let core = StoreStats {
            rows: ledger.rows,
            segments: 0,
            labels: ledger.label_count(),
            generation: ledger.rows,
            min_value: ledger.min_value,
            max_value: ledger.max_value,
        };
        (core, ledger.watermarks.clone())
    };
    // One liveness probe per backend, all sent before any is read.
    let probe = Request::Stats.frame(&[]);
    let probes: Vec<(usize, &[u8])> = (0..state.topo.backends().len())
        .map(|idx| (idx, probe.as_slice()))
        .collect();
    let mut backends = String::new();
    for (idx, reply) in pool.exchange(&probes).into_iter().enumerate() {
        let shard = state.topo.identity_of(idx).shard_id;
        let generation = reply
            .ok()
            .filter(Response::is_ok)
            .and_then(|r| json_u64(&r.status, "generation"));
        if generation.is_none() {
            pool.drop_session(idx);
        }
        if !backends.is_empty() {
            backends.push(',');
        }
        backends.push_str(&format!(
            r#"{{"shard":{shard},"alive":{},"generation":{}}}"#,
            generation.is_some(),
            generation.map_or("null".to_string(), |g| g.to_string()),
        ));
    }
    let marks: Vec<String> = marks.iter().map(|m| m.to_string()).collect();
    let cluster = format!(
        r#""cluster":{{"shards":{},"backends":[{}],"watermarks":[{}]}}"#,
        state.topo.shard_count(),
        backends,
        marks.join(","),
    );
    Ok(stats_object(
        &core,
        &[&cluster, &engine.counters().served_json()],
        engine.threads(),
        engine.draining(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::wire::ShardIdentity;
    use mqd_server::{Server, ServerConfig};

    fn start_backend(shard: Option<ShardIdentity>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_queue: 16,
            shard,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn start_router(
        backends: Vec<String>,
        shards: u32,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let router = Router::bind(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends,
            shards,
            threads: 2,
            max_queue: 16,
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = router.local_addr();
        let handle = std::thread::spawn(move || router.run().unwrap());
        (addr, handle)
    }

    fn feed() -> Vec<(u64, i64, &'static str)> {
        let mut rows = Vec::new();
        for i in 0..60u64 {
            let labels = ["0", "1", "0,1", "2,3", "1,2", "3"][(i % 6) as usize];
            rows.push((i + 1, (i as i64 / 3) * 5, labels));
        }
        rows
    }

    #[test]
    fn two_shard_cluster_matches_a_single_node() {
        let (b0, h0) = start_backend(Some(ShardIdentity {
            shard_id: 0,
            shard_count: 2,
        }));
        let (b1, h1) = start_backend(Some(ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        }));
        let (single, hs) = start_backend(None);
        let (router, hr) = start_router(vec![b0.to_string(), b1.to_string()], 2);

        let mut via_router = Client::connect(router).unwrap();
        let mut via_single = Client::connect(single).unwrap();
        for (id, value, labels) in feed() {
            let line = format!("INGEST {id} {value} {labels}");
            let a = via_router.request(&line).unwrap();
            let b = via_single.request(&line).unwrap();
            assert!(a.is_ok(), "{}", a.status);
            // The ingest ack is byte-identical to the single node's.
            assert_eq!(a.status, b.status);
        }

        for q in [
            "QUERY 0,1,2,3 10 scan",               // multi-shard COVER merge
            "QUERY 0,1,2,3 10 scanplus",           // multi-shard SLICE + local solve
            "QUERY 0,1,2,3 15 greedysc",           //
            "QUERY 0,1,2,3 15 opt FROM 10 TO 80",  //
            "QUERY 0,1,2,3 40 scan PROP",          // proportional goes the SLICE path
            "QUERY 0,2 10 scan",                   // single-shard forward
            "QUERY 1 0 greedysc",                  //
            "QUERY 0,1 25 scanplus FROM 20 TO 60", //
        ] {
            let a = via_router.request(q).unwrap();
            let b = via_single.request(q).unwrap();
            assert!(a.is_ok(), "{q}: {}", a.status);
            assert_eq!(a.lines, b.lines, "{q}");
            // The router stamps the per-shard vector watermark instead of
            // the single generation.
            assert!(a.status.contains(r#""generations":["#), "{}", a.status);
        }

        // SUBSCRIBE through the router: single-shard label sets relay the
        // stream; spanning sets are a typed error.
        let sub = "SUBSCRIBE 0,2 10 20 greedy";
        let a = via_router.request(sub).unwrap();
        let b = via_single.request(sub).unwrap();
        assert!(a.is_ok(), "{}", a.status);
        assert_eq!(a.lines, b.lines);
        let spanning = via_router.request("SUBSCRIBE 0,1 10 20 greedy").unwrap();
        assert!(
            spanning.status.starts_with("-ERR Protocol "),
            "{}",
            spanning.status
        );
        assert!(spanning.status.contains("span"), "{}", spanning.status);

        // STATS core fields match the single node; cluster section reports
        // both backends alive at their watermarks.
        let a = via_router.request("STATS").unwrap();
        let b = via_single.request("STATS").unwrap();
        for key in ["rows", "labels", "generation"] {
            assert_eq!(
                json_u64(&a.status, key),
                json_u64(&b.status, key),
                "{key}: {} vs {}",
                a.status,
                b.status
            );
        }
        assert!(a.status.contains(r#""min_value":0"#), "{}", a.status);
        assert!(a.status.contains(r#""alive":true"#), "{}", a.status);

        // Backend verbs are rejected at the frontend.
        for bad in ["QUERY 0 5 scan COVER 0", "SLICE 0", "HELLO 7"] {
            if bad.starts_with("HELLO") {
                let r = via_router.request_raw(b"HELLO 7\n0123456").unwrap();
                assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
            } else {
                let r = via_router.request(bad).unwrap();
                assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
            }
        }

        // DRAIN through the router shuts down the whole cluster.
        assert!(via_router.request("DRAIN").unwrap().is_ok());
        assert!(via_single.request("DRAIN").unwrap().is_ok());
        for h in [h0, h1, hs, hr] {
            h.join().unwrap();
        }
    }

    /// The router's whole `STATS` line after a fixed script, byte for
    /// byte: the core fields a single node also reports, the cluster
    /// section, the serving counters and the `threads`/`draining` tail, in
    /// their wire order.
    #[test]
    fn router_stats_line_is_byte_stable() {
        let (b0, h0) = start_backend(Some(ShardIdentity {
            shard_id: 0,
            shard_count: 2,
        }));
        let (b1, h1) = start_backend(Some(ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        }));
        let (router, hr) = start_router(vec![b0.to_string(), b1.to_string()], 2);
        let mut client = Client::connect(router).unwrap();
        let empty = client.request("STATS").unwrap();
        assert_eq!(
            empty.status,
            concat!(
                r#"+OK {"rows":0,"segments":0,"labels":0,"generation":0,"#,
                r#""min_value":null,"max_value":null,"#,
                r#""cluster":{"shards":2,"backends":[{"shard":0,"alive":true,"generation":0},"#,
                r#"{"shard":1,"alive":true,"generation":0}],"watermarks":[0,0]},"#,
                r#""served":{"connections":1,"queries":0,"ingested_rows":0,"subscribes":0,"#,
                r#""errors":0,"overloads":0,"timeouts":0},"threads":2,"draining":false}"#
            )
        );
        for (id, value, labels) in feed() {
            let r = client
                .request(&format!("INGEST {id} {value} {labels}"))
                .unwrap();
            assert!(r.is_ok(), "{}", r.status);
        }
        for q in [
            "QUERY 0,1,2,3 10 scan",
            "QUERY 0,2 10 greedysc",
            "QUERY 0 -5 scan",
        ] {
            client.request(q).unwrap();
        }
        let stats = client.request("STATS").unwrap();
        assert_eq!(
            stats.status,
            concat!(
                r#"+OK {"rows":60,"segments":0,"labels":4,"generation":60,"#,
                r#""min_value":0,"max_value":95,"#,
                r#""cluster":{"shards":2,"backends":[{"shard":0,"alive":true,"generation":40},"#,
                r#"{"shard":1,"alive":true,"generation":50}],"watermarks":[40,50]},"#,
                r#""served":{"connections":1,"queries":3,"ingested_rows":60,"subscribes":0,"#,
                r#""errors":1,"overloads":0,"timeouts":0},"threads":2,"draining":false}"#
            )
        );
        assert!(client.request("DRAIN").unwrap().is_ok());
        for h in [h0, h1, hr] {
            h.join().unwrap();
        }
    }

    #[test]
    fn replicated_shard_fails_over_between_backends() {
        // Shard 0 twice (replicas), one-shard map: both backends hold the
        // full corpus, and DRAIN-ing one mid-session must not lose QUERYs.
        let (b0, h0) = start_backend(Some(ShardIdentity {
            shard_id: 0,
            shard_count: 1,
        }));
        let (b1, h1) = start_backend(Some(ShardIdentity {
            shard_id: 0,
            shard_count: 1,
        }));
        let (router, hr) = start_router(vec![b0.to_string(), b1.to_string()], 1);
        let mut c = Client::connect(router).unwrap();
        for (id, value, labels) in feed() {
            assert!(c
                .request(&format!("INGEST {id} {value} {labels}"))
                .unwrap()
                .is_ok());
        }
        let before = c.request("QUERY 0,1,2,3 10 scan").unwrap();
        assert!(before.is_ok(), "{}", before.status);

        // Kill the primary replica directly (behind the router's back).
        let mut direct = Client::connect(b0).unwrap();
        assert!(direct.request("DRAIN").unwrap().is_ok());
        h0.join().unwrap();

        // The router's next query fails over to the second replica and
        // returns the same rows.
        let after = c.request("QUERY 0,1,2,3 10 scan").unwrap();
        assert!(after.is_ok(), "{}", after.status);
        assert_eq!(after.lines, before.lines);
        let stats = c.request("STATS").unwrap();
        assert!(
            stats.status.contains(r#""alive":false"#),
            "{}",
            stats.status
        );
        assert!(stats.status.contains(r#""alive":true"#), "{}", stats.status);

        assert!(c.request("DRAIN").unwrap().is_ok());
        h1.join().unwrap();
        hr.join().unwrap();
    }

    fn shard_backends(count: u32, replicas: u32) -> Vec<(SocketAddr, std::thread::JoinHandle<()>)> {
        (0..count * replicas)
            .map(|j| {
                start_backend(Some(ShardIdentity {
                    shard_id: j % count,
                    shard_count: count,
                }))
            })
            .collect()
    }

    fn record(id: u64, value: i64, labels: &[u16]) -> mqd_core::record::Record {
        mqd_core::record::Record {
            id,
            value,
            labels: labels.to_vec(),
        }
    }

    /// Sends `req` to the router and to the single node and asserts the
    /// two answers agree: the whole status line unless it is a `QUERY`
    /// `+OK` (whose watermark differs by design), and every payload line.
    fn agree(router: &mut Client, single: &mut Client, req: &str) -> Response {
        let a = router.request(req).unwrap();
        let b = single.request(req).unwrap();
        if !(req.starts_with("QUERY") && b.is_ok()) {
            assert_eq!(a.status, b.status, "{req}");
        }
        assert_eq!(a.is_ok(), b.is_ok(), "{req}: {} vs {}", a.status, b.status);
        assert_eq!(a.lines, b.lines, "{req}");
        a
    }

    const SPOT_QUERIES: [&str; 4] = [
        "QUERY 0,1,2,3 10 scan TO 100",
        "QUERY 0,1,2,3 15 greedysc TO 100",
        "QUERY 1,3 10 scan TO 100",
        "QUERY 0,2 25 scanplus TO 100",
    ];

    #[test]
    fn the_door_refuses_what_a_single_node_refuses() {
        let backends = shard_backends(2, 1);
        let (single, hs) = start_backend(None);
        let addrs = backends.iter().map(|(a, _)| a.to_string()).collect();
        let (router, hr) = start_router(addrs, 2);
        let mut via_router = Client::connect(router).unwrap();
        let mut via_single = Client::connect(single).unwrap();
        for (id, value, labels) in feed() {
            agree(
                &mut via_router,
                &mut via_single,
                &format!("INGEST {id} {value} {labels}"),
            );
        }
        // Row 2 of the batch has no label; row 3 is valued below row 2 of
        // the next batch, which went to the other shard; a lone INGEST
        // below everything routed.
        for batch in [
            vec![
                record(101, 100, &[0]),
                record(102, 100, &[]),
                record(103, 101, &[1]),
            ],
            vec![record(104, 120, &[0]), record(105, 115, &[1])],
        ] {
            let a = via_router.ingest_batch(&batch).unwrap();
            let b = via_single.ingest_batch(&batch).unwrap();
            assert!(a.status.starts_with("-ERR "), "{}", a.status);
            assert_eq!(a.status, b.status);
        }
        agree(&mut via_router, &mut via_single, "INGEST 106 110 1");
        // The ledger counted the prefixes and nothing else: the next ack
        // carries the single node's generation, and the STATS core agrees.
        agree(&mut via_router, &mut via_single, "INGEST 107 130 0,1");
        let a = via_router.request("STATS").unwrap();
        let b = via_single.request("STATS").unwrap();
        for key in ["rows", "labels", "generation", "min_value", "max_value"] {
            assert_eq!(json_u64(&a.status, key), json_u64(&b.status, key), "{key}");
        }
        for q in SPOT_QUERIES
            .iter()
            .chain(&["QUERY 0,1 10 scan", "QUERY 0,1 10 greedysc"])
        {
            agree(&mut via_router, &mut via_single, q);
        }
        assert!(via_router.request("DRAIN").unwrap().is_ok());
        assert!(via_single.request("DRAIN").unwrap().is_ok());
        for (_, h) in backends {
            h.join().unwrap();
        }
        hs.join().unwrap();
        hr.join().unwrap();
    }

    /// A multi-shard exchange where shard 0 answers `-ERR` (then fails at
    /// the transport level) and shard 1 answers `+OK`: shard 1's reply
    /// must be read in the same exchange, or it answers the next request.
    #[test]
    fn a_refused_scatter_leaves_no_stale_reply() {
        let mut backends = shard_backends(2, 1);
        let (single, hs) = start_backend(None);
        let addrs = backends.iter().map(|(a, _)| a.to_string()).collect();
        let (router, hr) = start_router(addrs, 2);
        let mut via_router = Client::connect(router).unwrap();
        let mut via_single = Client::connect(single).unwrap();
        for (id, value, labels) in feed() {
            agree(
                &mut via_router,
                &mut via_single,
                &format!("INGEST {id} {value} {labels}"),
            );
        }

        // Behind the router's back, shard 0 takes a row valued above the
        // next routed batch, so it alone refuses that batch.
        let mut direct = Client::connect(backends[0].0).unwrap();
        assert!(direct.request("INGEST 900 1000 0").unwrap().is_ok());
        let batch = [record(500, 200, &[0]), record(501, 200, &[1])];
        let refused = via_router.ingest_batch(&batch).unwrap();
        assert!(
            refused.status.starts_with("-ERR NonMonotoneTimestamp "),
            "{}",
            refused.status
        );
        for q in SPOT_QUERIES {
            agree(&mut via_router, &mut via_single, q);
        }

        // Shard 0 goes away: a gather fails at its transport, shard 1's
        // slice is still read.
        assert!(direct.request("DRAIN").unwrap().is_ok());
        backends.remove(0).1.join().unwrap();
        let failed = via_router.request("QUERY 0,1,2,3 15 greedysc").unwrap();
        assert!(
            failed.status.contains("has no live backend"),
            "{}",
            failed.status
        );
        agree(&mut via_router, &mut via_single, "QUERY 1,3 10 scan TO 100");
        agree(
            &mut via_router,
            &mut via_single,
            "QUERY 1 0 greedysc TO 100",
        );

        assert!(via_router.request("DRAIN").unwrap().is_ok());
        assert!(via_single.request("DRAIN").unwrap().is_ok());
        for (_, h) in backends {
            h.join().unwrap();
        }
        hs.join().unwrap();
        hr.join().unwrap();
    }

    #[test]
    fn ingest_reaches_the_live_replica_after_one_drains() {
        // Two shards, two replicas each: backends 0 and 2 serve shard 0.
        let mut backends = shard_backends(2, 2);
        let (single, hs) = start_backend(None);
        let addrs = backends.iter().map(|(a, _)| a.to_string()).collect();
        let (router, hr) = start_router(addrs, 2);
        let mut via_router = Client::connect(router).unwrap();
        let mut via_single = Client::connect(single).unwrap();
        let feed = feed();
        let (first, second) = feed.split_at(feed.len() / 2);
        for (id, value, labels) in first {
            agree(
                &mut via_router,
                &mut via_single,
                &format!("INGEST {id} {value} {labels}"),
            );
        }
        let mut direct = Client::connect(backends[0].0).unwrap();
        assert!(direct.request("DRAIN").unwrap().is_ok());
        backends.remove(0).1.join().unwrap();
        // Single rows, then one batch spanning both shards.
        for (id, value, labels) in &second[..10] {
            let a = agree(
                &mut via_router,
                &mut via_single,
                &format!("INGEST {id} {value} {labels}"),
            );
            assert!(a.is_ok(), "{}", a.status);
        }
        let batch: Vec<_> = (second[10..].iter())
            .map(|&(id, value, labels)| {
                let labels: Vec<u16> = labels.split(',').map(|l| l.parse().unwrap()).collect();
                record(id, value, &labels)
            })
            .collect();
        let a = via_router.ingest_batch(&batch).unwrap();
        let b = via_single.ingest_batch(&batch).unwrap();
        assert!(a.is_ok(), "{}", a.status);
        assert_eq!(a.status, b.status);
        for q in [
            "QUERY 0,1,2,3 10 scan",
            "QUERY 0,1,2,3 15 greedysc",
            "QUERY 0,1,2,3 40 scan PROP",
            "QUERY 0,2 10 scan",
            "QUERY 1,3 25 scanplus FROM 20 TO 90",
        ] {
            let a = agree(&mut via_router, &mut via_single, q);
            assert!(a.is_ok(), "{q}: {}", a.status);
        }
        assert!(via_router.request("DRAIN").unwrap().is_ok());
        assert!(via_single.request("DRAIN").unwrap().is_ok());
        for (_, h) in backends {
            h.join().unwrap();
        }
        hs.join().unwrap();
        hr.join().unwrap();
    }

    #[test]
    fn a_backend_that_refused_the_shard_map_still_drains() {
        // The backend serves shard 1/2; the router's one-shard map calls
        // it shard 0/1, so every HELLO is refused.
        let (b, hb) = start_backend(Some(ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        }));
        let (router, hr) = start_router(vec![b.to_string()], 1);
        let mut c = Client::connect(router).unwrap();
        let refused = c.request("QUERY 0 10 scan").unwrap();
        assert!(refused.status.starts_with("-ERR "), "{}", refused.status);
        assert!(
            refused.status.contains("rejected the shard map"),
            "{}",
            refused.status
        );

        // A routed DRAIN must still stop the backend. Wait through a
        // channel so a backend that never drains fails the test instead
        // of hanging it.
        assert!(c.request("DRAIN").unwrap().is_ok());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(hb.join().is_ok());
        });
        let exited = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(exited, Ok(true), "the backend did not drain within 10 s");
        hr.join().unwrap();
    }

    #[test]
    fn the_ledger_counts_what_a_label_set_counted() {
        // The reference: the `BTreeSet` and per-row min/max the ledger
        // kept before it read batches in columns.
        let mut seed = 0x1ed9e4u64;
        let mut below = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for shards in 1..=8u32 {
            let topo = Topology::new((0..shards).map(|s| s.to_string()).collect(), shards).unwrap();
            let mut ledger = Ledger::new(shards as usize);
            let (mut rows, mut labels) = (0u64, BTreeSet::new());
            let (mut min, mut max) = (None::<i64>, None::<i64>);
            let mut marks = vec![0u64; shards as usize];
            for _ in 0..20 {
                let records: Vec<mqd_core::record::Record> = (0..below(30))
                    .map(|_| mqd_core::record::Record {
                        id: below(1000),
                        value: [i64::MIN, i64::MAX, below(100) as i64 - 50][below(3) as usize],
                        labels: (0..below(4))
                            .map(|_| [0, u16::MAX, below(70) as u16][below(3) as usize])
                            .collect(),
                    })
                    .collect();
                let batch: Rows = records.iter().collect();
                let per_shard: Vec<u64> = (topo.split(&batch).iter())
                    .map(|p| p.len() as u64)
                    .collect();
                ledger.apply(&batch, &per_shard);
                rows += batch.len() as u64;
                for row in batch.iter() {
                    labels.extend(row.labels.iter().copied());
                    min = Some(min.map_or(row.value, |m| m.min(row.value)));
                    max = Some(max.map_or(row.value, |m| m.max(row.value)));
                }
                marks.iter_mut().zip(&per_shard).for_each(|(m, n)| *m += n);
                assert_eq!(ledger.rows, rows);
                assert_eq!(ledger.label_count(), labels.len());
                assert_eq!((ledger.min_value, ledger.max_value), (min, max));
                assert_eq!(ledger.watermarks, marks);
            }
        }
    }

    #[test]
    fn bad_topologies_fail_at_bind() {
        for (n, shards) in [(0usize, 1u32), (3, 2), (1, 2), (2, 0)] {
            let cfg = RouterConfig {
                backends: (0..n).map(|i| format!("127.0.0.1:{}", 20000 + i)).collect(),
                shards,
                ..RouterConfig::default()
            };
            assert!(
                Router::bind(&cfg).is_err(),
                "{n} backends / {shards} shards"
            );
        }
    }
}
