//! The server runtime: the store-backed [`Handler`] behind the shared
//! connection engine ([`crate::conn`]), plus the background refresher pool.

use std::collections::HashSet;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use mqd_core::record::{Record, RowRef, TsvRows};
use mqd_core::wire::{decode_hello, shard_of_label, ShardIdentity};
use mqd_core::MqdError;
use mqd_store::{
    open_repair_state, run_query_cover, solve_slice, validate_spec, CacheStats, CoverCache, Lookup,
    QuerySpec, StoreStats,
};
use mqd_stream::{resume_supervised, FaultPlan, SupervisedRun, SupervisorConfig};
use mqd_wal::{fsio, DurableOptions, DurableStats, DurableStore};

use crate::conn::{Counters, Engine, Fail, Handler};
use crate::lineio::READ_TICK;
use crate::protocol::{
    decode_batch, error_kind, write_ingested, write_ok, write_ok_rows, Request, SubscribeSpec,
    TERMINATOR,
};
use crate::subs::{self, LeaseRegistry, SubParams};

/// Pending background re-solve jobs; a full queue drops the job (the next
/// stale hit on the entry re-claims the refresh, so nothing is lost).
const REFRESH_QUEUE: usize = 256;

/// Arrivals delivered between emission flushes in a SUBSCRIBE session.
const SUBSCRIBE_CHUNK: usize = 256;

/// Server settings, as exposed by `mqdiv serve`.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads; 0 uses [`mqd_par::configured_threads`], floored at
    /// 4. A worker owns its connection for the connection's lifetime, and
    /// connection handling is blocking I/O, not CPU-bound — without the
    /// floor, a single-core host serves one connection at a time and an
    /// idle-but-open client starves everyone else.
    pub threads: usize,
    /// Admission queue depth: connections waiting for a worker beyond this
    /// are answered `-OVERLOADED` instead of queued.
    pub max_queue: usize,
    /// Data directory for the durable store. `None` serves memory-only
    /// (the pre-durability behavior); `Some` opens/recovers a WAL and
    /// sealed segments there and checkpoints named subscriptions under
    /// `<dir>/subs/`.
    pub data_dir: Option<PathBuf>,
    /// Fsync on the durability points (WAL ack barrier, seals, checkpoint
    /// writes). `--no-fsync` trades crash safety for ingest throughput.
    pub fsync: bool,
    /// Retention span in value units: sealed windows entirely older than
    /// `newest value - retain` (and not pinned by any live cache entry or
    /// named subscription lease) are garbage-collected. `None` keeps
    /// everything.
    pub retain: Option<i64>,
    /// This backend's position in a cluster shard map
    /// (`mqdiv serve --shard-id/--shard-count`). A sharded backend verifies
    /// router `HELLO` handshakes against it, rejects ingest rows owning
    /// none of its labels (a misrouted row would silently corrupt the
    /// cluster/single-node identity), and reports it in `STATS`. `None`
    /// serves standalone.
    pub shard: Option<ShardIdentity>,
    /// Per-request idle budget: a connection whose request line (or body)
    /// stalls longer than this — half-open sockets, byte dribblers — gets
    /// a typed `-ERR Timeout` and is closed, reclaiming the worker. The
    /// same budget bounds a blocked response write (a peer that stops
    /// reading is closed and counted in `timeouts`).
    /// `None` (the default) waits forever, the pre-timeout behavior.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            max_queue: 64,
            data_dir: None,
            fsync: true,
            retain: None,
            shard: None,
            idle_timeout: None,
        }
    }
}

struct State {
    /// Many queries read concurrently; only ingest takes the write half.
    store: RwLock<DurableStore>,
    cache: Mutex<CoverCache>,
    /// GC leases of named durable subscriptions. Lock order everywhere:
    /// store, then cache, then subs.
    subs: Mutex<LeaseRegistry>,
    /// `<data-dir>/subs` when durable; named `SUBSCRIBE` sessions need it.
    subs_dir: Option<PathBuf>,
    /// Whether checkpoint writes fsync (mirrors the store's setting).
    fsync: bool,
    /// Hands stale specs to the background refresher pool. `try_send`
    /// only: the request path never blocks on refresh scheduling.
    refresh_tx: SyncSender<QuerySpec>,
    /// Cluster shard coordinates, when configured (see [`ServerConfig`]).
    shard: Option<ShardIdentity>,
}

/// A bound, ready-to-run server. [`Server::run`] blocks until a `DRAIN`
/// request shuts it down.
pub struct Server {
    engine: Engine,
    state: State,
    refresh_rx: Receiver<QuerySpec>,
}

impl Server {
    /// Binds the listen socket and sizes the worker pool. With a data dir
    /// configured this also opens (or crash-recovers) the durable store
    /// and re-registers the GC leases of checkpointed subscriptions, so a
    /// `bind` that returns `Ok` is already fully recovered.
    pub fn bind(cfg: &ServerConfig) -> Result<Self, MqdError> {
        if let Some(s) = &cfg.shard {
            let max = mqd_core::wire::MAX_SHARD_COUNT;
            if s.shard_count == 0 || s.shard_count > max || s.shard_id >= s.shard_count {
                return Err(MqdError::protocol(format!(
                    "shard {}/{} invalid (need 0 <= id < count <= {max})",
                    s.shard_id, s.shard_count
                )));
            }
        }
        let engine = Engine::bind(
            "server",
            &cfg.addr,
            cfg.threads,
            cfg.max_queue,
            cfg.idle_timeout,
        )?;
        let store = match &cfg.data_dir {
            Some(dir) => DurableStore::open(
                dir,
                &DurableOptions {
                    fsync: cfg.fsync,
                    retain: cfg.retain,
                    ..DurableOptions::default()
                },
            )?,
            None => DurableStore::memory(),
        };
        let subs_dir = cfg.data_dir.as_ref().map(|d| d.join("subs"));
        let mut leases = LeaseRegistry::default();
        if let Some(dir) = &subs_dir {
            fsio::ensure_dir(dir)?;
            subs::scan_leases(dir, &mut leases);
        }
        let (refresh_tx, refresh_rx) = sync_channel::<QuerySpec>(REFRESH_QUEUE);
        Ok(Server {
            engine,
            state: State {
                store: RwLock::new(store),
                cache: Mutex::new(CoverCache::new()),
                subs: Mutex::new(leases),
                subs_dir,
                fsync: cfg.fsync,
                refresh_tx,
                shard: cfg.shard,
            },
            refresh_rx,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.engine.local_addr()
    }

    /// The resolved worker-pool size (see [`ServerConfig::threads`]).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Serves until drained (see [`Engine::serve`]), with the refresher
    /// pool running beside the connection workers.
    pub fn run(self) -> Result<(), MqdError> {
        let (engine, state) = (&self.engine, &self.state);
        let refresh_rx = Mutex::new(self.refresh_rx);
        std::thread::scope(|s| {
            // The refresher pool mirrors the worker pool's shape (shared
            // receiver behind a mutex, sized off the same thread budget):
            // re-solves are CPU work, so a fraction of the I/O pool is
            // enough and leaves cores for serving.
            for _ in 0..(engine.threads() / 4).max(1) {
                s.spawn(|| refresher_loop(&refresh_rx, state, engine));
            }
            engine.serve(state);
        });
        Ok(())
    }
}

/// Locks a shared mutex, mapping poisoning to a typed error. The engine's
/// panic backstop makes poisoning reachable without killing the process,
/// so lock failures must flow to the client as `-ERR`, not take down the
/// worker with a second panic.
fn lock_or_poisoned<'a, T>(
    m: &'a Mutex<T>,
    what: &'static str,
) -> Result<std::sync::MutexGuard<'a, T>, MqdError> {
    m.lock().map_err(|_| MqdError::Poisoned { what })
}

/// Read-locks the store (see [`lock_or_poisoned`] for the poisoning story).
fn read_or_poisoned(
    m: &RwLock<DurableStore>,
) -> Result<std::sync::RwLockReadGuard<'_, DurableStore>, MqdError> {
    m.read().map_err(|_| MqdError::Poisoned { what: "store" })
}

/// Write-locks the store (see [`lock_or_poisoned`] for the poisoning story).
fn write_or_poisoned(
    m: &RwLock<DurableStore>,
) -> Result<std::sync::RwLockWriteGuard<'_, DurableStore>, MqdError> {
    m.write().map_err(|_| MqdError::Poisoned { what: "store" })
}

/// The background refresher: drains stale specs off the request path and
/// re-solves them. Wakes every [`READ_TICK`] to observe the drain flag.
fn refresher_loop(rx: &Mutex<Receiver<QuerySpec>>, state: &State, engine: &Engine) {
    loop {
        let job = {
            let Ok(guard) = rx.lock() else { return };
            guard.recv_timeout(READ_TICK)
        };
        match job {
            Ok(spec) => refresh_entry(state, &spec),
            Err(RecvTimeoutError::Timeout) => {
                if engine.draining() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One background refresh: snapshot the slice under the read lock, solve
/// with no lock held, then install the answer. If ingest moved the store
/// on while solving, the entry is still stale at install time — re-enqueue
/// it (or, on a full queue, release the claim so the next stale hit
/// re-schedules it).
fn refresh_entry(state: &State, spec: &QuerySpec) {
    let snapshot = read_or_poisoned(&state.store).map(|store| {
        (
            store.generation(),
            store.store().last_value(),
            store.store().slice(&spec.labels, spec.from, spec.to),
        )
    });
    let Ok((generation, newest, slice)) = snapshot else {
        return;
    };
    let Ok(records) = solve_slice(&slice, spec) else {
        // Invalid specs are rejected before ever being cached; release the
        // claim defensively and drop the job.
        if let Ok(mut cache) = lock_or_poisoned(&state.cache, "cache") {
            cache.refresh_not_queued(spec);
        }
        return;
    };
    let repair = open_repair_state(&slice, spec, newest);
    let Ok(mut cache) = lock_or_poisoned(&state.cache, "cache") else {
        return;
    };
    let still_stale = cache.install_refreshed(spec, records, generation, repair);
    if still_stale && state.refresh_tx.try_send(spec.clone()).is_err() {
        cache.refresh_not_queued(spec);
    }
}

impl Handler for State {
    type Session<'a> = ();

    fn open(&self) {}

    fn execute(
        &self,
        engine: &Engine,
        _session: &mut (),
        req: &Request,
        body: &[u8],
        w: &mut impl Write,
    ) -> Result<(), Fail> {
        let counters = engine.counters();
        match req {
            Request::Stats => write_ok(w, &stats_json(self, engine)?, &[])?,
            Request::Ingest(row) => {
                let (n, generation) = ingest_rows(self, counters, std::iter::once(row.as_row()))?;
                write_ingested(w, n, generation)?;
            }
            Request::IngestBatch { .. } => {
                // The whole body is decoded before a row is appended, so a
                // corrupt body appends nothing.
                let rows = decode_batch(body)?;
                let (n, generation) = ingest_rows(self, counters, rows.iter())?;
                write_ingested(w, n, generation)?;
            }
            Request::Query(spec) => {
                counters.queries.fetch_add(1, Ordering::Relaxed);
                let (rows, generation, cached, stale) = answer_query(self, spec)?;
                write_cover(w, spec, &rows, generation, cached, stale)?;
            }
            Request::QueryCover { spec, cover } => {
                counters.queries.fetch_add(1, Ordering::Relaxed);
                // Cover queries are router-internal fan-out halves: always a
                // cold solve against a slice snapshot (the router's merged
                // answer is what user-facing caching applies to), stamped with
                // the snapshot generation so the router can build its vector
                // watermark.
                let (generation, rows) = {
                    let store = read_or_poisoned(&self.store)?;
                    (
                        store.generation(),
                        run_query_cover(store.store(), spec, cover)?,
                    )
                };
                let rows = TsvRows::from_records(&rows);
                write_cover(w, spec, &rows, generation, false, false)?;
            }
            Request::Slice { labels, from, to } => {
                // Raw slice export for the router's merge-and-solve path. Rows
                // come back in slice order (value, then external id) with each
                // row's labels already intersected with the requested set —
                // identical rendering on every shard, so a dedup-by-id merge
                // reconstructs the single-node slice byte-for-byte.
                let (generation, slice) = {
                    let store = read_or_poisoned(&self.store)?;
                    (store.generation(), store.store().slice(labels, *from, *to))
                };
                // The slice is a snapshot: rendered with the lock released,
                // so a large gather does not hold ingest up. One record is
                // refilled per row.
                let mut rows = TsvRows::new();
                let mut row = Record {
                    id: 0,
                    value: 0,
                    labels: Vec::with_capacity(slice.label_map.len()),
                };
                for i in 0..slice.instance.len() as u32 {
                    slice.fill_record(i, &mut row);
                    rows.push(&row);
                }
                let json = format!(r#"{{"count":{},"generation":{}}}"#, rows.len(), generation);
                write_ok_rows(w, &json, &rows)?;
            }
            Request::Hello { .. } => write_ok(w, &hello(self, body)?, &[])?,
            Request::Subscribe(spec) => {
                counters.subscribes.fetch_add(1, Ordering::Relaxed);
                subscribe(self, counters, spec, w)?;
            }
            Request::Ping | Request::Drain | Request::Quit => {
                return Err(MqdError::protocol("transport verb reached the handler").into());
            }
        }
        Ok(())
    }
}

/// Answers a `QUERY` (cached or cold) or a `COVER` half with its rows,
/// which are written as they stand.
fn write_cover(
    w: &mut impl Write,
    spec: &QuerySpec,
    rows: &TsvRows,
    generation: u64,
    cached: bool,
    stale: bool,
) -> std::io::Result<()> {
    let json = format!(
        r#"{{"algorithm":"{}","count":{},"cached":{cached},"stale":{stale},"generation":{generation}}}"#,
        spec.algorithm.as_str(),
        rows.len(),
    );
    write_ok_rows(w, &json, rows)
}

/// Serves a query through the repairable cache. The hot path is one store
/// read-lock (for the generation) plus one cache lookup — a hit neither
/// solves, copies nor renders: it takes a reference to the entry's
/// rendered rows and the caller writes them once both locks are released.
/// The rows are immutable while shared, so a repair or refresh that lands
/// meanwhile cannot change the bytes of a response already stamped with
/// its generation. A stale hit is served at its watermark generation and
/// hands the entry to the refresher. A miss solves against a slice
/// *snapshot* with the store lock released and serves the very rows
/// `insert_fresh` rendered for its entry (the one render of the answer,
/// under the cache lock), with a repair state only if the cover can still
/// grow ([`open_repair_state`]); if ingest advances the store mid-solve,
/// the answer is inserted already-stale at its watermark and the
/// refresher catches it up.
///
/// Returns `(rows, watermark generation, cached, stale)`.
fn answer_query(
    state: &State,
    spec: &QuerySpec,
) -> Result<(Arc<TsvRows>, u64, bool, bool), MqdError> {
    validate_spec(spec)?;
    // Lock order everywhere: store, then cache.
    let (generation, looked) = {
        let store = read_or_poisoned(&state.store)?;
        let generation = store.generation();
        let mut cache = lock_or_poisoned(&state.cache, "cache")?;
        (generation, cache.lookup_shared(spec, generation))
    };
    match looked {
        Lookup::Fresh(rows) => Ok((rows, generation, true, false)),
        Lookup::Stale {
            records: rows,
            generation: watermark,
            enqueue_refresh,
        } => {
            if enqueue_refresh && state.refresh_tx.try_send(spec.clone()).is_err() {
                lock_or_poisoned(&state.cache, "cache")?.refresh_not_queued(spec);
            }
            Ok((rows, watermark, true, true))
        }
        Lookup::Miss => {
            let (snap_gen, newest, slice) = {
                let store = read_or_poisoned(&state.store)?;
                (
                    store.generation(),
                    store.store().last_value(),
                    store.store().slice(&spec.labels, spec.from, spec.to),
                )
            };
            let records = solve_slice(&slice, spec)?;
            // A range closed below the newest row can never grow: its
            // cover is cached with no fold to keep.
            let repair = open_repair_state(&slice, spec, newest);
            let mut cache = lock_or_poisoned(&state.cache, "cache")?;
            let rows = cache.insert_fresh(spec, records, snap_gen, repair);
            Ok((rows, snap_gen, false, false))
        }
    }
}

/// Verifies a router `HELLO` frame against this backend's configured shard
/// coordinates. A standalone backend accepts any well-formed frame (it can
/// serve as a single-shard cluster of any map); a sharded backend rejects
/// a mismatched map with a typed error so a misconfigured router fails
/// loudly at connect time instead of silently splitting the label space
/// differently than ingest did.
fn hello(state: &State, body: &[u8]) -> Result<String, MqdError> {
    let offered = decode_hello(body)?;
    if let Some(have) = state.shard {
        if have != offered {
            return Err(MqdError::protocol(format!(
                "shard map mismatch: router expects shard {}/{}, backend serves {}/{}",
                offered.shard_id, offered.shard_count, have.shard_id, have.shard_count
            )));
        }
    }
    Ok(format!(
        r#"{{"shard_id":{},"shard_count":{},"pinned":{}}}"#,
        offered.shard_id,
        offered.shard_count,
        state.shard.is_some(),
    ))
}

/// On a sharded backend, every ingested row must carry at least one label
/// this shard owns — anything else is a router bug (or a client bypassing
/// the router), and accepting it would silently break the cluster/single-
/// node byte identity.
fn check_row_ownership<'a>(
    shard: &ShardIdentity,
    rows: impl IntoIterator<Item = RowRef<'a>>,
) -> Result<(), MqdError> {
    for row in rows {
        if !row
            .labels
            .iter()
            .any(|&l| shard_of_label(l, shard.shard_count) == shard.shard_id)
        {
            return Err(MqdError::protocol(format!(
                "row {} owns no label of shard {}/{}",
                row.id, shard.shard_id, shard.shard_count
            )));
        }
    }
    Ok(())
}

/// Appends rows and seals the resulting delta into the cache *under the
/// same store write lock*, so no query can observe the new generation
/// before the cache has classified every entry against it (repaired,
/// revalidated, or dirtied). Newly-dirty specs go to the refresher after
/// the locks drop. On a mid-batch append failure the valid prefix stays
/// (stream-prefix semantics) and is still sealed before the error returns.
/// The rows are borrowed ([`RowRef`]s of a decoded batch): each is
/// appended, logged and folded into the cache from there.
fn ingest_rows<'a>(
    state: &State,
    counters: &Counters,
    rows: impl ExactSizeIterator<Item = RowRef<'a>> + Clone,
) -> Result<(usize, u64), MqdError> {
    // Whole-batch ownership check up front: a misrouted row fails before
    // anything is WAL-logged, so the batch is all-or-nothing with respect
    // to routing mistakes.
    if let Some(shard) = &state.shard {
        check_row_ownership(shard, rows.clone())?;
    }
    let mut appended = 0usize;
    let (failure, generation, to_refresh) = {
        let mut store = write_or_poisoned(&state.store)?;
        let mut failure = None;
        for row in rows.clone() {
            // WAL-first: the row is validated, logged, then applied in
            // memory; an invalid row fails before it is ever logged.
            match store.append(row) {
                Ok(()) => appended += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // The ack barrier: whatever prefix was appended becomes durable
        // before this request is answered (even a prefix-error response
        // acknowledges the prefix).
        if appended > 0 {
            // lint:allow(guard-held-blocking): the ack barrier — appended rows must be durable before any reader can observe them, so writers intentionally queue behind this fsync
            if let Err(e) = store.sync() {
                failure.get_or_insert(e);
            }
        }
        let generation = store.generation();
        let (to_refresh, cache_floor) = match lock_or_poisoned(&state.cache, "cache") {
            Ok(mut cache) => (
                cache.apply_delta(rows.take(appended), generation),
                // Smallest value any live cached cover may still touch on
                // repair/refresh: its slice start, widened by its λ.
                cache
                    .live_lease()
                    .map_or(i64::MAX, |(from, lambda)| from.saturating_sub(lambda)),
            ),
            // A poisoned cache degrades to stale serving; the store is
            // still authoritative. GC is blocked (floor i64::MIN): with
            // the lease bookkeeping unreadable, dropping rows would be a
            // guess.
            Err(_) => (Vec::new(), i64::MIN),
        };
        if failure.is_none() && store.wants_gc() {
            let subs_floor = match lock_or_poisoned(&state.subs, "subs") {
                Ok(reg) => reg.floor(),
                Err(_) => i64::MIN,
            };
            // GC failure (a disk error unlinking a dead block) never fails
            // the ingest that triggered it — the rows are already durable.
            let _ = store.run_gc(cache_floor.min(subs_floor));
        }
        (failure, generation, to_refresh)
    };
    counters
        .ingested_rows
        .fetch_add(appended as u64, Ordering::Relaxed);
    for spec in to_refresh {
        if state.refresh_tx.try_send(spec.clone()).is_err() {
            if let Ok(mut cache) = lock_or_poisoned(&state.cache, "cache") {
                cache.refresh_not_queued(&spec);
            }
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok((appended, generation)),
    }
}

fn stats_json(state: &State, engine: &Engine) -> Result<String, MqdError> {
    // Lock order: store, then cache.
    let (store_stats, durable_stats) = {
        let store = read_or_poisoned(&state.store)?;
        (store.store_stats(), store.durable_stats())
    };
    let cache_stats = lock_or_poisoned(&state.cache, "cache")?.stats();
    Ok(render_stats(
        &store_stats,
        &cache_stats,
        &durable_stats,
        engine.counters(),
        engine.threads(),
        engine.draining(),
        state.shard,
    ))
}

/// Renders the STATS payload. Pure so the key order — part of the wire
/// contract clients parse and the oracle's byte-identity checks rely on —
/// is pinned by a regression test below, not by whoever edits the
/// `format!` last.
fn render_stats(
    store_stats: &StoreStats,
    cache_stats: &CacheStats,
    durable: &DurableStats,
    c: &Counters,
    threads: usize,
    draining: bool,
    shard: Option<ShardIdentity>,
) -> String {
    let opt_i64 = |v: Option<i64>| v.map_or("null".to_string(), |x| x.to_string());
    let mut out = format!(
        concat!(
            r#"{{"rows":{},"segments":{},"labels":{},"generation":{},"#,
            r#""min_value":{},"max_value":{},"#,
            r#""cache":{{"hits":{},"misses":{},"invalidations":{},"repairs":{},"refreshes":{},"stale_served":{},"entries":{}}},"#,
            r#"{},"#,
            r#""durable":{{"wal_bytes":{},"segments_flushed":{},"recovered_rows":{},"gc_segments":{}}},"#,
            r#""threads":{},"draining":{}}}"#
        ),
        store_stats.rows,
        store_stats.segments,
        store_stats.labels,
        store_stats.generation,
        opt_i64(store_stats.min_value),
        opt_i64(store_stats.max_value),
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.invalidations,
        cache_stats.repairs,
        cache_stats.refreshes,
        cache_stats.stale_served,
        cache_stats.entries,
        c.served_json(),
        durable.wal_bytes,
        durable.segments_flushed,
        durable.recovered_rows,
        durable.gc_segments,
        threads,
        draining,
    );
    // The shard object is appended only when configured, so a standalone
    // server's STATS bytes — pinned by the regression test below and
    // diffed by the oracle — are unchanged.
    if let Some(s) = shard {
        out.pop(); // trailing '}'
        out.push_str(&format!(
            r#","shard":{{"id":{},"count":{}}}}}"#,
            s.shard_id, s.shard_count
        ));
    }
    out
}

/// Replays the slice through a supervised streaming engine, streaming
/// emissions as they become *stable*: an emission is sent once its release
/// time is strictly earlier than the next arrival's timestamp, so the
/// streamed prefix is identical no matter how the replay is chunked.
///
/// A named session (`NAME id`, durable servers only) is additionally
/// checkpointed into `<data-dir>/subs/<id>` after every chunk (atomic
/// write through `mqd_wal::fsio`), registers a GC lease for its λ-widened
/// slice, and — on a later `SUBSCRIBE` with the same name — resumes from
/// the checkpoint. The resumed run replays the checkpoint's emission log,
/// so the full emission sequence (and the `DONE` totals) are byte-identical
/// to an uninterrupted session; `AFTER n` merely skips the first `n`
/// emissions on the wire for a client that already received them.
fn subscribe(
    state: &State,
    counters: &Counters,
    spec: &SubscribeSpec,
    w: &mut impl Write,
) -> Result<(), Fail> {
    if spec.lambda < 0 {
        return Err(MqdError::NegativeLambda(spec.lambda).into());
    }
    if spec.tau < 0 {
        return Err(MqdError::protocol(format!("tau must be >= 0, got {}", spec.tau)).into());
    }
    let params = SubParams::of(spec);
    let checkpoint_path = match (&spec.name, &state.subs_dir) {
        (Some(name), Some(dir)) => Some(dir.join(name)),
        (Some(_), None) => {
            let msg = "NAME needs a durable server (start with --data-dir)";
            return Err(MqdError::protocol(msg).into());
        }
        (None, _) => None,
    };
    let slice = {
        let store = read_or_poisoned(&state.store)?;
        // Lease before slicing, *while holding the store read lock*
        // (store-then-subs, the global lock order): ingest samples the
        // subs floor and runs GC under the store write lock, so a lease
        // registered here is ordered against that whole critical section
        // — it can never land between the floor sample and the drop, and
        // the slice below sees every row the lease pins. Registering an
        // already-leased name just refreshes the same floor.
        if let (Some(name), Ok(mut reg)) = (&spec.name, lock_or_poisoned(&state.subs, "subs")) {
            reg.register(name, &params);
        }
        store.store().slice(&spec.labels, spec.from, spec.to)
    };
    let inst = &slice.instance;
    // A named session resumes from its checkpoint when one exists and
    // still matches: parameter drift is a client mistake (typed error),
    // while an instance-digest mismatch (rows ingested since the
    // checkpoint) or a corrupt file falls back to a fresh deterministic
    // run — the client's AFTER skip stays valid either way because the
    // emission sequence is a pure function of (instance, params).
    let mut resumed = false;
    let mut run = None;
    if let Some(path) = &checkpoint_path {
        // An unreadable file means no checkpoint yet; a corrupt wrapper
        // or a stale/corrupt inner digest drops through to the fresh
        // run below. Only a parameter mismatch is the client's error.
        if let Ok(bytes) = std::fs::read(path) {
            if let Ok((have, inner)) = subs::decode_wrapper(&bytes) {
                if have != params {
                    return Err(MqdError::CheckpointMismatch {
                        what: format!(
                            "session '{}' was started with different parameters",
                            spec.name.as_deref().unwrap_or("")
                        ),
                    }
                    .into());
                }
                if let Ok(r) = resume_supervised(
                    inst,
                    spec.lambda,
                    spec.tau,
                    spec.shards,
                    spec.engine,
                    &FaultPlan::none(),
                    SupervisorConfig::default(),
                    &inner,
                ) {
                    resumed = true;
                    run = Some(r);
                }
            }
        }
    }
    let mut run = run.unwrap_or_else(|| {
        SupervisedRun::new(
            inst,
            spec.lambda,
            spec.tau,
            spec.shards,
            spec.engine,
            &FaultPlan::none(),
            SupervisorConfig::default(),
        )
    });

    writeln!(
        w,
        r#"+OK {{"posts":{},"shards":{},"resumed":{}}}"#,
        inst.len(),
        run.shards(),
        resumed,
    )?;
    let mut sent: HashSet<u32> = HashSet::new();
    let mut degraded = 0u64;
    // Emissions counted so far in the deterministic stream order; the
    // first `spec.after` are counted but not written.
    let mut emitted = 0u64;
    let emit = |w: &mut dyn Write, post: u32, time: i64, flag: bool| -> std::io::Result<()> {
        let r = slice.record_for(post);
        writeln!(w, "EMIT {} {} {} {}", r.id, r.value, time, u8::from(flag))
    };

    loop {
        for _ in 0..SUBSCRIBE_CHUNK {
            match run.step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    // Mid-stream failure: the +OK header is out, so abort
                    // inside the payload, keeping the framing intact. A
                    // named session keeps its checkpoint and lease for a
                    // later resume.
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    writeln!(w, "ABORT {} {}", error_kind(&e), e)?;
                    writeln!(w, "{TERMINATOR}")?;
                    return Ok(w.flush()?);
                }
            }
        }
        let watermark = if run.done() {
            i64::MAX
        } else {
            inst.value(run.position())
        };
        for e in run.released_emissions() {
            if e.emit_time < watermark && sent.insert(e.post) {
                degraded += u64::from(e.degraded);
                emitted += 1;
                if emitted > spec.after {
                    emit(w, e.post, e.emit_time, e.degraded)?;
                }
            }
        }
        w.flush()?;
        if let Some(path) = &checkpoint_path {
            // Roll the checkpoint only after the chunk's emissions are on
            // the wire. Best-effort: a failed write means a resume replays
            // from an older (still consistent) checkpoint or starts fresh.
            let blob = subs::encode_wrapper(&params, &mqd_stream::encode_checkpoint(&mut run));
            let _ = fsio::write_atomic(path, &blob, state.fsync);
        }
        if run.done() {
            break;
        }
    }
    match run.finish() {
        Ok(res) => {
            for e in &res.emissions {
                if sent.insert(e.post) {
                    degraded += u64::from(e.degraded);
                    emitted += 1;
                    if emitted > spec.after {
                        emit(w, e.post, e.emit_time, e.degraded)?;
                    }
                }
            }
            writeln!(
                w,
                r#"DONE {{"emissions":{},"degraded":{}}}"#,
                sent.len(),
                degraded
            )?;
            // The session is complete: its checkpoint and GC lease go.
            if let (Some(path), Some(name)) = (&checkpoint_path, &spec.name) {
                let _ = fsio::remove_durable(path, state.fsync);
                if let Ok(mut reg) = lock_or_poisoned(&state.subs, "subs") {
                    reg.release(name);
                }
            }
        }
        Err(e) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            writeln!(w, "ABORT {} {}", error_kind(&e), e)?;
        }
    }
    writeln!(w, "{TERMINATOR}")?;
    Ok(w.flush()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{json_u64, Client};
    use std::net::TcpStream;

    fn start(threads: usize, max_queue: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            max_queue,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn stats_rendering_is_byte_stable() {
        // The STATS payload is parsed by clients and diffed byte-for-byte
        // by the oracle's server-agreement harness, so its key order is
        // wire contract: render twice and pin the exact bytes.
        let store = StoreStats {
            rows: 4,
            segments: 1,
            labels: 2,
            generation: 4,
            min_value: Some(0),
            max_value: Some(30),
        };
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            invalidations: 0,
            repairs: 0,
            refreshes: 0,
            stale_served: 0,
            entries: 1,
        };
        let counters = Counters::default();
        counters.connections.store(3, Ordering::Relaxed);
        counters.queries.store(2, Ordering::Relaxed);
        counters.ingested_rows.store(4, Ordering::Relaxed);
        let durable = DurableStats {
            wal_bytes: 117,
            segments_flushed: 2,
            recovered_rows: 4096,
            gc_segments: 0,
        };
        let a = render_stats(&store, &cache, &durable, &counters, 4, false, None);
        let b = render_stats(&store, &cache, &durable, &counters, 4, false, None);
        assert_eq!(a, b);
        assert_eq!(
            a,
            r#"{"rows":4,"segments":1,"labels":2,"generation":4,"min_value":0,"max_value":30,"cache":{"hits":1,"misses":1,"invalidations":0,"repairs":0,"refreshes":0,"stale_served":0,"entries":1},"served":{"connections":3,"queries":2,"ingested_rows":4,"subscribes":0,"errors":0,"overloads":0,"timeouts":0},"durable":{"wal_bytes":117,"segments_flushed":2,"recovered_rows":4096,"gc_segments":0},"threads":4,"draining":false}"#
        );
        // An empty store renders nulls, not a panic or a 0 placeholder.
        let empty = StoreStats {
            rows: 0,
            segments: 0,
            labels: 0,
            generation: 0,
            min_value: None,
            max_value: None,
        };
        let s = render_stats(
            &empty,
            &CacheStats::default(),
            &DurableStats::default(),
            &Counters::default(),
            1,
            true,
            None,
        );
        assert!(s.contains(r#""min_value":null,"max_value":null"#), "{s}");
        assert!(s.ends_with(r#""threads":1,"draining":true}"#), "{s}");
        // A sharded backend appends its map after the standalone payload,
        // leaving every standalone byte in place.
        let sharded = render_stats(
            &store,
            &cache,
            &durable,
            &counters,
            4,
            false,
            Some(ShardIdentity {
                shard_id: 1,
                shard_count: 2,
            }),
        );
        assert_eq!(
            sharded,
            format!(r#"{},"shard":{{"id":1,"count":2}}}}"#, &a[..a.len() - 1])
        );
    }

    #[test]
    fn ping_ingest_query_stats_drain() {
        let (addr, handle) = start(2, 8);
        let mut c = Client::connect(addr).unwrap();
        assert!(c.request("PING").unwrap().is_ok());

        for (id, value, labels) in [(1, 0, "0"), (2, 10, "0"), (3, 20, "0,1"), (4, 30, "1")] {
            let r = c.request(&format!("INGEST {id} {value} {labels}")).unwrap();
            assert!(r.is_ok(), "{}", r.status);
        }
        let r = c.request("QUERY 0,1 10 opt").unwrap();
        assert!(r.is_ok(), "{}", r.status);
        // An optimal cover has 2 posts; this DP reconstructs {P1, P3}.
        assert_eq!(r.lines.len(), 2);
        assert_eq!(r.lines[0], "1\t0\t0");
        assert_eq!(r.lines[1], "3\t20\t0,1");

        // Second identical query must be served from the cache, fresh at
        // the current store generation.
        let r2 = c.request("QUERY 0,1 10 opt").unwrap();
        assert!(r2.status.contains(r#""cached":true"#), "{}", r2.status);
        assert!(r2.status.contains(r#""stale":false"#), "{}", r2.status);
        assert!(r2.status.contains(r#""generation":4"#), "{}", r2.status);
        assert_eq!(r2.lines, r.lines);

        let stats = c.request("STATS").unwrap();
        assert!(stats.status.contains(r#""rows":4"#), "{}", stats.status);
        assert!(stats.status.contains(r#""hits":1"#), "{}", stats.status);

        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn ingest_after_caching_repairs_scan_and_refreshes_the_rest() {
        let (addr, handle) = start(2, 8);
        let mut c = Client::connect(addr).unwrap();
        for (id, value, labels) in [(1, 0, "0"), (2, 10, "0"), (3, 20, "0,1"), (4, 30, "1")] {
            assert!(c
                .request(&format!("INGEST {id} {value} {labels}"))
                .unwrap()
                .is_ok());
        }
        // Prime a repairable (scan) and a non-repairable (greedysc) cover.
        assert!(c.request("QUERY 0,1 10 scan").unwrap().is_ok());
        assert!(c.request("QUERY 0,1 10 greedysc").unwrap().is_ok());

        // A post inside both footprints: scan repairs in place, greedysc
        // goes stale and is handed to the background refresher.
        assert!(c.request("INGEST 5 40 0").unwrap().is_ok());

        let scan = c.request("QUERY 0,1 10 scan").unwrap();
        assert!(scan.is_ok(), "{}", scan.status);
        assert!(scan.status.contains(r#""cached":true"#), "{}", scan.status);
        assert!(scan.status.contains(r#""stale":false"#), "{}", scan.status);
        assert!(scan.status.contains(r#""generation":5"#), "{}", scan.status);

        // The greedysc entry converges: stale at watermark 4 at first,
        // fresh at generation 5 once the refresher lands.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let r = c.request("QUERY 0,1 10 greedysc").unwrap();
            assert!(r.is_ok(), "{}", r.status);
            if r.status.contains(r#""stale":false"#) {
                assert!(r.status.contains(r#""generation":5"#), "{}", r.status);
                break;
            }
            assert!(r.status.contains(r#""generation":4"#), "{}", r.status);
            assert!(
                std::time::Instant::now() < deadline,
                "refresher never converged: {}",
                r.status
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        let stats = c.request("STATS").unwrap();
        assert!(stats.status.contains(r#""repairs":1"#), "{}", stats.status);
        assert!(
            stats.status.contains(r#""refreshes":1"#),
            "{}",
            stats.status
        );
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn subscribe_streams_emissions() {
        let (addr, handle) = start(2, 8);
        let mut c = Client::connect(addr).unwrap();
        for i in 0..20 {
            let r = c
                .request(&format!("INGEST {} {} {}", i + 1, i * 10, i % 2))
                .unwrap();
            assert!(r.is_ok());
        }
        let r = c.request("SUBSCRIBE 0,1 10 30 scan").unwrap();
        assert!(r.is_ok(), "{}", r.status);
        let emits: Vec<&String> = r.lines.iter().filter(|l| l.starts_with("EMIT ")).collect();
        assert!(!emits.is_empty());
        let done = r.lines.last().unwrap();
        assert!(done.starts_with("DONE "), "{done}");
        assert!(done.contains(r#""degraded":0"#), "{done}");
        // Emissions are (emit_time, ...) ordered.
        let times: Vec<i64> = emits
            .iter()
            .map(|l| l.split_whitespace().nth(3).unwrap().parse().unwrap())
            .collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);

        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn subscribe_header_reports_the_shards_that_run() {
        let (addr, handle) = start(2, 8);
        let mut c = Client::connect(addr).unwrap();
        for i in 0..10 {
            let r = c
                .request(&format!("INGEST {} {} {}", i + 1, i * 10, i % 3))
                .unwrap();
            assert!(r.is_ok());
        }
        // A 1-label slice runs one shard whatever SHARDS asks for; three
        // labels cap 8 requested shards at 3; 2 of 3 labels run 2.
        for (labels, want) in [("0", 1), ("0,1,2", 3), ("0,2", 2)] {
            let r = c
                .request(&format!("SUBSCRIBE {labels} 5 0 scan SHARDS 8"))
                .unwrap();
            assert!(r.is_ok(), "{}", r.status);
            assert!(
                r.status.contains(&format!(r#""shards":{want},"#)),
                "labels {labels}: {}",
                r.status
            );
        }
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn typed_errors_keep_the_connection_alive() {
        let (addr, handle) = start(1, 4);
        let mut c = Client::connect(addr).unwrap();
        let r = c.request("FROB 1 2").unwrap();
        assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
        let r = c.request("QUERY 0 -5 scan").unwrap();
        assert!(r.status.starts_with("-ERR NegativeLambda "), "{}", r.status);
        let r = c.request("INGEST 1 5 ''").unwrap();
        assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
        // The same connection still works.
        assert!(c.request("PING").unwrap().is_ok());
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mqd-server-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn start_durable(dir: &std::path::Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_queue: 8,
            data_dir: Some(dir.to_path_buf()),
            fsync: false, // tests exercise recovery logic, not the disk cache
            retain: None,
            shard: None,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn durable_server_recovers_identically_after_drain() {
        let dir = tmpdir("recover");
        let (addr, handle) = start_durable(&dir);
        let mut c = Client::connect(addr).unwrap();
        for (id, value, labels) in [(1, 0, "0"), (2, 10, "0"), (3, 20, "0,1"), (4, 30, "1")] {
            assert!(c
                .request(&format!("INGEST {id} {value} {labels}"))
                .unwrap()
                .is_ok());
        }
        let q1 = c.request("QUERY 0,1 10 opt").unwrap();
        assert!(q1.is_ok(), "{}", q1.status);
        let s1 = c.request("STATS").unwrap();
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();

        // Same data dir, new process-equivalent: rows, generation, and
        // query answers must come back byte-identical.
        let (addr, handle) = start_durable(&dir);
        let mut c = Client::connect(addr).unwrap();
        let s2 = c.request("STATS").unwrap();
        let core = |s: &str| s[..s.find(r#","cache""#).unwrap()].to_string();
        assert_eq!(
            core(&s1.status),
            core(&s2.status),
            "store stats must survive restart"
        );
        assert!(s2.status.contains(r#""recovered_rows":4"#), "{}", s2.status);
        let q2 = c.request("QUERY 0,1 10 opt").unwrap();
        assert_eq!(q1.lines, q2.lines, "query answers must survive restart");
        // Recovered generation continues, not restarts.
        let r = c.request("INGEST 5 40 0").unwrap();
        assert!(r.status.contains(r#""generation":5"#), "{}", r.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_subscribe_needs_a_data_dir() {
        let (addr, handle) = start(1, 4);
        let mut c = Client::connect(addr).unwrap();
        assert!(c.request("INGEST 1 0 0").unwrap().is_ok());
        let r = c.request("SUBSCRIBE 0 10 10 scan NAME s1").unwrap();
        assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn named_subscribe_checkpoints_skip_and_complete() {
        let dir = tmpdir("subs");
        let (addr, handle) = start_durable(&dir);
        let mut c = Client::connect(addr).unwrap();
        for i in 0..20 {
            assert!(c
                .request(&format!("INGEST {} {} {}", i + 1, i * 10, i % 2))
                .unwrap()
                .is_ok());
        }
        let full = c.request("SUBSCRIBE 0,1 10 30 scan NAME s1").unwrap();
        assert!(full.is_ok(), "{}", full.status);
        assert!(
            full.status.contains(r#""resumed":false"#),
            "{}",
            full.status
        );
        let emits: Vec<&String> = full
            .lines
            .iter()
            .filter(|l| l.starts_with("EMIT "))
            .collect();
        assert!(emits.len() >= 3, "{emits:?}");
        // Completion removed the checkpoint.
        assert!(!dir.join("subs").join("s1").exists());

        // AFTER skips the wire prefix but DONE totals are unchanged —
        // exactly what a resuming client needs for a byte-identical
        // reassembled stream.
        let skip = c
            .request("SUBSCRIBE 0,1 10 30 scan NAME s1 AFTER 2")
            .unwrap();
        assert!(skip.is_ok(), "{}", skip.status);
        let skipped: Vec<&String> = skip
            .lines
            .iter()
            .filter(|l| l.starts_with("EMIT "))
            .collect();
        assert_eq!(
            &emits[2..],
            &skipped[..],
            "AFTER must skip exactly the prefix"
        );
        assert_eq!(
            full.lines.last(),
            skip.lines.last(),
            "DONE must be skip-independent"
        );
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_subscribe_rejects_parameter_drift() {
        let dir = tmpdir("drift");
        let (addr, handle) = start_durable(&dir);
        let mut c = Client::connect(addr).unwrap();
        assert!(c.request("INGEST 1 0 0").unwrap().is_ok());
        // A checkpoint left behind by a (simulated) killed session.
        let params = crate::subs::SubParams {
            labels: vec![0],
            lambda: 99,
            tau: 30,
            engine: mqd_stream::ShardEngineKind::Scan,
            from: i64::MIN,
            to: i64::MAX,
            shards: 1,
        };
        let blob = crate::subs::encode_wrapper(&params, &[1, 2, 3]);
        std::fs::write(dir.join("subs").join("s9"), blob).unwrap();
        let r = c.request("SUBSCRIBE 0 10 30 scan NAME s9").unwrap();
        assert!(
            r.status.starts_with("-ERR CheckpointMismatch "),
            "{}",
            r.status
        );
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn start_sharded(shard_id: u32, shard_count: u32) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_queue: 8,
            shard: Some(ShardIdentity {
                shard_id,
                shard_count,
            }),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn hello_pins_the_shard_map() {
        let (addr, handle) = start_sharded(1, 2);
        let mut c = Client::connect(addr).unwrap();
        let ok = c
            .hello(&ShardIdentity {
                shard_id: 1,
                shard_count: 2,
            })
            .unwrap();
        assert!(ok.is_ok(), "{}", ok.status);
        assert!(ok.status.contains(r#""pinned":true"#), "{}", ok.status);
        // A mismatched map is a typed error, and the connection survives.
        let bad = c
            .hello(&ShardIdentity {
                shard_id: 0,
                shard_count: 2,
            })
            .unwrap();
        assert!(bad.status.starts_with("-ERR Protocol "), "{}", bad.status);
        assert!(c.request("PING").unwrap().is_ok());
        // STATS reports the map.
        let stats = c.request("STATS").unwrap();
        assert!(
            stats.status.contains(r#""shard":{"id":1,"count":2}"#),
            "{}",
            stats.status
        );
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn standalone_backend_accepts_any_hello() {
        let (addr, handle) = start(1, 4);
        let mut c = Client::connect(addr).unwrap();
        let ok = c
            .hello(&ShardIdentity {
                shard_id: 3,
                shard_count: 4,
            })
            .unwrap();
        assert!(ok.is_ok(), "{}", ok.status);
        assert!(ok.status.contains(r#""pinned":false"#), "{}", ok.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn sharded_backend_rejects_misrouted_rows() {
        let (addr, handle) = start_sharded(0, 2);
        let mut c = Client::connect(addr).unwrap();
        // Labels 0 and 2 hash to shard 0; label 1 does not.
        assert!(c.request("INGEST 1 0 0").unwrap().is_ok());
        assert!(c.request("INGEST 2 10 1,2").unwrap().is_ok());
        let r = c.request("INGEST 3 20 1").unwrap();
        assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
        // The rejection happened before any append: generation unmoved.
        let r = c.request("INGEST 4 30 0,1").unwrap();
        assert!(r.status.contains(r#""generation":3"#), "{}", r.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn cover_and_slice_serve_the_router_halves() {
        let (addr, handle) = start(2, 8);
        let mut c = Client::connect(addr).unwrap();
        for (id, value, labels) in [(1, 0, "0"), (2, 10, "0"), (3, 20, "0,1"), (4, 30, "1")] {
            assert!(c
                .request(&format!("INGEST {id} {value} {labels}"))
                .unwrap()
                .is_ok());
        }
        // The union of the per-label cover halves equals the full answer.
        let full = c.request("QUERY 0,1 10 scan").unwrap();
        assert!(full.is_ok(), "{}", full.status);
        let mut union: Vec<String> = Vec::new();
        for part in ["0", "1"] {
            let half = c
                .request(&format!("QUERY 0,1 10 scan COVER {part}"))
                .unwrap();
            assert!(half.is_ok(), "{}", half.status);
            assert!(half.status.contains(r#""cached":false"#), "{}", half.status);
            union.extend(half.lines.clone());
        }
        let key = |l: &String| -> (i64, u64) {
            let mut it = l.split('\t');
            let id: u64 = it.next().unwrap().parse().unwrap();
            let value: i64 = it.next().unwrap().parse().unwrap();
            (value, id)
        };
        union.sort_by_key(key);
        union.dedup();
        assert_eq!(union, full.lines);
        // COVER with a non-decomposable algorithm is a typed error.
        let r = c.request("QUERY 0,1 10 greedysc COVER 0").unwrap();
        assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
        // SLICE returns the raw slice rows in (value, id) order.
        let s = c.request("SLICE 0,1 FROM 5 TO 25").unwrap();
        assert!(s.is_ok(), "{}", s.status);
        assert_eq!(s.lines, vec!["2\t10\t0", "3\t20\t0,1"]);
        assert!(s.status.contains(r#""count":2"#), "{}", s.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn quit_closes_only_the_connection() {
        let (addr, handle) = start(1, 4);
        let mut c = Client::connect(addr).unwrap();
        assert!(c.request("QUIT").unwrap().is_ok());
        let mut c2 = Client::connect(addr).unwrap();
        assert!(c2.request("PING").unwrap().is_ok());
        assert!(c2.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn idle_timeout_reclaims_half_open_and_dribbling_connections() {
        use std::io::Read;
        let start_idle = |threads: usize| {
            let server = Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads,
                max_queue: 8,
                idle_timeout: Some(Duration::from_millis(300)),
                ..ServerConfig::default()
            })
            .unwrap();
            let addr = server.local_addr();
            (addr, std::thread::spawn(move || server.run().unwrap()))
        };
        let (addr, handle) = start_idle(4);

        let read_all = |mut s: TcpStream| -> String {
            let mut buf = String::new();
            let _ = s.read_to_string(&mut buf);
            buf
        };

        // Half-open: connect, send nothing. The server must answer with a
        // typed timeout and close, not park the worker forever.
        let half_open = TcpStream::connect(addr).unwrap();
        let got = read_all(half_open);
        assert!(got.starts_with("-ERR Timeout "), "{got}");

        // Dribbler: an unterminated request line paced slower than the
        // budget stalls mid-line; same typed rejection.
        let mut dribble = TcpStream::connect(addr).unwrap();
        dribble.write_all(b"QUERY 0,1 50 sc").unwrap();
        dribble.flush().unwrap();
        let got = read_all(dribble);
        assert!(got.starts_with("-ERR Timeout "), "{got}");

        // Body dribbler: a complete INGESTB header whose body never
        // arrives must time out too (the body reader has its own budget).
        let mut body = TcpStream::connect(addr).unwrap();
        body.write_all(b"INGESTB 4096\nMQDL").unwrap();
        body.flush().unwrap();
        let got = read_all(body);
        assert!(got.starts_with("-ERR Timeout "), "{got}");

        // Well-behaved clients are untouched, and STATS counts the three
        // reclaimed connections under the dedicated timeouts key.
        let mut c = Client::connect(addr).unwrap();
        let r = c.request("STATS").unwrap();
        assert!(r.is_ok(), "{}", r.status);
        assert!(r.status.contains(r#""timeouts":3"#), "{}", r.status);
        assert!(c.request("DRAIN").unwrap().is_ok());
        handle.join().unwrap();

        // Non-reader: pipelines queries and never reads an answer. The
        // blocked write must hit the same budget, or the peer pins the
        // only worker (and with it DRAIN) forever.
        let (addr, handle) = start_idle(1);
        let rows: Vec<Record> = (0..2000)
            .map(|i| Record {
                id: i,
                value: i as i64,
                labels: vec![0],
            })
            .collect();
        let mut c = Client::connect(addr).unwrap();
        assert!(c.ingest_batch(&rows).unwrap().is_ok());
        drop(c);
        // 2000 answers of 2000 rows each outgrow any loopback buffering.
        let mut stuck = TcpStream::connect(addr).unwrap();
        stuck
            .write_all("QUERY 0 0 scan\n".repeat(2000).as_bytes())
            .unwrap();
        // The probe queues behind the stuck peer; its read timeout turns a
        // pinned worker into a failed assertion instead of a hung test.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        probe.write_all(b"PING\nSTATS\nDRAIN\n").unwrap();
        let got = read_all(probe);
        assert!(got.starts_with(r#"+OK {"pong":true}"#), "{got}");
        assert!(json_u64(&got, "timeouts") >= Some(1), "{got}");
        handle.join().unwrap();
        drop(stuck);
    }
}
