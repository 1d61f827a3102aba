//! The live run: real `mqdiv serve` / `mqdiv route` processes, set up,
//! driven open-loop for the timed phase with tracing off, then examined.
//! Nothing here looks inside the program; it sees sockets, `STATS`, `/proc`
//! and the data directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::plan::{ingest_bytes, OpKind, Plan, Workload, PRELOAD_BATCH, SHARDS};
use crate::sut::{dir_bytes, own_threads, Proc, Scratch, SelfSample};
use crate::wire::{json_u64, Conn, Frame, LaneOp, Outcome};

/// Connections (and so lane threads) of the generator.
pub const LANES: usize = 2;

/// Closed-loop `PING`s that measure the transport floor (traced runs only).
const PINGS: usize = 2000;

/// Counters out of one `STATS` payload. Absent keys read as 0 (the router's
/// `STATS` has no cache or durable section).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub rows: u64,
    pub generation: u64,
    pub hits: u64,
    pub misses: u64,
    pub repairs: u64,
    pub refreshes: u64,
    pub stale_served: u64,
    pub entries: u64,
    pub queries: u64,
    pub wal_bytes: u64,
    pub segments_flushed: u64,
    pub recovered_rows: u64,
}

impl Stats {
    fn fetch(conn: &mut Conn) -> Result<Stats, String> {
        let frame = conn.line("STATS")?;
        if !frame.is_ok() {
            return Err(format!("STATS: {}", frame.status));
        }
        let get = |key| json_u64(&frame.status, key).unwrap_or(0);
        Ok(Stats {
            rows: get("rows"),
            generation: get("generation"),
            hits: get("hits"),
            misses: get("misses"),
            repairs: get("repairs"),
            refreshes: get("refreshes"),
            stale_served: get("stale_served"),
            entries: get("entries"),
            queries: get("queries"),
            wal_bytes: get("wal_bytes"),
            segments_flushed: get("segments_flushed"),
            recovered_rows: get("recovered_rows"),
        })
    }

    /// Counter growth from `earlier` to `self` (gauges keep `self`'s value).
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            repairs: self.repairs - earlier.repairs,
            refreshes: self.refreshes - earlier.refreshes,
            stale_served: self.stale_served - earlier.stale_served,
            queries: self.queries - earlier.queries,
            segments_flushed: self.segments_flushed - earlier.segments_flushed,
            ..*self
        }
    }
}

/// The processes of one system under test. The first is the one clients
/// talk to; for `routed-mix` the rest are its backends, in shard order.
struct System {
    procs: Vec<Proc>,
    data_dir: Option<PathBuf>,
}

/// Spawns `mqdiv serve` on an ephemeral port with `extra` flags.
fn serve(bin: &Path, extra: &[String]) -> Result<Proc, String> {
    let mut args = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
    args.extend_from_slice(extra);
    Proc::spawn(bin, &args)
}

impl System {
    fn start(bin: &Path, workload: Workload, scratch: &Scratch) -> Result<System, String> {
        let serve = |extra: &[String]| serve(bin, extra);
        match workload {
            Workload::HotRead | Workload::ColdSolve => Ok(System {
                procs: vec![serve(&[])?],
                data_dir: None,
            }),
            // Durable with the default flush policy: fsync on every ack,
            // seal and directory change.
            Workload::IngestRepair => {
                let dir = scratch.fresh("data")?;
                let proc = serve(&["--data-dir".into(), dir.display().to_string()])?;
                Ok(System {
                    procs: vec![proc],
                    data_dir: Some(dir),
                })
            }
            Workload::RoutedMix => {
                let mut backends = Vec::new();
                for shard in 0..SHARDS {
                    backends.push(serve(&[
                        "--shard-id".into(),
                        shard.to_string(),
                        "--shard-count".into(),
                        SHARDS.to_string(),
                    ])?);
                }
                let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
                let router = Proc::spawn(
                    bin,
                    &[
                        "route".into(),
                        "--addr".into(),
                        "127.0.0.1:0".into(),
                        "--backends".into(),
                        addrs.join(","),
                        "--shards".into(),
                        SHARDS.to_string(),
                    ],
                )?;
                let mut procs = vec![router];
                procs.extend(backends);
                Ok(System {
                    procs,
                    data_dir: None,
                })
            }
        }
    }

    fn addr(&self) -> &str {
        &self.procs[0].addr
    }

    fn cpu_us(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::cpu_us).sum()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    /// `STATS` of each backend, over short-lived direct connections.
    fn backend_stats(&self) -> Result<Vec<Stats>, String> {
        self.procs[1..]
            .iter()
            .map(|b| Stats::fetch(&mut Conn::connect(&b.addr)?))
            .collect()
    }

    /// `DRAIN`, then wait for every process to exit on its own.
    fn drain(mut self, conn: &mut Conn) -> Result<(), String> {
        let frame = conn.line("DRAIN")?;
        if !frame.is_ok() {
            return Err(format!("DRAIN: {}", frame.status));
        }
        for proc in &mut self.procs {
            if !proc.wait_exit(Duration::from_secs(10)) {
                return Err("a drained process had to be killed".into());
            }
        }
        Ok(())
    }
}

/// One complete set-up: processes up, corpus preloaded, warm specs issued.
struct Ready {
    system: System,
    conns: Vec<Conn>,
    seconds: f64,
}

fn set_up(bin: &Path, plan: &Plan, scratch: &Scratch) -> Result<Ready, String> {
    let started = Instant::now();
    let system = System::start(bin, plan.workload, scratch)?;
    let mut conns = Vec::new();
    for _ in 0..LANES {
        conns.push(Conn::connect(system.addr())?);
    }
    for chunk in plan.corpus.chunks(PRELOAD_BATCH) {
        let frame = conns[0].request(&ingest_bytes(chunk))?;
        if !frame.is_ok() {
            return Err(format!("preload: {}", frame.status));
        }
    }
    for &i in &plan.warm {
        let frame = conns[1].line(&plan.specs[i].line())?;
        if !frame.is_ok() {
            return Err(format!("warm {}: {}", plan.specs[i].line(), frame.status));
        }
    }
    Ok(Ready {
        system,
        conns,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// What the durability leg of `ingest-repair` found.
#[derive(Clone, Debug, Default)]
pub struct Durability {
    /// SIGKILL → `listening on`, ms.
    pub recover_ms: f64,
    /// Data-dir bytes after the restarted server's `DRAIN`, per row.
    pub disk_bytes_per_row: f64,
    /// Each thing that did not survive the kill, in words.
    pub failures: Vec<String>,
    pub checks: usize,
}

/// Length of one measurement window of the timed phase.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Everything the live run observed.
#[derive(Default)]
pub struct LiveRun {
    /// One per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Indexed like `plan.ops`.
    pub outcomes: Vec<Outcome>,
    /// The client-facing process's `STATS` growth over the timed phase
    /// (with its gauges as of the end).
    pub stats: Stats,
    /// Per backend, same (empty unless `routed-mix`).
    pub backend_stats: Vec<Stats>,
    /// On-CPU time of all server processes over each [`WINDOW`] of the
    /// timed phase, µs.
    pub window_cpu_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub gen_cpu_share: f64,
    pub steal_share: f64,
    /// Threads of this process mid-phase, the parked main thread included.
    pub threads_mid_run: usize,
    /// Closed-loop `PING` round trips, ns (traced runs only).
    pub ping_ns: Vec<u64>,
    pub durability: Option<Durability>,
}

/// With `repeat_setups`, complete set-ups are made until there are
/// [`SETUPS_MIN`] of them and they have taken [`SETUPS_BUDGET`] together (or
/// there are [`SETUPS_MAX`]): `setup_s` is their median, and a 0.1 s set-up
/// needs more samples than a 1 s one. All but the first are made *after*
/// the timed phase and torn down at once, so that the phase does not follow
/// a burst of process churn.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 20;
const SETUPS_BUDGET: f64 = 2.0;

/// Runs one workload live.
pub fn run(
    bin: &Path,
    plan: &Plan,
    keep: &[bool],
    repeat_setups: bool,
    with_pings: bool,
    out_dir: &Path,
) -> Result<LiveRun, String> {
    let scratch = Scratch::new(out_dir, plan.workload.name())?;
    let Ready {
        system,
        mut conns,
        seconds,
    } = set_up(bin, plan, &scratch)?;
    let mut setup_s = vec![seconds];

    let mut ping_ns = Vec::new();
    if with_pings {
        for _ in 0..PINGS {
            let sent = Instant::now();
            let frame = conns[1].line("PING")?;
            ping_ns.push(sent.elapsed().as_nanos() as u64);
            if !frame.is_ok() {
                return Err(format!("PING: {}", frame.status));
            }
        }
    }

    // Per lane: the ops it sends, and where each sits in `plan.ops`.
    let mut lane_ops: Vec<Vec<LaneOp>> = (0..LANES).map(|_| Vec::new()).collect();
    let mut lane_idx: Vec<Vec<usize>> = vec![Vec::new(); LANES];
    for (i, op) in plan.ops.iter().enumerate() {
        lane_ops[op.conn].push(LaneOp {
            at_us: op.at_us,
            bytes: plan.op_bytes(op),
            keep_payload: keep[i],
        });
        lane_idx[op.conn].push(i);
    }

    let stats_before = Stats::fetch(&mut conns[0])?;
    let backends_before = system.backend_stats()?;
    let mut outcomes = vec![Outcome::default(); plan.ops.len()];
    let mut threads_mid_run = 0;
    // The servers' CPU time at each window boundary, read by the otherwise
    // idle main thread.
    let n_windows = (plan.duration_us / WINDOW.as_micros() as u64).max(1) as u32;
    let mut cpu_at = vec![system.cpu_us()?];
    let self_before = SelfSample::take()?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&lane_ops)
            .map(|(conn, ops)| scope.spawn(move || conn.run_lane(start, ops)))
            .collect();
        for w in 1..=n_windows {
            std::thread::sleep((WINDOW * w).saturating_sub(start.elapsed()));
            cpu_at.extend(system.cpu_us());
            if w == n_windows.div_ceil(2) {
                threads_mid_run = own_threads().unwrap_or(0);
            }
        }
        for (handle, idx) in handles.into_iter().zip(&lane_idx) {
            let lane_out = handle.join().expect("a lane thread panicked");
            for (&i, outcome) in idx.iter().zip(lane_out) {
                outcomes[i] = outcome;
            }
        }
    });
    let (gen_cpu_share, steal_share) = SelfSample::take()?.shares_since(&self_before);
    if cpu_at.len() != n_windows as usize + 1 {
        return Err("could not read the servers' CPU time at a window boundary".into());
    }
    let window_cpu_us: Vec<f64> = cpu_at.windows(2).map(|t| t[1] - t[0]).collect();
    let stats = Stats::fetch(&mut conns[0])?.since(&stats_before);
    let backend_stats: Vec<Stats> = system
        .backend_stats()?
        .iter()
        .zip(&backends_before)
        .map(|(after, before)| after.since(before))
        .collect();
    let peak_rss_mb = system.peak_rss_mb()?;

    let durability = match plan.workload {
        Workload::IngestRepair => Some(durability_leg(bin, plan, &outcomes, system, conns)?),
        _ => {
            system.drain(&mut conns[0])?;
            None
        }
    };
    while repeat_setups
        && setup_s.len() < SETUPS_MAX
        && (setup_s.len() < SETUPS_MIN || setup_s.iter().sum::<f64>() < SETUPS_BUDGET)
    {
        // The system is dropped, and so killed, as soon as it is ready.
        setup_s.push(set_up(bin, plan, &scratch)?.seconds);
    }
    Ok(LiveRun {
        setup_s,
        outcomes,
        stats,
        backend_stats,
        window_cpu_us,
        peak_rss_mb,
        gen_cpu_share,
        steal_share,
        threads_mid_run,
        ping_ns,
        durability,
    })
}

/// Queries `line` until the answer is fresh at the store's generation (the
/// refresher converges within milliseconds once ingest has stopped).
fn fresh_answer(conn: &mut Conn, line: &str) -> Result<Frame, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let frame = conn.line(line)?;
        if !frame.is_ok() {
            return Err(format!("{line}: {}", frame.status));
        }
        if !frame.flag("stale") {
            return Ok(frame);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("{line}: still stale after 10 s without ingest"))
}

/// SIGKILLs the durable server after the timed phase, restarts it on the
/// same data dir, and checks that every acknowledged row and every answer
/// survived. SIGKILL leaves the OS page cache intact, so this proves the
/// write *ordering* and recovery logic, not the fsyncs themselves; torn and
/// lost writes are `fuzz_wal`'s job (README "Durability leg").
fn durability_leg(
    bin: &Path,
    plan: &Plan,
    outcomes: &[Outcome],
    mut system: System,
    mut conns: Vec<Conn>,
) -> Result<Durability, String> {
    let data_dir = system
        .data_dir
        .clone()
        .ok_or("ingest-repair without a data dir")?;
    let mut acked = plan.corpus.len() as u64;
    let mut sent = acked;
    for (op, outcome) in plan.ops.iter().zip(outcomes) {
        if let OpKind::Ingest(range) = &op.kind {
            if outcome.sent_ns != 0 {
                sent += range.len() as u64;
            }
            if outcome.is_ok() {
                acked += range.len() as u64;
            }
        }
    }
    let lines: Vec<String> = plan.warm.iter().map(|&i| plan.specs[i].line()).collect();
    let mut before = Vec::new();
    for line in &lines {
        before.push(fresh_answer(&mut conns[1], line)?);
    }
    drop(conns);

    let mut d = Durability::default();
    let killed = Instant::now();
    system.procs[0].kill();
    system.procs[0] = serve(bin, &["--data-dir".into(), data_dir.display().to_string()])?;
    d.recover_ms = killed.elapsed().as_secs_f64() * 1e3;

    let mut conn = Conn::connect(system.addr())?;
    let stats = Stats::fetch(&mut conn)?;
    d.checks += 1;
    // Every acknowledged row is back, and nothing that was never sent.
    let all_back = stats.rows == stats.generation && stats.rows == stats.recovered_rows;
    if !all_back || stats.rows < acked || stats.rows > sent {
        d.failures.push(format!(
            "restart holds rows {} generation {} recovered {}; acked {acked}, sent {sent}",
            stats.rows, stats.generation, stats.recovered_rows
        ));
    }
    for (line, was) in lines.iter().zip(&before) {
        let now = conn.line(line)?;
        d.checks += 1;
        if !now.is_ok() || now.payload != was.payload {
            d.failures
                .push(format!("answer changed across the kill: {line}"));
        }
    }
    system.drain(&mut conn)?;
    let bytes = dir_bytes(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    d.disk_bytes_per_row = bytes as f64 / stats.rows.max(1) as f64;
    Ok(d)
}
