//! Shard supervision: catch shard panics, restart from the last coverage
//! frontier, absorb injected stalls, and degrade gracefully under overload.
//!
//! Every shard runs behind a supervisor state machine (`ShardSup`) that
//! wraps engine event processing in [`std::panic::catch_unwind`]. The
//! supervisor keeps a rolling [`EngineSnapshot`] (the per-label coverage
//! frontier plus buffered posts, taken every `SNAPSHOT_EVERY` deliveries)
//! and a replay buffer of the arrivals delivered since the snapshot; when
//! processing panics — injected by a [`FaultPlan`] or a genuine engine bug
//! — the shard is rebuilt from the snapshot, the replay buffer is re-run,
//! and a [`RestartRecord`] lands in the [`FaultReport`]. A shard that
//! exhausts its restart budget fails the run with
//! [`MqdError::ShardFailed`]. The budget is worked out, not set:
//! `MAX_RESTARTS` for crash loops plus one per panic the plan injects
//! into that shard, so planned chaos never exhausts it.
//!
//! **Clock model.** All supervision decisions use logical (timestamp)
//! quantities only: a stall fault sets `stall_until = max(stall_until,
//! t + duration)`, the processing time of an arrival is
//! `max(t, stall_until)`, and the shard's *lag* is their difference.
//! Nothing depends on wall clocks or thread scheduling, so the parallel
//! supervised run and its sequential reference are byte-identical —
//! including the fault report.
//!
//! **Drives.** A shard's arrival sequence is known up front: it receives
//! its local posts `0..len` in order, however the global arrivals
//! interleave. [`run_supervised_stream`] therefore hands each shard to a
//! `mqd-par` slot that delivers that sequence and flushes; no thread or
//! channel of its own. [`SupervisedRun::step`] is the interleaved drive
//! (one global arrival to every shard that owns it), which the checkpoint
//! codec, the server's `SUBSCRIBE` and [`run_supervised_reference`] use.
//!
//! **Graceful degradation.** When the lag exceeds the degrade threshold
//! (`tau / 2`), the shard flushes its primary engine and switches
//! to the Instant (`tau = 0`) scheme seeded from the current coverage
//! frontier; when the lag drains to zero it switches back, restoring the
//! primary engine from the Instant cache. Every emission produced on the
//! degraded path — or released late because of a stall — is flagged, so
//! the invariant *unflagged implies `delay <= tau`* holds structurally and
//! [`FaultReport::tau_violations_unflagged`] counts its violations (always
//! zero unless the accounting itself is broken).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mqd_core::{FixedLambda, Instance, MqdError};

use crate::chaos::{Fault, FaultKind, FaultPlan, FaultReport, RestartRecord, ShardCounters};
use crate::engine::{Emission, EngineSnapshot, StreamContext, StreamEngine};
use crate::instant::InstantScan;
use crate::shard::{build_shards, clamp_shards, Shard, ShardEngineKind};
use crate::simulator::StreamRunResult;

/// Payload of supervisor-injected panics; the panic hook swallows these so
/// chaos runs don't spray backtraces.
pub(crate) const INJECTED_PANIC: &str = "injected shard fault (chaos)";

/// Installs (once per process) a panic hook that silences injected chaos
/// panics and forwards everything else to the previous hook.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync>;

fn silence_injected_panics() {
    static PREV: OnceLock<PanicHook> = OnceLock::new();
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        let _ = PREV.set(prev);
        std::panic::set_hook(Box::new(|info| {
            // The payload is a `String` (panic! with interpolation), but
            // check the `&str` shape too so a literal panic also matches.
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            let injected = msg.is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                if let Some(prev) = PREV.get() {
                    prev(info);
                }
            }
        }));
    });
}

/// Deliveries between rolling snapshots (restart granularity). The replay
/// buffer never grows past this, so a restart re-processes at most this
/// many arrivals.
const SNAPSHOT_EVERY: usize = 32;

/// Restarts a shard may consume on top of its planned panics before the
/// run fails with [`MqdError::ShardFailed`]: the crash-loop guard.
const MAX_RESTARTS: usize = 8;

/// An emission annotated with its degradation flag. `degraded` is true when
/// the emission was produced by the degraded (Instant) path **or** its
/// release was pushed past its schedule by a stall — exactly the emissions
/// exempt from the `delay <= tau` invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SupervisedEmission {
    /// Global post index.
    pub post: u32,
    /// Actual release time (schedule, possibly stall-delayed).
    pub emit_time: i64,
    /// Whether this emission is exempt from the delay budget.
    pub degraded: bool,
}

impl SupervisedEmission {
    /// The reporting delay of this emission. Saturating: emit/arrival
    /// times straddling the i64 range must clamp, not wrap to a negative
    /// delay.
    pub fn delay(&self, inst: &mqd_core::Instance) -> i64 {
        self.emit_time.saturating_sub(inst.value(self.post))
    }
}

/// Outcome of a supervised run: the merged stream result, the flag-annotated
/// emissions, and the deterministic fault report.
#[derive(Clone, Debug)]
pub struct SupervisedRunResult {
    /// Merged emissions/selection/delays, as for the plain sharded runs.
    pub result: StreamRunResult,
    /// Merged emissions with degradation flags, ordered by
    /// `(emit_time, post)`.
    pub emissions: Vec<SupervisedEmission>,
    /// The full fault/restart/degradation account.
    pub report: FaultReport,
}

/// Rolling restart point: everything needed to rebuild the shard as it was
/// at a delivery boundary. A checkpoint decodes into one.
#[derive(Clone, Default)]
pub(crate) struct SupSnapshot {
    /// Deliveries fully processed when the snapshot was taken.
    pub(crate) seq: u64,
    pub(crate) next_expected: u32,
    pub(crate) clock: i64,
    pub(crate) stall_until: i64,
    pub(crate) degraded: bool,
    pub(crate) counters: ShardCounters,
    pub(crate) engine: EngineSnapshot,
    pub(crate) emitted_local: Vec<bool>,
    /// `emissions.len()` at capture; a restart truncates back to this.
    pub(crate) emission_mark: usize,
}

/// The supervisor state machine for one shard.
pub(crate) struct ShardSup {
    pub(crate) index: usize,
    pub(crate) shard: Shard,
    lambda: FixedLambda,
    tau: i64,
    kind: ShardEngineKind,
    /// Restarts allowed before the run fails: [`MAX_RESTARTS`] plus this
    /// shard's planned panics.
    max_restarts: usize,
    /// Deliveries between rolling snapshots ([`SNAPSHOT_EVERY`]).
    snapshot_every: usize,
    faults: Vec<Fault>,
    /// Panic faults that already fired (never rolled back by restarts, so
    /// each panic fires exactly once).
    pub(crate) fired: Vec<bool>,
    engine: Box<dyn StreamEngine>,
    pub(crate) degraded: bool,
    pub(crate) clock: i64,
    pub(crate) stall_until: i64,
    pub(crate) next_expected: u32,
    pub(crate) counters: ShardCounters,
    /// Cumulative emitted set (local indices), across mode switches.
    emitted_local: Vec<bool>,
    emissions: Vec<SupervisedEmission>,
    restarts: Vec<RestartRecord>,
    snap: SupSnapshot,
    /// Arrivals delivered since the snapshot (replayed after a restart).
    pending_replay: Vec<u32>,
    /// How many `pending_replay` entries are fully processed.
    replay_done: usize,
    want_snapshot: bool,
}

impl ShardSup {
    pub(crate) fn new(
        index: usize,
        shard: Shard,
        lambda: i64,
        tau: i64,
        kind: ShardEngineKind,
        faults: Vec<Fault>,
    ) -> Self {
        let planned_panics = faults.iter().filter(|f| f.kind == FaultKind::Panic).count();
        let mut sup = ShardSup {
            index,
            engine: kind.build(shard.inst.num_labels(), shard.inst.len()),
            emitted_local: vec![false; shard.inst.len()],
            shard,
            lambda: FixedLambda(lambda),
            tau,
            kind,
            max_restarts: MAX_RESTARTS + planned_panics,
            snapshot_every: SNAPSHOT_EVERY,
            fired: vec![false; faults.len()],
            faults,
            degraded: false,
            clock: i64::MIN,
            stall_until: i64::MIN,
            next_expected: 0,
            counters: ShardCounters::default(),
            emissions: Vec::new(),
            restarts: Vec::new(),
            snap: SupSnapshot::default(),
            pending_replay: Vec::new(),
            replay_done: 0,
            want_snapshot: false,
        };
        sup.take_snapshot();
        sup
    }

    /// Total deliveries fully processed (the next arrival's seq number).
    pub(crate) fn seq(&self) -> u64 {
        self.snap.seq + self.replay_done as u64
    }

    /// Lag (processing time minus arrival time) above which the shard
    /// degrades to the Instant scheme.
    fn degrade_threshold(&self) -> i64 {
        (self.tau / 2).max(0)
    }

    fn fault_at(&self, seq: u64) -> Option<usize> {
        self.faults.binary_search_by_key(&seq, |f| f.seq).ok()
    }

    /// Delivers one arrival (a local post index, in arrival order),
    /// absorbing panics via restart.
    pub(crate) fn deliver(&mut self, idx: u32) -> Result<(), MqdError> {
        self.pending_replay.push(idx);
        self.run_pending()?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Delivers this shard's whole arrival sequence — its local posts
    /// `0..len`, in order — and flushes: the per-shard drive of
    /// [`run_supervised_stream`].
    fn run_to_end(&mut self) -> Result<(), MqdError> {
        for idx in 0..self.shard.inst.len() as u32 {
            self.deliver(idx)?;
        }
        self.finish()
    }

    fn run_pending(&mut self) -> Result<(), MqdError> {
        while self.replay_done < self.pending_replay.len() {
            let i = self.replay_done;
            match catch_unwind(AssertUnwindSafe(|| self.process_one(i))) {
                Ok(()) => self.replay_done += 1,
                Err(_) => self.restart(self.snap.seq + i as u64)?,
            }
        }
        Ok(())
    }

    /// Processes the `i`-th replay entry. May panic (that's the point); the
    /// caller restores from the snapshot, so a torn engine state is
    /// discarded rather than observed.
    fn process_one(&mut self, i: usize) {
        let idx = self.pending_replay[i];
        let seq = self.snap.seq + i as u64;
        let true_t = self.shard.inst.value(idx);
        if let Some(fi) = self.fault_at(seq) {
            match self.faults[fi].kind {
                FaultKind::Panic => {
                    if !self.fired[fi] {
                        // Mark fired *before* unwinding so the post-restart
                        // replay proceeds past this seq.
                        self.fired[fi] = true;
                        // lint:allow(panic-path): deliberate chaos injection — the supervisor's restart path exists to absorb exactly this panic
                        panic!("{INJECTED_PANIC}");
                    }
                }
                FaultKind::Stall { duration } => {
                    self.stall_until = self.stall_until.max(true_t.saturating_add(duration));
                    self.counters.stalls_applied += 1;
                }
            }
        }

        self.clock = self.clock.max(true_t);
        let lag = self.stall_until.saturating_sub(self.clock).max(0);
        if !self.degraded && lag > self.degrade_threshold() {
            self.degrade();
        } else if self.degraded && lag == 0 {
            self.recover();
        }

        // A shard receives its local posts in order, each once.
        debug_assert!(idx >= self.next_expected);
        let mut out = Vec::new();
        {
            let ctx = StreamContext::new(&self.shard.inst, &self.lambda, self.tau);
            self.engine
                .on_time(&ctx, true_t.saturating_sub(1), &mut out);
            self.engine.on_arrival(&ctx, idx, &mut out);
            self.next_expected = idx + 1;
        }
        self.sink(out, false);
    }

    /// Switches to the Instant (`tau = 0`) scheme: flush the primary engine
    /// (preserving the lambda-cover), then continue from its coverage
    /// frontier with zero buffering.
    fn degrade(&mut self) {
        let mut out = Vec::new();
        {
            let ctx = StreamContext::new(&self.shard.inst, &self.lambda, self.tau);
            self.engine.flush(&ctx, &mut out);
        }
        self.engine = self.engine_from(true, &self.engine_state());
        self.degraded = true;
        self.counters.mode_switches += 1;
        self.sink(out, true);
        self.want_snapshot = true;
    }

    /// Switches back to the primary engine, seeded from the Instant cache's
    /// frontier and the cumulative emitted set.
    fn recover(&mut self) {
        let mut snap = self.engine_state();
        snap.emitted = self
            .emitted_local
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| i as u32)
            .collect();
        self.engine = self.engine_from(false, &snap);
        self.degraded = false;
        self.counters.mode_switches += 1;
        self.want_snapshot = true;
    }

    /// Records emissions: stall-delayed releases are rewritten to the stall
    /// end and flagged; degraded-path emissions are flagged and counted.
    fn sink(&mut self, out: Vec<Emission>, degraded_path: bool) {
        for e in out {
            let actual = e.emit_time.max(self.stall_until);
            let rewritten = actual != e.emit_time;
            if rewritten {
                self.counters.stall_rewrites += 1;
            }
            let deg = degraded_path || self.degraded;
            if deg {
                self.counters.degraded_emissions += 1;
            }
            self.emitted_local[e.post as usize] = true;
            self.emissions.push(SupervisedEmission {
                post: self.shard.to_global[e.post as usize],
                emit_time: actual,
                degraded: deg || rewritten,
            });
        }
    }

    fn restart(&mut self, seq: u64) -> Result<(), MqdError> {
        if self.restarts.len() >= self.max_restarts {
            return Err(MqdError::ShardFailed {
                shard: self.index,
                restarts: self.restarts.len(),
            });
        }
        self.restarts.push(RestartRecord {
            shard: self.index,
            seq,
            attempt: self.restarts.len() + 1,
        });
        self.restore_from_snap();
        Ok(())
    }

    fn restore_from_snap(&mut self) {
        self.next_expected = self.snap.next_expected;
        self.clock = self.snap.clock;
        self.stall_until = self.snap.stall_until;
        self.degraded = self.snap.degraded;
        self.counters = self.snap.counters;
        self.emitted_local = self.snap.emitted_local.clone();
        self.emissions.truncate(self.snap.emission_mark);
        self.engine = self.engine_from(self.snap.degraded, &self.snap.engine);
        self.replay_done = 0;
    }

    /// A fresh engine for the given mode — Instant when `degraded`, else
    /// the primary kind — restored from `snap`.
    fn engine_from(&self, degraded: bool, snap: &EngineSnapshot) -> Box<dyn StreamEngine> {
        let labels = self.shard.inst.num_labels();
        let mut engine: Box<dyn StreamEngine> = if degraded {
            Box::new(InstantScan::new(labels))
        } else {
            self.kind.build(labels, self.shard.inst.len())
        };
        let ctx = StreamContext::new(&self.shard.inst, &self.lambda, self.tau);
        engine.restore(&ctx, snap);
        engine
    }

    fn maybe_snapshot(&mut self) {
        if self.want_snapshot || self.pending_replay.len() >= self.snapshot_every {
            self.take_snapshot();
        }
    }

    /// Captures a restart point. Only valid at delivery boundaries.
    pub(crate) fn take_snapshot(&mut self) {
        debug_assert_eq!(self.replay_done, self.pending_replay.len());
        self.snap = SupSnapshot {
            seq: self.snap.seq + self.replay_done as u64,
            next_expected: self.next_expected,
            clock: self.clock,
            stall_until: self.stall_until,
            degraded: self.degraded,
            counters: self.counters,
            engine: self.engine_state(),
            emitted_local: self.emitted_local.clone(),
            emission_mark: self.emissions.len(),
        };
        self.pending_replay.clear();
        self.replay_done = 0;
        self.want_snapshot = false;
    }

    /// The cumulative emitted set (local post indices) as a bitset.
    pub(crate) fn emitted_local_bits(&self) -> &[bool] {
        &self.emitted_local
    }

    /// Emissions this shard has released so far (pre-flush).
    pub(crate) fn emissions_so_far(&self) -> &[SupervisedEmission] {
        &self.emissions
    }

    /// Restarts recorded so far (for checkpointing, so a resumed run's
    /// fault report matches the uninterrupted one).
    pub(crate) fn restarts_so_far(&self) -> &[RestartRecord] {
        &self.restarts
    }

    /// The engine's current restartable snapshot (empty for an engine
    /// without one). For checkpointing, call [`Self::take_snapshot`] first
    /// so the replay buffer is empty.
    pub(crate) fn engine_state(&self) -> EngineSnapshot {
        self.engine
            .snapshot()
            .unwrap_or_else(|| EngineSnapshot::empty(self.shard.inst.num_labels()))
    }

    /// Overwrites the supervisor state from a decoded checkpoint: `snap`
    /// becomes the restart point and the engine is rebuilt from it.
    /// `emissions` is the checkpointed emission log (`snap.emission_mark`
    /// is its length), so the resumed run's final output is the complete
    /// emission stream, not just the post-checkpoint tail.
    pub(crate) fn restore_checkpoint(
        &mut self,
        snap: SupSnapshot,
        fired: Vec<bool>,
        emissions: Vec<SupervisedEmission>,
        restarts: Vec<RestartRecord>,
    ) {
        self.snap = snap;
        self.fired = fired;
        self.emissions = emissions;
        self.restarts = restarts;
        self.pending_replay.clear();
        self.want_snapshot = false;
        self.restore_from_snap();
    }

    /// End of stream: flush the engine in place, absorbing panics like any
    /// other event.
    pub(crate) fn finish(&mut self) -> Result<(), MqdError> {
        loop {
            let res = catch_unwind(AssertUnwindSafe(|| {
                let mut out = Vec::new();
                let ctx = StreamContext::new(&self.shard.inst, &self.lambda, self.tau);
                self.engine.flush(&ctx, &mut out);
                out
            }));
            match res {
                Ok(out) => {
                    self.sink(out, false);
                    return Ok(());
                }
                Err(_) => {
                    self.restart(self.seq())?;
                    self.run_pending()?;
                }
            }
        }
    }
}

/// Dedups emissions per post, keeping the earliest release (a tie prefers
/// the unflagged one), then orders them by `(emit_time, post)`.
fn merge(mut all: Vec<SupervisedEmission>) -> Vec<SupervisedEmission> {
    all.sort_by_key(|e| (e.post, e.emit_time, e.degraded));
    all.dedup_by_key(|e| e.post);
    all.sort_by_key(|e| (e.emit_time, e.post));
    all
}

/// A resumable sequential supervised run: the unit the checkpoint codec
/// serializes. Feed it arrival-by-arrival with [`Self::step`], snapshot it
/// at any boundary, kill it, and rebuild it with the checkpoint codec — the
/// resumed run emits exactly what the uninterrupted one would have from
/// that point on.
pub struct SupervisedRun {
    pub(crate) sups: Vec<ShardSup>,
    pub(crate) next_post: u32,
    pub(crate) global_times: Vec<i64>,
    pub(crate) lambda: i64,
    pub(crate) tau: i64,
    pub(crate) kind: ShardEngineKind,
    pub(crate) seed: u64,
    pub(crate) plan_faults: Vec<Fault>,
    pub(crate) digest: u64,
}

impl std::fmt::Debug for SupervisedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedRun")
            .field("shards", &self.sups.len())
            .field("next_post", &self.next_post)
            .field("posts", &self.global_times.len())
            .field("lambda", &self.lambda)
            .field("tau", &self.tau)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl SupervisedRun {
    /// Builds the run over `inst` with the given fault plan.
    pub fn new(
        inst: &Instance,
        lambda: i64,
        tau: i64,
        shards: usize,
        kind: ShardEngineKind,
        plan: &FaultPlan,
    ) -> Self {
        silence_injected_panics();
        let shards = clamp_shards(inst, shards);
        let sups = build_shards(inst, shards)
            .into_iter()
            .enumerate()
            .map(|(s, sh)| ShardSup::new(s, sh, lambda, tau, kind, plan.for_shard(s)))
            .collect();
        SupervisedRun {
            sups,
            next_post: 0,
            global_times: (0..inst.len() as u32).map(|k| inst.value(k)).collect(),
            lambda,
            tau,
            kind,
            seed: plan.seed,
            plan_faults: plan.faults.clone(),
            digest: instance_digest(inst),
        }
    }

    /// Shards the run uses: the requested count clamped to at least one
    /// and at most one per label.
    pub fn shards(&self) -> usize {
        self.sups.len()
    }

    /// Global posts delivered so far.
    pub fn position(&self) -> u32 {
        self.next_post
    }

    /// Whether every arrival has been delivered.
    pub fn done(&self) -> bool {
        self.next_post as usize >= self.global_times.len()
    }

    /// Delivers the next global arrival to every shard owning one of its
    /// labels. Returns `Ok(false)` once the stream is exhausted.
    pub fn step(&mut self) -> Result<bool, MqdError> {
        if self.done() {
            return Ok(false);
        }
        let k = self.next_post;
        for sup in &mut self.sups {
            let local = sup.shard.to_local[k as usize];
            if local != u32::MAX {
                sup.deliver(local)?;
            }
        }
        self.next_post += 1;
        Ok(true)
    }

    /// Runs to end of stream.
    pub fn run_all(&mut self) -> Result<(), MqdError> {
        while self.step()? {}
        Ok(())
    }

    /// Emissions released so far, across shards, in `(emit_time, post)`
    /// order (without the end-of-stream flush). This is what a process
    /// killed right now would have durably published.
    pub fn released_emissions(&self) -> Vec<SupervisedEmission> {
        merge(
            self.sups
                .iter()
                .flat_map(|s| s.emissions_so_far().iter().copied())
                .collect(),
        )
    }

    /// Flushes every shard and assembles the merged result and report.
    pub fn finish(mut self) -> Result<SupervisedRunResult, MqdError> {
        for sup in &mut self.sups {
            sup.finish()?;
        }
        Ok(self.assemble())
    }

    /// Merges the finished shards into the final result and report.
    fn assemble(self) -> SupervisedRunResult {
        let shards = self.sups.len();
        let mut counters = ShardCounters::default();
        let mut restarts = Vec::new();
        let mut all: Vec<SupervisedEmission> = Vec::new();
        for sup in self.sups {
            counters.add(&sup.counters);
            restarts.extend(sup.restarts);
            all.extend(sup.emissions);
        }
        let all = merge(all);

        let mut selected: Vec<u32> = all.iter().map(|e| e.post).collect();
        selected.sort_unstable();
        selected.dedup();
        let delay = |e: &SupervisedEmission| {
            e.emit_time
                .saturating_sub(self.global_times[e.post as usize])
        };
        let max_delay = all.iter().map(delay).max().unwrap_or(0);
        let max_unflagged_delay = all
            .iter()
            .filter(|e| !e.degraded)
            .map(delay)
            .max()
            .unwrap_or(0);
        let tau = self.tau;
        let tau_violations_unflagged = all.iter().filter(|e| !e.degraded && delay(e) > tau).count();

        let emissions_plain: Vec<Emission> = all
            .iter()
            .map(|e| Emission {
                post: e.post,
                emit_time: e.emit_time,
            })
            .collect();
        let report = FaultReport {
            seed: self.seed,
            shards,
            tau,
            faults: self.plan_faults,
            restarts,
            counters,
            emissions: all.len(),
            max_delay,
            max_unflagged_delay,
            tau_violations_unflagged,
        };
        SupervisedRunResult {
            result: StreamRunResult {
                algorithm: self.kind.supervised_name(),
                emissions: emissions_plain,
                selected,
                max_delay,
            },
            emissions: all,
            report,
        }
    }
}

/// Canonical digest of an instance (timestamps and label sets), used to
/// refuse applying a checkpoint to the wrong stream.
pub(crate) fn instance_digest(inst: &Instance) -> u64 {
    let mut buf = Vec::with_capacity(inst.len() * 6);
    mqd_core::wire::put_varint(&mut buf, inst.len() as u64);
    for k in 0..inst.len() as u32 {
        mqd_core::wire::put_varint_i64(&mut buf, inst.value(k));
        let labels = inst.labels(k);
        mqd_core::wire::put_varint(&mut buf, labels.len() as u64);
        for &a in labels {
            mqd_core::wire::put_varint(&mut buf, a.index() as u64);
        }
    }
    mqd_core::wire::fnv1a(&buf)
}

/// Sequential supervised run: build, drive to completion in global arrival
/// order ([`SupervisedRun::run_all`]), finish. The reference the parallel
/// runner must match byte-for-byte.
pub fn run_supervised_reference(
    inst: &Instance,
    lambda: i64,
    tau: i64,
    shards: usize,
    kind: ShardEngineKind,
    plan: &FaultPlan,
) -> Result<SupervisedRunResult, MqdError> {
    let mut run = SupervisedRun::new(inst, lambda, tau, shards, kind, plan);
    run.run_all()?;
    run.finish()
}

/// Parallel supervised run: each shard is one `mqd-par` slot that
/// delivers its local arrivals `0..len` and flushes, on at most
/// `min(shards, configured_threads())` workers. Fault interpretation is
/// keyed by the per-shard arrival sequence, so the output — emissions
/// *and* report — is byte-identical to [`run_supervised_reference`] at any
/// thread count. A failed shard's error is returned; with several, the
/// lowest shard's.
pub fn run_supervised_stream(
    inst: &Instance,
    lambda: i64,
    tau: i64,
    shards: usize,
    kind: ShardEngineKind,
    plan: &FaultPlan,
) -> Result<SupervisedRunResult, MqdError> {
    let run = SupervisedRun::new(inst, lambda, tau, shards, kind, plan);
    run_parallel(run, mqd_par::configured_threads())
}

/// Drives every shard of a fresh `run` to its end on `threads` workers and
/// assembles the result; the first failed shard in shard order fails it.
fn run_parallel(mut run: SupervisedRun, threads: usize) -> Result<SupervisedRunResult, MqdError> {
    let mut slots: Vec<(&mut ShardSup, Result<(), MqdError>)> =
        run.sups.iter_mut().map(|sup| (sup, Ok(()))).collect();
    mqd_par::par_for_each_threads(threads, &mut slots, |_, (sup, res)| *res = sup.run_to_end());
    for (_, res) in slots {
        res?;
    }
    Ok(run.assemble())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_sharded_reference;
    use mqd_core::{coverage, FixedLambda};

    fn instance(seed: u64, n: usize, labels: usize) -> Instance {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = 0i64;
        let items: Vec<(i64, Vec<u16>)> = (0..n)
            .map(|_| {
                t += (next() % 40) as i64;
                let mut ls = vec![(next() % labels as u64) as u16];
                if next() % 3 == 0 {
                    ls.push((next() % labels as u64) as u16);
                    ls.sort_unstable();
                    ls.dedup();
                }
                (t, ls)
            })
            .collect();
        Instance::from_values(items, labels).unwrap()
    }

    #[test]
    fn no_faults_matches_plain_sharding() {
        let inst = instance(5, 150, 4);
        let (lambda, tau) = (60, 40);
        for kind in [ShardEngineKind::Scan, ShardEngineKind::Greedy] {
            let sup =
                run_supervised_reference(&inst, lambda, tau, 4, kind, &FaultPlan::none()).unwrap();
            let plain = run_sharded_reference(&inst, lambda, tau, 4, kind);
            assert_eq!(sup.result.selected, plain.selected, "{kind:?}");
            assert_eq!(sup.result.emissions, plain.emissions, "{kind:?}");
            assert!(sup.report.restarts.is_empty());
            assert_eq!(sup.report.counters, ShardCounters::default());
        }
    }

    #[test]
    fn panic_restart_is_transparent() {
        // Only panic faults: after restart+replay the output must equal the
        // fault-free run exactly, with every restart on record.
        let inst = instance(11, 120, 4);
        let (lambda, tau) = (60, 40);
        let faults = vec![
            Fault {
                shard: 0,
                seq: 3,
                kind: FaultKind::Panic,
            },
            Fault {
                shard: 1,
                seq: 10,
                kind: FaultKind::Panic,
            },
            Fault {
                shard: 2,
                seq: 0,
                kind: FaultKind::Panic,
            },
        ];
        let plan = FaultPlan::from_faults(99, faults);
        let sup = run_supervised_reference(&inst, lambda, tau, 4, ShardEngineKind::ScanPlus, &plan)
            .unwrap();
        let clean = run_sharded_reference(&inst, lambda, tau, 4, ShardEngineKind::ScanPlus);
        assert_eq!(sup.result.emissions, clean.emissions);
        assert_eq!(sup.report.restarts.len(), 3);
        assert_eq!(sup.report.tau_violations_unflagged, 0);
    }

    #[test]
    fn stall_rewrites_are_flagged_and_budget_holds() {
        let inst = instance(3, 150, 3);
        let (lambda, tau) = (80, 30);
        let plan = FaultPlan::from_faults(
            7,
            vec![Fault {
                shard: 0,
                seq: 5,
                kind: FaultKind::Stall { duration: 500 },
            }],
        );
        let sup =
            run_supervised_reference(&inst, lambda, tau, 3, ShardEngineKind::Scan, &plan).unwrap();
        assert!(sup.report.counters.stalls_applied >= 1);
        assert!(
            sup.report.counters.stall_rewrites + sup.report.counters.degraded_emissions > 0,
            "a 500-tick stall with tau=30 must delay or degrade something"
        );
        assert_eq!(sup.report.tau_violations_unflagged, 0);
        assert!(sup.report.max_unflagged_delay <= tau);
        // Long stall must have pushed the shard into degraded mode.
        assert!(sup.report.counters.mode_switches >= 1);
        assert!(coverage::is_cover(
            &inst,
            &FixedLambda(lambda),
            &sup.result.selected
        ));
    }

    #[test]
    fn threaded_matches_reference_under_chaos() {
        let inst = instance(21, 200, 5);
        let (lambda, tau) = (70, 45);
        for seed in [1u64, 42, 1234] {
            let plan = FaultPlan::for_instance(&inst, 5, seed, tau);
            for kind in [ShardEngineKind::ScanPlus, ShardEngineKind::GreedyPlus] {
                let a = run_supervised_stream(&inst, lambda, tau, 5, kind, &plan).unwrap();
                let b = run_supervised_reference(&inst, lambda, tau, 5, kind, &plan).unwrap();
                assert_eq!(a.emissions, b.emissions, "seed {seed} {kind:?}");
                assert_eq!(a.report, b.report, "seed {seed} {kind:?}");
                assert_eq!(
                    a.report.to_json(),
                    b.report.to_json(),
                    "seed {seed} {kind:?}"
                );
                assert_eq!(a.report.tau_violations_unflagged, 0);
                assert!(coverage::is_cover(
                    &inst,
                    &FixedLambda(lambda),
                    &a.result.selected
                ));
            }
        }
    }

    /// A run whose shards may not restart at all: the budget is worked
    /// out per shard, so a test that needs another one writes the field.
    fn without_restarts(
        inst: &Instance,
        shards: usize,
        kind: ShardEngineKind,
        plan: &FaultPlan,
    ) -> SupervisedRun {
        let mut run = SupervisedRun::new(inst, 30, 10, shards, kind, plan);
        for sup in &mut run.sups {
            sup.max_restarts = 0;
        }
        run
    }

    #[test]
    fn restart_budget_exhaustion_fails_the_run() {
        let inst = instance(2, 40, 2);
        let plan = FaultPlan::from_faults(
            3,
            vec![Fault {
                shard: 0,
                seq: 1,
                kind: FaultKind::Panic,
            }],
        );
        let mut run = without_restarts(&inst, 2, ShardEngineKind::Scan, &plan);
        let err = run.run_all().unwrap_err();
        assert!(matches!(err, MqdError::ShardFailed { shard: 0, .. }));
        for threads in [1, 4] {
            let run = without_restarts(&inst, 2, ShardEngineKind::Scan, &plan);
            let err = run_parallel(run, threads);
            assert!(
                matches!(err, Err(MqdError::ShardFailed { shard: 0, .. })),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn planned_panics_beyond_the_base_budget_complete() {
        // Twelve planned panics on one shard: more than `MAX_RESTARTS`, yet
        // each is planned work, so both drives restart through all of them.
        let inst = instance(8, 120, 2);
        let faults = (0..12)
            .map(|i| Fault {
                shard: 0,
                seq: 3 * i,
                kind: FaultKind::Panic,
            })
            .collect();
        let plan = FaultPlan::from_faults(12, faults);
        let (lambda, tau, kind) = (60, 40, ShardEngineKind::GreedyPlus);
        let reference = run_supervised_reference(&inst, lambda, tau, 2, kind, &plan).unwrap();
        let threaded = run_supervised_stream(&inst, lambda, tau, 2, kind, &plan).unwrap();
        for res in [&reference, &threaded] {
            let restarts = &res.report.restarts;
            assert_eq!(restarts.iter().filter(|r| r.shard == 0).count(), 12);
            assert_eq!(restarts.len(), 12);
            assert!(coverage::is_cover(
                &inst,
                &FixedLambda(lambda),
                &res.result.selected
            ));
        }
        assert_eq!(reference.emissions, threaded.emissions);
    }

    #[test]
    fn parallel_run_reports_the_lowest_failed_shard() {
        // Shard 2 fails on its first arrival, shard 1 much later: the
        // parallel drive must still name shard 1, whatever finishes first.
        let inst = instance(4, 120, 3);
        let plan = FaultPlan::from_faults(
            5,
            vec![
                Fault {
                    shard: 1,
                    seq: 30,
                    kind: FaultKind::Panic,
                },
                Fault {
                    shard: 2,
                    seq: 0,
                    kind: FaultKind::Panic,
                },
            ],
        );
        for threads in [1, 2, 3, 8] {
            let run = without_restarts(&inst, 3, ShardEngineKind::Greedy, &plan);
            let err = run_parallel(run, threads);
            assert!(
                matches!(err, Err(MqdError::ShardFailed { shard: 1, .. })),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn tiny_snapshot_interval_still_correct() {
        // Snapshot after every arrival: restarts replay a single delivery.
        let inst = instance(17, 100, 3);
        let plan = FaultPlan::for_instance(&inst, 3, 77, 25);
        let mut run = SupervisedRun::new(&inst, 50, 25, 3, ShardEngineKind::Scan, &plan);
        for sup in &mut run.sups {
            sup.snapshot_every = 1;
        }
        run.run_all().unwrap();
        let a = run.finish().unwrap();
        let b = run_supervised_reference(&inst, 50, 25, 3, ShardEngineKind::Scan, &plan).unwrap();
        assert_eq!(
            a.emissions, b.emissions,
            "snapshot cadence must not change output"
        );
        assert!(coverage::is_cover(
            &inst,
            &FixedLambda(50),
            &a.result.selected
        ));
    }
}
