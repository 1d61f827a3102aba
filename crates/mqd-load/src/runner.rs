//! The live executor: drives a real `mqd-server` or `mqd-router` endpoint
//! over TCP with the open-loop schedule.
//!
//! Each connection lane gets a paced **writer** thread (fires wire bytes
//! at the plan's deadlines — never waiting on responses, so the loop
//! stays open) and a **reader** thread consuming framed responses in
//! request order; latency is measured from the *scheduled* deadline to
//! response completion, which charges real queueing — including TCP
//! backpressure the server causes — to the server instead of silently
//! omitting it. The slow-connection fleet runs on its own threads and
//! records whether the server answered misbehavior with typed rejections
//! (`-OVERLOADED` / `-ERR Timeout`), a close, or — the SLO failure — not
//! at all.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::Duration;

use mqd_core::MqdError;
use mqd_server::protocol::Request;
use mqd_server::{retryable, Client, LineEvent, LineReader};

use crate::clock::{Clock, RealClock};
use crate::hist::Hist;
use crate::pacer::pace;
use crate::plan::{Action, Plan, SlowConn};
use crate::report::{Counts, RunOutcome, SlowOutcome};

/// Socket poll tick: how often blocked reads wake to check deadlines.
const TICK: Duration = Duration::from_millis(100);

/// Patience per op: an op with no response this long after its deadline
/// counts as dropped and its lane is abandoned.
const RESPONSE_TIMEOUT_US: u64 = 15_000_000;

#[derive(Default)]
struct Agg {
    counts: Counts,
    slow: SlowOutcome,
    all_hist: Hist,
    query_hist: Hist,
}

enum Resp {
    Status(String),
    Closed,
    TimedOut,
}

/// A lane's response reader: the server's [`LineReader`] with a one-tick
/// idle budget, so a blocked read returns every [`TICK`] and the caller
/// checks its deadline. Partial lines survive the ticks.
type Lines = LineReader<BufReader<TcpStream>>;

/// Reads one framed response (status line .. `.` terminator), giving up
/// at `deadline_us`.
fn read_response(lines: &mut Lines, clock: &RealClock, deadline_us: u64) -> Resp {
    // Never set: the lane has no drain to observe.
    let draining = AtomicBool::new(false);
    let mut status: Option<String> = None;
    loop {
        if clock.now_us() > deadline_us {
            return Resp::TimedOut;
        }
        match lines.next_line(&draining) {
            Ok(LineEvent::Line(l)) => {
                if status.is_none() {
                    status = Some(l);
                } else if l == "." {
                    return match status.take() {
                        Some(s) => Resp::Status(s),
                        None => Resp::Closed,
                    };
                }
                // else: payload line, skip
            }
            Ok(LineEvent::IdleTimeout) => {}
            Ok(LineEvent::Eof | LineEvent::Oversized | LineEvent::Drained) | Err(_) => {
                return Resp::Closed
            }
        }
    }
}

fn classify(status: &str, counts: &mut Counts) -> bool {
    if status.starts_with("+OK") {
        counts.ok += 1;
        true
    } else if status.starts_with("-OVERLOADED") {
        counts.overloads += 1;
        false
    } else if status.starts_with("-ERR Timeout") {
        counts.timeouts += 1;
        false
    } else {
        // Untyped errors are SLO violations; surface the first few so a
        // failed run names the fault instead of just counting it.
        if counts.errors < 5 {
            eprintln!("load: untyped error response: {status}");
        }
        counts.errors += 1;
        false
    }
}

/// One lane's materialized schedule entry.
struct LaneOp {
    at_us: u64,
    bytes: Vec<u8>,
    is_query: bool,
}

fn lane_writer(
    clock: &RealClock,
    ops: &[LaneOp],
    mut w: TcpStream,
    tx: Sender<(u64, bool)>,
    agg: &Mutex<Agg>,
) {
    let deadlines: Vec<u64> = ops.iter().map(|o| o.at_us).collect();
    let mut dead = 0u64;
    let mut lane_down = false;
    pace(clock, &deadlines, |i, _| {
        let Some(op) = ops.get(i) else { return };
        if lane_down {
            dead += 1;
            return;
        }
        // Send-at-deadline: the write itself may block on backpressure,
        // which delays *later* sends on this lane — and those ops'
        // latencies, measured from their scheduled deadlines, charge that
        // delay to the server. That is the point.
        if w.write_all(&op.bytes).is_ok() {
            let _ = tx.send((op.at_us, op.is_query));
        } else {
            lane_down = true;
            dead += 1;
        }
    });
    drop(tx); // reader sees Disconnected once responses are drained
    if dead > 0 {
        if let Ok(mut g) = agg.lock() {
            g.counts.dropped += dead;
        }
    }
}

fn lane_reader(clock: &RealClock, stream: TcpStream, rx: Receiver<(u64, bool)>, agg: &Mutex<Agg>) {
    let mut lines = LineReader::new(BufReader::new(stream));
    lines.set_idle_ticks(Some(1));
    let mut counts = Counts::default();
    let mut all_hist = Hist::new();
    let mut query_hist = Hist::new();
    let mut abandoned = false;
    loop {
        match rx.recv_timeout(TICK) {
            Ok((at_us, is_query)) => {
                if abandoned {
                    counts.dropped += 1;
                    continue;
                }
                match read_response(&mut lines, clock, at_us.saturating_add(RESPONSE_TIMEOUT_US)) {
                    Resp::Status(status) => {
                        if classify(&status, &mut counts) {
                            let latency = clock.now_us().saturating_sub(at_us);
                            all_hist.record(latency);
                            if is_query {
                                query_hist.record(latency);
                            }
                        }
                    }
                    Resp::Closed | Resp::TimedOut => {
                        counts.dropped += 1;
                        abandoned = true; // framing lost; drain the rest as drops
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Ok(mut g) = agg.lock() {
        g.counts.ok += counts.ok;
        g.counts.errors += counts.errors;
        g.counts.overloads += counts.overloads;
        g.counts.timeouts += counts.timeouts;
        g.counts.dropped += counts.dropped;
        g.all_hist.merge(&all_hist);
        g.query_hist.merge(&query_hist);
    }
}

/// Drives one misbehaving connection and classifies how it ended.
fn run_slow_conn(clock: &RealClock, sc: &SlowConn, addr: &str, end_us: u64, agg: &Mutex<Agg>) {
    clock.sleep_until_us(sc.open_at_us);
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            if let Ok(mut g) = agg.lock() {
                g.slow.opened += 1;
                g.slow.server_closed += 1; // refused at the door
            }
            return;
        }
    };
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_nodelay(true);
    let mut w = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            if let Ok(mut g) = agg.lock() {
                g.slow.opened += 1;
                g.slow.unresolved += 1;
            }
            return;
        }
    };
    let mut r = stream;
    let deadline = sc
        .open_at_us
        .saturating_add(sc.hold_us)
        .min(end_us.saturating_add(500_000));
    let mut got: Vec<u8> = Vec::new();
    let mut closed = false;
    let mut sent = 0usize;
    let mut buf = [0u8; 1024];
    while clock.now_us() < deadline && !closed {
        // Dribble every due byte (one per interval since open).
        while sent < sc.dribble.len() {
            let due = sc
                .open_at_us
                .saturating_add(sc.interval_us.saturating_mul(sent as u64 + 1));
            if clock.now_us() < due {
                break;
            }
            match sc.dribble.get(sent) {
                Some(&b) => {
                    if w.write_all(&[b]).is_err() {
                        closed = true;
                        break;
                    }
                    let _ = w.flush();
                    sent += 1;
                }
                None => break,
            }
        }
        // Poll for a typed response or a close; the read timeout is the
        // loop's pacing tick.
        match r.read(&mut buf) {
            Ok(0) => closed = true,
            Ok(n) => got.extend_from_slice(buf.get(..n).unwrap_or(&[])),
            Err(e) if retryable(&e) => {}
            Err(_) => closed = true,
        }
    }
    // One last non-blocking-ish read so a typed response racing the
    // deadline still counts.
    if !closed {
        match r.read(&mut buf) {
            Ok(0) => closed = true,
            Ok(n) => got.extend_from_slice(buf.get(..n).unwrap_or(&[])),
            Err(_) => {}
        }
    }
    let typed = {
        let s = String::from_utf8_lossy(&got);
        s.contains("-ERR") || s.contains("-OVERLOADED")
    };
    if let Ok(mut g) = agg.lock() {
        g.slow.opened += 1;
        if typed {
            g.slow.typed_rejected += 1;
        } else if closed {
            g.slow.server_closed += 1;
        } else {
            g.slow.unresolved += 1;
        }
    }
}

/// Grabs the raw STATS JSON from the target (best effort).
fn fetch_stats(addr: &str) -> Option<String> {
    let mut c = Client::connect(addr).ok()?;
    let resp = c.request(&Request::Stats.to_string()).ok()?;
    if !resp.is_ok() {
        return None;
    }
    resp.status.strip_prefix("+OK ").map(|s| s.to_string())
}

/// Executes the plan against a live endpoint. Errors only on total
/// failure to reach the target; per-op failures land in the report.
pub fn run_live(plan: &Plan, addr: &str) -> Result<RunOutcome, MqdError> {
    // Fail fast (and typed) when the endpoint is unreachable.
    let probe = TcpStream::connect(addr).map_err(|e| MqdError::Io(e.to_string()))?;
    drop(probe);
    let stats_before = fetch_stats(addr);

    // Materialize per-lane schedules (wire bytes rendered up front so the
    // paced path does no formatting).
    let nlanes = plan.lanes.max(1) as usize;
    let mut lanes: Vec<Vec<LaneOp>> = Vec::with_capacity(nlanes);
    lanes.resize_with(nlanes, Vec::new);
    for op in &plan.ops {
        if let Some(lane) = lanes.get_mut(op.lane as usize) {
            lane.push(LaneOp {
                at_us: op.at_us,
                bytes: op.action.wire_bytes(),
                is_query: matches!(op.action, Action::Query(_)),
            });
        }
    }

    let clock = RealClock::new();
    let agg = Mutex::new(Agg::default());
    std::thread::scope(|s| {
        for lane_ops in &lanes {
            if lane_ops.is_empty() {
                continue;
            }
            let conn = TcpStream::connect(addr).and_then(|c| {
                c.set_read_timeout(Some(TICK))?;
                c.set_write_timeout(Some(Duration::from_secs(5)))?;
                let _ = c.set_nodelay(true);
                let w = c.try_clone()?;
                Ok((c, w))
            });
            match conn {
                Ok((read_half, write_half)) => {
                    let (tx, rx) = channel::<(u64, bool)>();
                    let clock_ref = &clock;
                    let agg_ref = &agg;
                    s.spawn(move || lane_writer(clock_ref, lane_ops, write_half, tx, agg_ref));
                    s.spawn(move || lane_reader(clock_ref, read_half, rx, agg_ref));
                }
                Err(_) => {
                    if let Ok(mut g) = agg.lock() {
                        g.counts.dropped += lane_ops.len() as u64;
                    }
                }
            }
        }
        for sc in &plan.slow_conns {
            let clock_ref = &clock;
            let agg_ref = &agg;
            let end_us = plan.duration_us;
            s.spawn(move || run_slow_conn(clock_ref, sc, addr, end_us, agg_ref));
        }
    });
    let wall_us = clock.now_us().max(1);
    let stats_after = fetch_stats(addr);

    let agg = agg.into_inner().unwrap_or_default();
    Ok(RunOutcome {
        all_hist: agg.all_hist,
        query_hist: agg.query_hist,
        counts: agg.counts,
        slow: agg.slow,
        wall_us,
        stats_before,
        stats_after,
    })
}
