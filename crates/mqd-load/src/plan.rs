//! The deterministic request schedule.
//!
//! A [`Plan`] is the complete, materialized client behavior of one load
//! run: every request, its wire bytes, its send deadline, and which
//! connection lane carries it — plus the slow-connection fleet for the
//! `slowloris` scenario. Plans are pure functions of (scenario, seed,
//! knobs), and [`Plan::digest`] fingerprints one so a report can prove
//! which schedule produced its numbers: a failing SLO names a replayable
//! `(scenario, seed)` pair.

use mqd_core::record::{encode_records, Record};
use mqd_core::wire::fnv1a;
use mqd_server::format_query;
use mqd_server::protocol::Request;
use mqd_store::QuerySpec;

/// One client action the harness can schedule.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// `PING` liveness probe.
    Ping,
    /// One `QUERY` in the canonical wire form.
    Query(QuerySpec),
    /// One `INGEST` row.
    Ingest(Record),
    /// One MQDL-framed `INGESTB` batch.
    IngestBatch(Vec<Record>),
}

/// A scheduled action: fire at `at_us` (microseconds from run start) on
/// connection lane `lane`, regardless of whether earlier responses have
/// arrived — that independence is what makes the loop open.
#[derive(Clone, PartialEq, Debug)]
pub struct Op {
    /// Send deadline, microseconds from run start.
    pub at_us: u64,
    /// Connection lane carrying this op (ops on a lane are pipelined FIFO).
    pub lane: u16,
    /// What to send.
    pub action: Action,
}

/// One misbehaving connection for the admission-control scenarios: opens
/// at `open_at_us`, dribbles `dribble` one byte every `interval_us` (empty
/// for a half-open connection that sends nothing), then holds the socket
/// for `hold_us` before giving up.
#[derive(Clone, PartialEq, Debug)]
pub struct SlowConn {
    /// When to open the connection, microseconds from run start.
    pub open_at_us: u64,
    /// Bytes to dribble one at a time; empty = half-open (send nothing).
    pub dribble: Vec<u8>,
    /// Gap between dribbled bytes.
    pub interval_us: u64,
    /// How long to keep the socket open after the dribble.
    pub hold_us: u64,
}

/// A complete deterministic load schedule.
#[derive(Clone, PartialEq, Debug)]
pub struct Plan {
    /// Scenario name (`steady`, `flashcrowd`, ...).
    pub scenario: String,
    /// The single seed every choice in this plan derives from.
    pub seed: u64,
    /// Nominal run length, microseconds.
    pub duration_us: u64,
    /// Mean offered rate over the run, requests/second.
    pub offered_rate: f64,
    /// Number of paced connection lanes.
    pub lanes: u16,
    /// The schedule, sorted by `at_us`.
    pub ops: Vec<Op>,
    /// Slow-connection fleet (empty for well-behaved scenarios).
    pub slow_conns: Vec<SlowConn>,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

impl Action {
    /// The exact bytes the runner writes on the socket for this action
    /// (request line, newline, and — for `INGESTB` — the framed body).
    pub fn wire_bytes(&self) -> Vec<u8> {
        match self {
            Action::Ping => Request::Ping.frame(&[]),
            Action::Query(spec) => Request::Query(spec.clone()).frame(&[]),
            Action::Ingest(r) => Request::Ingest(r.clone()).frame(&[]),
            Action::IngestBatch(rows) => {
                let body = encode_records(rows);
                Request::IngestBatch { bytes: body.len() }.frame(&body)
            }
        }
    }

    /// Whether the action is an ingest-side write (for mix accounting).
    pub fn is_ingest(&self) -> bool {
        matches!(self, Action::Ingest(_) | Action::IngestBatch(_))
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Action::Ping => buf.push(0),
            Action::Query(spec) => {
                buf.push(1);
                buf.extend_from_slice(format_query(spec).as_bytes());
            }
            Action::Ingest(r) => {
                buf.push(2);
                put_u64(buf, r.id);
                put_i64(buf, r.value);
                for &l in &r.labels {
                    buf.extend_from_slice(&l.to_le_bytes());
                }
            }
            Action::IngestBatch(rows) => {
                buf.push(3);
                buf.extend_from_slice(&encode_records(rows));
            }
        }
    }
}

impl Plan {
    /// Canonical byte encoding of the whole schedule: what the digest and
    /// the byte-identity determinism test are computed over.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.ops.len() * 24);
        buf.extend_from_slice(self.scenario.as_bytes());
        buf.push(0);
        put_u64(&mut buf, self.seed);
        put_u64(&mut buf, self.duration_us);
        put_u64(&mut buf, self.offered_rate.to_bits());
        buf.extend_from_slice(&self.lanes.to_le_bytes());
        put_u64(&mut buf, self.ops.len() as u64);
        for op in &self.ops {
            put_u64(&mut buf, op.at_us);
            buf.extend_from_slice(&op.lane.to_le_bytes());
            op.action.encode_into(&mut buf);
        }
        put_u64(&mut buf, self.slow_conns.len() as u64);
        for sc in &self.slow_conns {
            put_u64(&mut buf, sc.open_at_us);
            put_u64(&mut buf, sc.dribble.len() as u64);
            buf.extend_from_slice(&sc.dribble);
            put_u64(&mut buf, sc.interval_us);
            put_u64(&mut buf, sc.hold_us);
        }
        buf
    }

    /// FNV-1a fingerprint of [`Plan::encode`]; stamped into every report.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Number of query ops.
    pub fn query_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o.action, Action::Query(_)))
            .count()
    }

    /// Number of ingest ops (single rows and batches).
    pub fn ingest_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.action.is_ingest()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_store::Algorithm;

    fn spec() -> QuerySpec {
        QuerySpec {
            labels: vec![0, 2],
            lambda: 50,
            proportional: false,
            algorithm: Algorithm::Scan,
            from: i64::MIN,
            to: i64::MAX,
        }
    }

    fn plan() -> Plan {
        Plan {
            scenario: "steady".into(),
            seed: 42,
            duration_us: 1_000_000,
            offered_rate: 100.0,
            lanes: 2,
            ops: vec![
                Op {
                    at_us: 0,
                    lane: 0,
                    action: Action::Query(spec()),
                },
                Op {
                    at_us: 10_000,
                    lane: 1,
                    action: Action::Ingest(Record {
                        id: 7,
                        value: 123,
                        labels: vec![0],
                    }),
                },
            ],
            slow_conns: vec![],
        }
    }

    #[test]
    fn wire_bytes_match_protocol_forms() {
        assert_eq!(Action::Ping.wire_bytes(), b"PING\n");
        assert_eq!(Action::Query(spec()).wire_bytes(), b"QUERY 0,2 50 scan\n");
        let r = Record {
            id: 7,
            value: 123,
            labels: vec![0, 3],
        };
        assert_eq!(Action::Ingest(r).wire_bytes(), b"INGEST 7 123 0,3\n");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let p = plan();
        let d1 = p.digest();
        let d2 = plan().digest();
        assert_eq!(d1, d2, "same plan must fingerprint identically");
        let mut q = plan();
        q.ops[0].at_us = 1;
        assert_ne!(d1, q.digest(), "moving a deadline must change the digest");
        let mut q = plan();
        q.seed = 43;
        assert_ne!(d1, q.digest(), "seed is part of the fingerprint");
    }

    #[test]
    fn op_mix_accounting() {
        let p = plan();
        assert_eq!(p.query_ops(), 1);
        assert_eq!(p.ingest_ops(), 1);
    }
}
