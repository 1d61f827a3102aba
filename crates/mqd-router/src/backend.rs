//! Cluster topology and per-connection backend sessions.
//!
//! The shard map is positional: backend `j` of the ordered backend list
//! serves shard `j mod shard_count`, so the replicas of shard `s` are the
//! backends at `s, s + N, s + 2N, ...`. The router pins the map into every
//! backend session with the binary `HELLO` handshake
//! ([`mqd_core::wire::encode_hello`]) before the first request — a backend
//! configured for a different map rejects the session, so a misconfigured
//! cluster fails loudly at connect time rather than splitting the label
//! space two different ways.
//!
//! Sessions are lazy and owned by one router connection at a time (the
//! request/response framing on a backend socket cannot be shared), and a
//! session that fails at the transport level is dropped and re-dialed on
//! the next use — which is exactly the failover path the chaos tests
//! exercise by killing backends mid-stream.

use mqd_core::record::Rows;
use mqd_core::wire::{shard_of_label, ShardIdentity, MAX_SHARD_COUNT};
use mqd_core::MqdError;
use mqd_server::protocol::Request;
use mqd_server::{Client, Response};

/// The validated cluster shape: the ordered backend addresses and the
/// shard count they are partitioned into.
#[derive(Clone, Debug)]
pub struct Topology {
    backends: Vec<String>,
    shard_count: u32,
}

impl Topology {
    /// Validates the shape: at least one backend, a shard count within the
    /// wire-format bound, and a backend list that divides evenly into
    /// `shard_count` replica groups (every shard must have the same number
    /// of replicas, or the positional map would leave shards short).
    pub fn new(backends: Vec<String>, shard_count: u32) -> Result<Self, MqdError> {
        if backends.is_empty() {
            return Err(MqdError::protocol("a router needs at least one backend"));
        }
        if shard_count == 0 || shard_count > MAX_SHARD_COUNT {
            return Err(MqdError::protocol(format!(
                "shard count {shard_count} outside 1..={MAX_SHARD_COUNT}"
            )));
        }
        if backends.len() < shard_count as usize
            || !backends.len().is_multiple_of(shard_count as usize)
        {
            return Err(MqdError::protocol(format!(
                "{} backends cannot serve {shard_count} shards evenly (need a multiple of \
                 {shard_count})",
                backends.len()
            )));
        }
        Ok(Topology {
            backends,
            shard_count,
        })
    }

    /// Number of shards the label space is split into.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// The ordered backend addresses.
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The shard map coordinates backend `idx` serves.
    pub fn identity_of(&self, idx: usize) -> ShardIdentity {
        ShardIdentity {
            shard_id: idx as u32 % self.shard_count,
            shard_count: self.shard_count,
        }
    }

    /// Replicas per shard (the same for every shard).
    pub(crate) fn replica_count(&self) -> usize {
        self.backends.len() / self.shard_count as usize
    }

    /// The backend index of replica `r` of `shard`.
    pub(crate) fn replica(&self, shard: u32, r: usize) -> usize {
        shard as usize + r * self.shard_count as usize
    }

    /// Backend indices serving `shard`, in failover order.
    pub fn replicas(&self, shard: u32) -> Vec<usize> {
        (0..self.replica_count())
            .map(|r| self.replica(shard, r))
            .collect()
    }

    /// The sorted set of shards owning at least one of `labels`.
    pub fn owning_shards(&self, labels: &[u16]) -> Vec<u32> {
        let mut shards = Vec::new();
        for_each_shard(self.shard_mask(labels), |s| shards.push(s as u32));
        shards
    }

    /// The shards owning at least one of `labels`, as a bitmask: bit `s`
    /// for shard `s` (the shard count is at most [`MAX_SHARD_COUNT`] = 64).
    fn shard_mask(&self, labels: &[u16]) -> u64 {
        labels.iter().fold(0, |mask, &l| {
            mask | 1 << shard_of_label(l, self.shard_count)
        })
    }

    /// Splits an ingest batch into one batch per shard: every row goes, in
    /// order, to each shard owning one of its labels, and to none when it
    /// has no label. Two passes over a shard bitmask per row: the first
    /// sizes each shard's batch exactly, the second copies the rows in,
    /// so a split allocates per shard, not per row.
    pub fn split(&self, rows: &Rows) -> Vec<Rows> {
        let masks: Vec<u64> = rows.iter().map(|r| self.shard_mask(r.labels)).collect();
        // Per shard: (rows, labels).
        let mut sizes = vec![(0usize, 0usize); self.shard_count as usize];
        for (row, &mask) in rows.iter().zip(&masks) {
            for_each_shard(mask, |s| {
                sizes[s].0 += 1;
                sizes[s].1 += row.labels.len();
            });
        }
        let mut parts: Vec<Rows> = sizes
            .iter()
            .map(|&(rows, labels)| Rows::with_capacity(rows, labels))
            .collect();
        for (row, &mask) in rows.iter().zip(&masks) {
            for_each_shard(mask, |s| parts[s].push(row));
        }
        parts
    }
}

/// Calls `f` with each set bit of `mask`, ascending.
fn for_each_shard(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Lazy backend sessions for one router connection.
pub struct BackendPool<'a> {
    topo: &'a Topology,
    conns: Vec<Option<Client>>,
}

impl<'a> BackendPool<'a> {
    /// An empty pool over `topo`; sessions dial on first use.
    pub fn new(topo: &'a Topology) -> Self {
        BackendPool {
            conns: (0..topo.backends().len()).map(|_| None).collect(),
            topo,
        }
    }

    /// The live session for backend `idx`, dialing and `HELLO`-pinning the
    /// shard map on first use. A backend that rejects the handshake is a
    /// configuration error, surfaced typed.
    pub fn session(&mut self, idx: usize) -> Result<&mut Client, MqdError> {
        let Some(slot) = self.conns.get_mut(idx) else {
            return Err(MqdError::protocol(format!(
                "backend index {idx} out of range"
            )));
        };
        if slot.is_none() {
            let addr = &self.topo.backends()[idx];
            let mut client = Client::connect(addr.as_str())?;
            let verdict = client.hello(&self.topo.identity_of(idx))?;
            if !verdict.is_ok() {
                return Err(MqdError::protocol(format!(
                    "backend {addr} rejected the shard map: {}",
                    verdict.status
                )));
            }
            *slot = Some(client);
        }
        match slot.as_mut() {
            Some(c) => Ok(c),
            // Unreachable by construction (filled just above); kept typed
            // so a future refactor cannot turn it into a worker panic.
            None => Err(MqdError::protocol(format!(
                "backend {idx} session unavailable"
            ))),
        }
    }

    /// Drops backend `idx`'s session so the next use re-dials.
    pub fn drop_session(&mut self, idx: usize) {
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = None;
        }
    }

    /// Sends `DRAIN` to backend `idx` and drops its session: over the live
    /// session if there is one, else over a bare connection. `DRAIN` is not
    /// scoped to a shard and a backend serves it without `HELLO`, so drain
    /// never handshakes and a backend that refused the shard map still
    /// stops with the cluster.
    pub fn drain(&mut self, idx: usize) -> Result<Response, MqdError> {
        let drain = Request::Drain.to_string();
        match self.conns.get_mut(idx).and_then(Option::take) {
            Some(mut c) => c.request(&drain),
            None => {
                let Some(addr) = self.topo.backends().get(idx) else {
                    return Err(MqdError::protocol(format!(
                        "backend index {idx} out of range"
                    )));
                };
                Client::connect(addr.as_str())?.request(&drain)
            }
        }
    }

    /// The pipelined exchange under [`BackendPool::scatter`]: writes each
    /// `(backend, frame)` request to that backend's session, dialing it if
    /// need be, and only then reads the replies, in request order. The
    /// backends decode and answer side by side while the router reads, and
    /// no thread is spawned: each session is its own socket. A backend
    /// appears at most once, so none has two requests outstanding. A send
    /// or read that fails at the transport level drops that session; every
    /// request that went out has its reply read before this returns, on
    /// the error paths too, so no session is left holding a stale reply
    /// for the next request.
    pub(crate) fn exchange(&mut self, sends: &[(usize, &[u8])]) -> Vec<Result<Response, MqdError>> {
        let sent: Vec<Result<(), MqdError>> = sends
            .iter()
            .map(|&(idx, frame)| {
                let sent = self.session(idx).and_then(|c| c.send(frame));
                if sent.is_err() {
                    self.drop_session(idx);
                }
                sent
            })
            .collect();
        sends
            .iter()
            .zip(sent)
            .map(|(&(idx, _), sent)| {
                let reply = sent.and_then(|()| self.session(idx)?.read_response());
                if reply.is_err() {
                    self.drop_session(idx);
                }
                reply
            })
            .collect()
    }

    /// Sends request `frame` of each `(shard, frame)` pair to `shard` (no
    /// shard twice) through one [`BackendPool::exchange`] per round, and
    /// returns the replies in request order when every shard answered
    /// `+OK`. Otherwise it returns the first other outcome in that order:
    /// `Ok(Err(rejection))` for a typed backend rejection to relay, `Err`
    /// for a shard with no live backend. Either way every shard has had its
    /// request, so a shard after a refusing one still holds its part of a
    /// write.
    ///
    /// * [`Fan::Write`] sends to every replica of the shard in one round.
    ///   A transport failure is tolerated while at least one replica acks.
    ///   Nothing rebuilds the replica that missed the write: its session is
    ///   re-dialled on the next request and it has a hole until ROADMAP
    ///   item 5(c) fences it from reads. A typed rejection from any replica
    ///   is the shard's answer: it means the write itself is wrong, and
    ///   acking it would let the cluster diverge from the single-node
    ///   story.
    /// * [`Fan::Read`] sends to the shard's first replica; each round
    ///   re-sends the requests whose replica failed at the transport level
    ///   to the next replica. A response, `+OK` or a typed rejection alike,
    ///   is the shard's answer.
    pub fn scatter(
        &mut self,
        fan: Fan,
        requests: &[(u32, impl AsRef<[u8]>)],
    ) -> Result<Result<Vec<Response>, Response>, MqdError> {
        let topo = self.topo;
        let replicas = topo.replica_count();
        let outcomes: Vec<Result<Response, MqdError>> = match fan {
            Fan::Write => {
                let sends: Vec<(usize, &[u8])> = (requests.iter())
                    .flat_map(|(shard, frame)| {
                        (0..replicas).map(move |r| (topo.replica(*shard, r), frame.as_ref()))
                    })
                    .collect();
                let mut replies = self.exchange(&sends).into_iter();
                (0..requests.len())
                    .map(|_| {
                        let (mut acked, mut rejected, mut last) = (None, None, None);
                        for reply in replies.by_ref().take(replicas) {
                            match reply {
                                Ok(resp) if resp.is_ok() => acked = Some(resp),
                                Ok(resp) => rejected = rejected.or(Some(resp)),
                                Err(e) => last = Some(e),
                            }
                        }
                        rejected.or(acked).ok_or_else(|| {
                            last.unwrap_or_else(|| MqdError::protocol("no replica answered"))
                        })
                    })
                    .collect()
            }
            Fan::Read => {
                let first: Vec<(usize, &[u8])> = (requests.iter())
                    .map(|(shard, frame)| (topo.replica(*shard, 0), frame.as_ref()))
                    .collect();
                let mut outcomes = self.exchange(&first);
                // Round `r` re-sends each request whose replica failed at
                // the transport level to replica `r`.
                for r in 1..replicas {
                    let pending: Vec<usize> = (0..requests.len())
                        .filter(|&i| outcomes[i].is_err())
                        .collect();
                    if pending.is_empty() {
                        break;
                    }
                    let sends: Vec<(usize, &[u8])> = (pending.iter())
                        .map(|&i| (topo.replica(requests[i].0, r), requests[i].1.as_ref()))
                        .collect();
                    for (i, reply) in pending.into_iter().zip(self.exchange(&sends)) {
                        outcomes[i] = reply;
                    }
                }
                outcomes
            }
        };
        let mut replies = Vec::with_capacity(outcomes.len());
        for (outcome, &(shard, _)) in outcomes.into_iter().zip(requests) {
            let resp = outcome.map_err(|e| no_live_backend(shard, topo.shard_count(), e))?;
            if !resp.is_ok() {
                return Ok(Err(resp));
            }
            replies.push(resp);
        }
        Ok(Ok(replies))
    }
}

/// How a [`BackendPool::scatter`] reaches the replicas of a shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fan {
    /// Every replica: an ingest.
    Write,
    /// The first live replica: a query, a `COVER` half or a `SLICE`.
    Read,
}

fn no_live_backend(shard: u32, shard_count: u32, last: MqdError) -> MqdError {
    MqdError::protocol(format!(
        "shard {shard}/{shard_count} has no live backend: {last}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_validates_shape() {
        let addrs = |n: usize| (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        assert!(Topology::new(Vec::new(), 1).is_err());
        assert!(Topology::new(addrs(2), 0).is_err());
        assert!(Topology::new(addrs(2), 65).is_err());
        assert!(Topology::new(addrs(3), 2).is_err()); // uneven replicas
        assert!(Topology::new(addrs(1), 2).is_err()); // fewer backends than shards
        assert!(Topology::new(addrs(4), 2).is_ok());
    }

    #[test]
    fn replicas_follow_the_positional_map() {
        let addrs = (0..6).map(|i| format!("b{i}")).collect();
        let topo = Topology::new(addrs, 2).unwrap();
        assert_eq!(topo.replicas(0), vec![0, 2, 4]);
        assert_eq!(topo.replicas(1), vec![1, 3, 5]);
        assert_eq!(topo.identity_of(3).shard_id, 1);
        assert_eq!(topo.identity_of(3).shard_count, 2);
    }

    #[test]
    fn owning_shards_are_sorted_and_deduped() {
        let topo = Topology::new(vec!["a".into(), "b".into()], 2).unwrap();
        assert_eq!(topo.owning_shards(&[3, 0, 2, 1, 4]), vec![0, 1]);
        assert_eq!(topo.owning_shards(&[2, 4, 0]), vec![0]);
        assert_eq!(topo.owning_shards(&[5]), vec![1]);
    }
}
