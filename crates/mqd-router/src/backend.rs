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

    /// Backend indices serving `shard`, in failover order.
    pub fn replicas(&self, shard: u32) -> Vec<usize> {
        (shard as usize..self.backends.len())
            .step_by(self.shard_count as usize)
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
        match self.conns.get_mut(idx).and_then(Option::take) {
            Some(mut c) => c.request("DRAIN"),
            None => {
                let Some(addr) = self.topo.backends().get(idx) else {
                    return Err(MqdError::protocol(format!(
                        "backend index {idx} out of range"
                    )));
                };
                Client::connect(addr.as_str())?.request("DRAIN")
            }
        }
    }

    /// One request/response against the first live replica of `shard`.
    /// Transport failures drop the session and fall through to the next
    /// replica; a response — `+OK` or a typed backend rejection alike — is
    /// returned as-is for the caller to relay.
    pub fn shard_request(&mut self, shard: u32, line: &str) -> Result<Response, MqdError> {
        let mut last: Option<MqdError> = None;
        for idx in self.topo.replicas(shard) {
            match self.session(idx).and_then(|c| c.request(line)) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.drop_session(idx);
                    last = Some(e);
                }
            }
        }
        Err(no_live_backend(shard, self.topo.shard_count(), last))
    }

    /// Fans one write to *every* replica of `shard` (replicated ingest).
    /// Transport failures are tolerated while at least one replica acks.
    /// Nothing rebuilds the replica that missed the write: its session is
    /// re-dialled on the next request and it has a hole until ROADMAP item
    /// 5(c) fences it from reads. A typed backend rejection is returned
    /// immediately: it means the write itself is wrong (non-monotone,
    /// unowned labels) and acking it anywhere would let the cluster diverge
    /// from the single-node story.
    pub fn fan_write(
        &mut self,
        shard: u32,
        send: &mut dyn FnMut(&mut Client) -> Result<Response, MqdError>,
    ) -> Result<Response, MqdError> {
        let mut acked: Option<Response> = None;
        let mut last: Option<MqdError> = None;
        for idx in self.topo.replicas(shard) {
            match self.session(idx).and_then(&mut *send) {
                Ok(resp) if resp.is_ok() => acked = Some(resp),
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.drop_session(idx);
                    last = Some(e);
                }
            }
        }
        match acked {
            Some(resp) => Ok(resp),
            None => Err(no_live_backend(shard, self.topo.shard_count(), last)),
        }
    }
}

fn no_live_backend(shard: u32, shard_count: u32, last: Option<MqdError>) -> MqdError {
    let detail = match last {
        Some(e) => format!(": {e}"),
        None => String::new(),
    };
    MqdError::protocol(format!(
        "shard {shard}/{shard_count} has no live backend{detail}"
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
