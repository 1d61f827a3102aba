//! Sharded streaming: the label-partition decomposition every sharded
//! runner shares, plus its sequential reference.
//!
//! The MQDP coverage relation never crosses labels — a post covers an
//! occurrence `⟨P_i, a⟩` only via label `a` — so partitioning *labels*
//! across shards decomposes the problem exactly: the union of per-shard
//! lambda-covers is a lambda-cover of the full instance, and each shard's
//! engine enforces the delay budget `tau` for the occurrences it owns.
//! Label `a` goes to shard `a.index() % shards`; a post carrying labels
//! from several shards is fed to each of them (and deduplicated at merge,
//! keeping its earliest emission, which can only tighten the delay).
//!
//! The parallel runner is [`crate::supervisor::run_supervised_stream`]
//! (one `mqd-par` slot per shard), which under `FaultPlan::none()` is this
//! decomposition with supervision around it. [`run_sharded_reference`] is
//! the same decomposition with no threads or supervisor, and its own merge
//! (`merge_emissions`) so it shares no code with what it checks: each
//! shard replays the simulator's event discipline — clock advance to
//! `t - 1`, then the arrival — against its label-filtered sub-instance,
//! then flushes. Tests compare the supervised runners against it.
//!
//! Sharding is defined for a **uniform** threshold (`FixedLambda`):
//! variable per-post thresholds (Section 6) are computed against a
//! concrete instance and would not survive the per-shard re-indexing.
//!
//! Determinism: each shard consumes the same arrival sequence whatever
//! the shard count or thread schedule, so the merged output is
//! byte-identical across runs; with `shards = 1` it equals the unsharded
//! [`run_stream`](crate::simulator::run_stream) of the same engine.

use mqd_core::{FixedLambda, Instance, LabelId, MqdError, Post, PostId};

use crate::engine::{Emission, StreamEngine};
use crate::greedy::StreamGreedy;
use crate::scan::StreamScan;
use crate::simulator::{run_stream, StreamRunResult};

/// Which engine each shard runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardEngineKind {
    /// Per-label pending groups (Section 5.1).
    Scan,
    /// StreamScan+ — Scan with cross-label cache checks.
    ScanPlus,
    /// Windowed greedy set cover (Section 5.2).
    Greedy,
    /// StreamGreedySC+ — greedy with the extended window.
    GreedyPlus,
}

impl ShardEngineKind {
    pub(crate) fn build(self, num_labels: usize, capacity: usize) -> Box<dyn StreamEngine> {
        match self {
            ShardEngineKind::Scan => Box::new(StreamScan::new(num_labels, capacity)),
            ShardEngineKind::ScanPlus => Box::new(StreamScan::new_plus(num_labels, capacity)),
            ShardEngineKind::Greedy => Box::new(StreamGreedy::new(num_labels, capacity)),
            ShardEngineKind::GreedyPlus => Box::new(StreamGreedy::new_plus(num_labels, capacity)),
        }
    }

    pub(crate) fn merged_name(self) -> &'static str {
        match self {
            ShardEngineKind::Scan => "Sharded(StreamScan)",
            ShardEngineKind::ScanPlus => "Sharded(StreamScan+)",
            ShardEngineKind::Greedy => "Sharded(StreamGreedySC)",
            ShardEngineKind::GreedyPlus => "Sharded(StreamGreedySC+)",
        }
    }

    pub(crate) fn supervised_name(self) -> &'static str {
        match self {
            ShardEngineKind::Scan => "Supervised(StreamScan)",
            ShardEngineKind::ScanPlus => "Supervised(StreamScan+)",
            ShardEngineKind::Greedy => "Supervised(StreamGreedySC)",
            ShardEngineKind::GreedyPlus => "Supervised(StreamGreedySC+)",
        }
    }

    /// Wire name (`SUBSCRIBE` lines): `scan|scanplus|greedy|greedyplus`.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardEngineKind::Scan => "scan",
            ShardEngineKind::ScanPlus => "scanplus",
            ShardEngineKind::Greedy => "greedy",
            ShardEngineKind::GreedyPlus => "greedyplus",
        }
    }

    /// Inverse of [`Self::as_str`]; an unknown name is a protocol error.
    pub fn parse(s: &str) -> Result<Self, MqdError> {
        match s {
            "scan" => Ok(ShardEngineKind::Scan),
            "scanplus" => Ok(ShardEngineKind::ScanPlus),
            "greedy" => Ok(ShardEngineKind::Greedy),
            "greedyplus" => Ok(ShardEngineKind::GreedyPlus),
            other => Err(MqdError::protocol(format!(
                "unknown engine '{other}' (want scan|scanplus|greedy|greedyplus)"
            ))),
        }
    }

    /// Stable on-disk tag (checkpoint and subscription files).
    pub fn to_tag(self) -> u8 {
        match self {
            ShardEngineKind::Scan => 0,
            ShardEngineKind::ScanPlus => 1,
            ShardEngineKind::Greedy => 2,
            ShardEngineKind::GreedyPlus => 3,
        }
    }

    /// Inverse of [`Self::to_tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ShardEngineKind::Scan),
            1 => Some(ShardEngineKind::ScanPlus),
            2 => Some(ShardEngineKind::Greedy),
            3 => Some(ShardEngineKind::GreedyPlus),
            _ => None,
        }
    }
}

/// The clamp every sharded entry point applies to a requested shard count:
/// at least one shard, at most one per label.
pub(crate) fn clamp_shards(inst: &Instance, shards: usize) -> usize {
    shards.max(1).min(inst.num_labels().max(1))
}

/// One shard's label-filtered view of the instance.
pub(crate) struct Shard {
    /// Sub-instance over the posts carrying at least one owned label, with
    /// owned labels re-indexed densely.
    pub(crate) inst: Instance,
    /// Sub-instance post index -> global post index.
    pub(crate) to_global: Vec<u32>,
    /// Global post index -> sub-instance post index (or `u32::MAX`).
    pub(crate) to_local: Vec<u32>,
}

/// Splits `inst` into `shards` label-partitioned sub-instances. Shards that
/// own no occurrences still appear (empty) so indices stay aligned.
pub(crate) fn build_shards(inst: &Instance, shards: usize) -> Vec<Shard> {
    // Global label -> (owning shard, dense local label id).
    let num_labels = inst.num_labels();
    let mut local_label = vec![0u16; num_labels];
    let mut shard_labels = vec![0usize; shards];
    for (a, local) in local_label.iter_mut().enumerate() {
        let s = a % shards;
        *local = shard_labels[s] as u16;
        shard_labels[s] += 1;
    }

    let mut posts: Vec<Vec<Post>> = vec![Vec::new(); shards];
    let mut to_global: Vec<Vec<u32>> = vec![Vec::new(); shards];
    let mut to_local: Vec<Vec<u32>> = vec![vec![u32::MAX; inst.len()]; shards];
    for k in 0..inst.len() as u32 {
        let t = inst.value(k);
        // Labels a post carries in each shard (labels are sorted, and
        // `a % shards` preserves relative order within a shard, so each
        // local label list stays sorted).
        let mut per_shard: Vec<Vec<LabelId>> = vec![Vec::new(); shards];
        for &a in inst.labels(k) {
            per_shard[a.index() % shards].push(LabelId(local_label[a.index()]));
        }
        for (s, labels) in per_shard.into_iter().enumerate() {
            if labels.is_empty() {
                continue;
            }
            to_local[s][k as usize] = posts[s].len() as u32;
            to_global[s].push(k);
            posts[s].push(Post::new(PostId(k as u64), t, labels));
        }
    }

    posts
        .into_iter()
        .zip(to_global)
        .zip(to_local)
        .enumerate()
        .map(|(s, ((p, tg), tl))| Shard {
            inst: Instance::from_posts(p, shard_labels[s].max(1))
                // lint:allow(panic-path): shard_labels[s] counts this shard's remapped dense ids, so the bound holds by construction
                .expect("shard labels are dense by construction"),
            to_global: tg,
            to_local: tl,
        })
        .collect()
}

/// Merges per-shard emissions (already mapped to global post indices):
/// dedup posts keeping each post's earliest emission, then order by
/// `(emit_time, post)`.
fn merge_emissions(mut all: Vec<Emission>) -> Vec<Emission> {
    all.sort_unstable_by_key(|e| (e.post, e.emit_time));
    all.dedup_by_key(|e| e.post);
    all.sort_unstable_by_key(|e| (e.emit_time, e.post));
    all
}

fn result_from(
    inst: &Instance,
    kind: ShardEngineKind,
    emissions: Vec<Emission>,
) -> StreamRunResult {
    let mut selected: Vec<u32> = emissions.iter().map(|e| e.post).collect();
    selected.sort_unstable();
    selected.dedup();
    let max_delay = emissions.iter().map(|e| e.delay(inst)).max().unwrap_or(0);
    StreamRunResult {
        algorithm: kind.merged_name(),
        emissions,
        selected,
        max_delay,
    }
}

/// Replays one shard's posts, in timestamp order, through its engine with
/// [`run_stream`]. Returns emissions with **global** post indices.
fn replay_shard(shard: &Shard, kind: ShardEngineKind, lambda: i64, tau: i64) -> Vec<Emission> {
    let mut engine = kind.build(shard.inst.num_labels(), shard.inst.len());
    let mut out = run_stream(&shard.inst, &FixedLambda(lambda), tau, engine.as_mut()).emissions;
    for e in &mut out {
        e.post = shard.to_global[e.post as usize];
    }
    out
}

/// Runs `inst` through `shards` label-partitioned shards one after the
/// other, each owning the labels `a` with `a.index() % shards == s` and
/// running `kind` with uniform threshold `lambda` and delay budget `tau`.
/// The merged result preserves the per-post delay bound `tau`. This is the
/// sequential reference the supervised runners are tested against.
pub fn run_sharded_reference(
    inst: &Instance,
    lambda: i64,
    tau: i64,
    shards: usize,
    kind: ShardEngineKind,
) -> StreamRunResult {
    let shards = clamp_shards(inst, shards);
    let built = build_shards(inst, shards);
    let mut all = Vec::new();
    for shard in &built {
        all.extend(replay_shard(shard, kind, lambda, tau));
    }
    result_from(inst, kind, merge_emissions(all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::run_stream;
    use mqd_core::coverage;

    fn instance(seed: u64, n: usize, labels: usize) -> Instance {
        // Simple deterministic LCG-driven instance, strictly time-sorted.
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
    fn engine_kind_names_and_tags_round_trip() {
        let kinds = [
            ShardEngineKind::Scan,
            ShardEngineKind::ScanPlus,
            ShardEngineKind::Greedy,
            ShardEngineKind::GreedyPlus,
        ];
        for (tag, kind) in kinds.into_iter().enumerate() {
            // Tags are on disk (checkpoints, `subs/` files): pinned values.
            assert_eq!(kind.to_tag() as usize, tag);
            assert_eq!(ShardEngineKind::from_tag(kind.to_tag()), Some(kind));
            assert_eq!(ShardEngineKind::parse(kind.as_str()).unwrap(), kind);
        }
        let names: Vec<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(names, ["scan", "scanplus", "greedy", "greedyplus"]);
        assert_eq!(ShardEngineKind::from_tag(9), None);
        let err = ShardEngineKind::parse("scan+").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown engine 'scan+' (want scan|scanplus|greedy|greedyplus)"),
            "{err}"
        );
    }

    #[test]
    fn single_shard_equals_unsharded_run() {
        let inst = instance(1, 150, 5);
        let (lambda, tau) = (60, 45);
        for (kind, mk) in [
            (ShardEngineKind::Scan, 0),
            (ShardEngineKind::ScanPlus, 1),
            (ShardEngineKind::Greedy, 2),
            (ShardEngineKind::GreedyPlus, 3),
        ] {
            let sharded = run_sharded_reference(&inst, lambda, tau, 1, kind);
            let mut engine: Box<dyn StreamEngine> = match mk {
                0 => Box::new(StreamScan::new(5, inst.len())),
                1 => Box::new(StreamScan::new_plus(5, inst.len())),
                2 => Box::new(StreamGreedy::new(5, inst.len())),
                _ => Box::new(StreamGreedy::new_plus(5, inst.len())),
            };
            let plain = run_stream(&inst, &FixedLambda(lambda), tau, engine.as_mut());
            assert_eq!(sharded.selected, plain.selected, "{kind:?}");
            assert_eq!(sharded.max_delay, plain.max_delay, "{kind:?}");
        }
    }

    #[test]
    fn reference_covers_within_tau_at_any_shard_count() {
        let inst = instance(7, 200, 6);
        let (lambda, tau) = (80, 50);
        let f = FixedLambda(lambda);
        for kind in [
            ShardEngineKind::Scan,
            ShardEngineKind::ScanPlus,
            ShardEngineKind::Greedy,
            ShardEngineKind::GreedyPlus,
        ] {
            for shards in [1usize, 2, 3, 6, 16] {
                let seq = run_sharded_reference(&inst, lambda, tau, shards, kind);
                assert!(
                    coverage::is_cover(&inst, &f, &seq.selected),
                    "{kind:?} shards={shards} non-cover"
                );
                assert!(
                    seq.max_delay <= tau,
                    "{kind:?} shards={shards}: delay {} > tau {tau}",
                    seq.max_delay
                );
            }
        }
    }

    #[test]
    fn delay_bound_holds_at_tau_zero() {
        let inst = instance(3, 120, 4);
        let res = run_sharded_reference(&inst, 50, 0, 4, ShardEngineKind::Scan);
        assert_eq!(res.max_delay, 0);
        assert!(coverage::is_cover(&inst, &FixedLambda(50), &res.selected));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 3).unwrap();
        let res = run_sharded_reference(&inst, 10, 5, 4, ShardEngineKind::ScanPlus);
        assert!(res.selected.is_empty());
        assert_eq!(res.max_delay, 0);
    }

    #[test]
    fn more_shards_than_labels_is_clamped() {
        let inst = instance(9, 60, 2);
        let a = run_sharded_reference(&inst, 40, 30, 64, ShardEngineKind::Greedy);
        let b = run_sharded_reference(&inst, 40, 30, 2, ShardEngineKind::Greedy);
        assert_eq!(a.selected, b.selected);
    }
}
