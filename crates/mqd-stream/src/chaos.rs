//! Deterministic fault injection for the sharded streaming layer.
//!
//! A [`FaultPlan`] is a sorted list of faults, each pinned to a `(shard,
//! seq)` coordinate where `seq` is the per-shard arrival sequence number.
//! Plans are generated from a single `u64` seed via [`mqd_rng::StdRng`], so
//! every failure scenario — which shard panics, and when a shard's output
//! stalls and for how long — is reproducible byte-for-byte from the seed
//! alone. Those are the only two kinds, and each changes what the
//! supervisor does: a panic costs a restart, a stall delays or degrades
//! emissions. Because faults are interpreted shard-side at well-defined
//! sequence points (never by wall clock or thread schedule), the parallel
//! supervised run and its sequential reference produce identical output
//! and identical [`FaultReport`]s for the same seed.

use mqd_core::Instance;
use mqd_rng::{RngExt, SeedableRng, StdRng};

use crate::shard::clamp_shards;

/// One kind of injected failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The shard panics while processing this arrival (caught and restarted
    /// by the supervisor). Fires once: the retry after restart proceeds.
    Panic,
    /// The shard's output stalls: nothing actually leaves the shard
    /// before `arrival_time + duration`. Emissions scheduled earlier are
    /// released late (and flagged).
    Stall {
        /// How long past the arrival's timestamp the stall lasts.
        duration: i64,
    },
}

impl FaultKind {
    /// Stable lowercase name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// A fault pinned to a per-shard arrival sequence point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Which shard fails.
    pub shard: usize,
    /// The 0-based arrival sequence number (within the shard) at which the
    /// fault fires.
    pub seq: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seed-derived set of faults for one supervised run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The generating seed (0 for an empty, hand-built plan).
    pub seed: u64,
    /// Faults sorted by `(shard, seq)`, at most one per coordinate.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// No faults at all: the supervised run degenerates to plain sharding.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from an explicit fault list (sorted and deduplicated
    /// by `(shard, seq)`, first occurrence wins).
    pub fn from_faults(seed: u64, mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| (f.shard, f.seq));
        faults.dedup_by_key(|f| (f.shard, f.seq));
        FaultPlan { seed, faults }
    }

    /// Generates the canonical chaos plan for `inst` split into `shards`
    /// shards with delay budget `tau`, from `seed`. Every shard draws from
    /// its own sub-generator (`seed` mixed with the shard index), so the
    /// plan does not depend on iteration order. The plan always contains at
    /// least one panic and one stall when the stream is non-empty, so a
    /// chaos run exercises both the restart and the stall-rewrite paths.
    pub fn for_instance(inst: &Instance, shards: usize, seed: u64, tau: i64) -> Self {
        let shards = clamp_shards(inst, shards);
        let counts = arrival_counts(inst, shards);
        let max_stall = tau.max(1).saturating_mul(2);
        let mut faults: Vec<Fault> = Vec::new();
        for (s, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ mix_shard(s));
            for seq in 0..n as u64 {
                let roll = rng.random_range(0u32..96);
                let kind = match roll {
                    0 => Some(FaultKind::Panic),
                    1..=3 => Some(FaultKind::Stall {
                        duration: rng.random_range(1..=max_stall),
                    }),
                    _ => None,
                };
                if let Some(kind) = kind {
                    faults.push(Fault {
                        shard: s,
                        seq,
                        kind,
                    });
                }
            }
        }
        // Guarantee coverage of the two tentpole paths on non-empty input.
        let busiest = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &n)| n)
            .filter(|&(_, &n)| n > 0)
            .map(|(s, &n)| (s, n as u64));
        if let Some((s, n)) = busiest {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            if !faults.iter().any(|f| f.kind == FaultKind::Panic) {
                let seq = free_seq(&faults, s, n / 2, n);
                faults.push(Fault {
                    shard: s,
                    seq,
                    kind: FaultKind::Panic,
                });
            }
            if !faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Stall { .. }))
            {
                let seq = free_seq(&faults, s, n / 3, n);
                faults.push(Fault {
                    shard: s,
                    seq,
                    kind: FaultKind::Stall {
                        duration: rng.random_range(1..=max_stall),
                    },
                });
            }
        }
        Self::from_faults(seed, faults)
    }

    /// The faults targeting shard `s`, in seq order.
    pub fn for_shard(&self, s: usize) -> Vec<Fault> {
        self.faults
            .iter()
            .copied()
            .filter(|f| f.shard == s)
            .collect()
    }

    /// Total number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The first seq at or cyclically after `start` (mod `n`) with no fault on
/// shard `s` yet — so a forced fault never collides with (and loses to) an
/// already-drawn one.
fn free_seq(faults: &[Fault], s: usize, start: u64, n: u64) -> u64 {
    (0..n)
        .map(|d| (start + d) % n)
        .find(|&q| !faults.iter().any(|f| f.shard == s && f.seq == q))
        .unwrap_or(start)
}

/// Per-shard arrival counts under the label partition `a % shards` — the
/// coordinate space fault seq numbers live in.
fn arrival_counts(inst: &Instance, shards: usize) -> Vec<usize> {
    let mut counts = vec![0usize; shards];
    let mut owned = vec![false; shards];
    for k in 0..inst.len() as u32 {
        owned.iter_mut().for_each(|o| *o = false);
        for &a in inst.labels(k) {
            owned[a.index() % shards] = true;
        }
        for (s, o) in owned.iter().enumerate() {
            if *o {
                counts[s] += 1;
            }
        }
    }
    counts
}

/// SplitMix-style avalanche of the shard index into the seed domain.
fn mix_shard(s: usize) -> u64 {
    let mut z = (s as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A record of one shard restart performed by the supervisor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RestartRecord {
    /// The restarted shard.
    pub shard: usize,
    /// The arrival sequence number whose processing panicked.
    pub seq: u64,
    /// 1-based attempt count for this shard.
    pub attempt: usize,
}

/// Counters a shard supervisor accumulates while absorbing faults. All of
/// these are deterministic functions of `(instance, plan)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardCounters {
    /// Stall faults applied.
    pub stalls_applied: u64,
    /// Emissions released while the shard ran the degraded (Instant) scheme.
    pub degraded_emissions: u64,
    /// Emissions whose release time was pushed past their schedule by a
    /// stall (flagged, whatever mode the shard was in).
    pub stall_rewrites: u64,
    /// Mode switches (primary -> Instant and back).
    pub mode_switches: u64,
}

impl ShardCounters {
    /// Element-wise sum.
    pub fn add(&mut self, o: &ShardCounters) {
        self.stalls_applied += o.stalls_applied;
        self.degraded_emissions += o.degraded_emissions;
        self.stall_rewrites += o.stall_rewrites;
        self.mode_switches += o.mode_switches;
    }
}

/// The full, deterministic account of a supervised run: every injected
/// fault, every restart, every degraded emission, and the delay invariants
/// that held. Rendered to JSON with [`FaultReport::to_json`]; two runs with
/// the same seed produce byte-identical JSON.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultReport {
    /// The chaos seed the plan was generated from.
    pub seed: u64,
    /// Number of shards in the run.
    pub shards: usize,
    /// The delay budget the unflagged emissions honor.
    pub tau: i64,
    /// Every injected fault, sorted by `(shard, seq)`.
    pub faults: Vec<Fault>,
    /// Every shard restart, in shard-then-time order.
    pub restarts: Vec<RestartRecord>,
    /// Aggregated counters across shards.
    pub counters: ShardCounters,
    /// Number of merged emissions.
    pub emissions: usize,
    /// Largest delay over all emissions (flagged included).
    pub max_delay: i64,
    /// Largest delay over unflagged emissions only.
    pub max_unflagged_delay: i64,
    /// Unflagged emissions with `delay > tau` — must be 0; a non-zero value
    /// means the degradation accounting lost an emission.
    pub tau_violations_unflagged: usize,
}

impl FaultReport {
    /// Deterministic JSON rendering (fixed key order, no whitespace
    /// variance) — byte-identical across runs with the same seed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 64 * self.faults.len());
        s.push('{');
        push_kv_u64(&mut s, "seed", self.seed);
        s.push(',');
        push_kv_u64(&mut s, "shards", self.shards as u64);
        s.push(',');
        push_kv_i64(&mut s, "tau", self.tau);
        s.push_str(",\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_kv_u64(&mut s, "shard", f.shard as u64);
            s.push(',');
            push_kv_u64(&mut s, "seq", f.seq);
            s.push_str(",\"kind\":\"");
            s.push_str(f.kind.name());
            s.push('"');
            if let FaultKind::Stall { duration } = f.kind {
                s.push(',');
                push_kv_i64(&mut s, "duration", duration);
            }
            s.push('}');
        }
        s.push_str("],\"restarts\":[");
        for (i, r) in self.restarts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_kv_u64(&mut s, "shard", r.shard as u64);
            s.push(',');
            push_kv_u64(&mut s, "seq", r.seq);
            s.push(',');
            push_kv_u64(&mut s, "attempt", r.attempt as u64);
            s.push('}');
        }
        s.push_str("],\"counters\":{");
        push_kv_u64(&mut s, "stalls_applied", self.counters.stalls_applied);
        s.push(',');
        push_kv_u64(
            &mut s,
            "degraded_emissions",
            self.counters.degraded_emissions,
        );
        s.push(',');
        push_kv_u64(&mut s, "stall_rewrites", self.counters.stall_rewrites);
        s.push(',');
        push_kv_u64(&mut s, "mode_switches", self.counters.mode_switches);
        s.push_str("},");
        push_kv_u64(&mut s, "emissions", self.emissions as u64);
        s.push(',');
        push_kv_i64(&mut s, "max_delay", self.max_delay);
        s.push(',');
        push_kv_i64(&mut s, "max_unflagged_delay", self.max_unflagged_delay);
        s.push(',');
        push_kv_u64(
            &mut s,
            "tau_violations_unflagged",
            self.tau_violations_unflagged as u64,
        );
        s.push('}');
        s
    }
}

fn push_kv_u64(s: &mut String, k: &str, v: u64) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

fn push_kv_i64(s: &mut String, k: &str, v: i64) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        let items: Vec<(i64, Vec<u16>)> = (0..60)
            .map(|i| (i as i64 * 5, vec![(i % 4) as u16]))
            .collect();
        Instance::from_values(items, 4).unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let inst = instance();
        let a = FaultPlan::for_instance(&inst, 4, 42, 50);
        let b = FaultPlan::for_instance(&inst, 4, 42, 50);
        assert_eq!(a.faults, b.faults);
        assert!(a
            .faults
            .windows(2)
            .all(|w| (w[0].shard, w[0].seq) < (w[1].shard, w[1].seq)));
        let c = FaultPlan::for_instance(&inst, 4, 43, 50);
        assert_ne!(a.faults, c.faults, "different seeds give different plans");
    }

    #[test]
    fn plan_always_has_a_panic_and_a_stall() {
        let inst = instance();
        for seed in 0..20u64 {
            let plan = FaultPlan::for_instance(&inst, 4, seed, 50);
            assert!(
                plan.faults.iter().any(|f| f.kind == FaultKind::Panic),
                "seed {seed}"
            );
            assert!(
                plan.faults
                    .iter()
                    .any(|f| matches!(f.kind, FaultKind::Stall { .. })),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_instance_gets_empty_plan() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 3).unwrap();
        let plan = FaultPlan::for_instance(&inst, 3, 7, 10);
        assert!(plan.is_empty());
    }

    #[test]
    fn report_json_is_stable() {
        let report = FaultReport {
            seed: 9,
            shards: 2,
            tau: 30,
            faults: vec![
                Fault {
                    shard: 0,
                    seq: 3,
                    kind: FaultKind::Panic,
                },
                Fault {
                    shard: 1,
                    seq: 5,
                    kind: FaultKind::Stall { duration: 12 },
                },
            ],
            restarts: vec![RestartRecord {
                shard: 0,
                seq: 3,
                attempt: 1,
            }],
            counters: ShardCounters {
                stalls_applied: 1,
                ..Default::default()
            },
            emissions: 7,
            max_delay: 42,
            max_unflagged_delay: 30,
            tau_violations_unflagged: 0,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"seed":9,"shards":2,"tau":30,"#,
                r#""faults":[{"shard":0,"seq":3,"kind":"panic"},"#,
                r#"{"shard":1,"seq":5,"kind":"stall","duration":12}],"#,
                r#""restarts":[{"shard":0,"seq":3,"attempt":1}],"#,
                r#""counters":{"stalls_applied":1,"degraded_emissions":0,"#,
                r#""stall_rewrites":0,"mode_switches":0},"#,
                r#""emissions":7,"max_delay":42,"max_unflagged_delay":30,"#,
                r#""tau_violations_unflagged":0}"#,
            )
        );
    }
}
