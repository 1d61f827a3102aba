//! The seeded plan generator: corpus, spec pools, and each workload's
//! open-loop schedule. Everything the system under test sees is bytes made
//! here from `--seed`; the same seed gives the same bytes (pinned by the
//! plan digest), a different seed different ones.
//!
//! Rates and sizes are constants, not auto-tuned: they were sized on the
//! 2-vCPU reference host so that servers plus generator stay under half of
//! one vCPU (see README "Load model"). The one free parameter is the timed
//! phase's length; every count below scales with it.

use std::collections::HashSet;
use std::ops::Range;

use crate::layers;

/// Corpus shape: the paper's Table 2 rate at |L| = 20 (≈20 posts/s).
pub const CORPUS_ROWS: usize = 200_000;
/// The labels of the corpus.
const ALL_LABELS: [u16; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
/// Gaps between posts are uniform in `0..=MAX_GAP_MS`.
const MAX_GAP_MS: u64 = 100;
/// Rows per set-up `INGESTB`.
pub const PRELOAD_BATCH: usize = 4096;
/// `CoverCache`'s capacity; `cold-solve` fills it in set-up so that every
/// timed insert evicts.
pub const CACHE_CAPACITY: usize = 1024;
/// Shards of the `routed-mix` cluster.
pub const SHARDS: u32 = 2;

const HOT_POOL: usize = 256;
const HOT_QPS: f64 = 400.0;
const COLD_QPS: f64 = 80.0;
const TAIL_POOL: usize = 64;
const TAIL_NON_REPAIRABLE: usize = 4;
const TAIL_QPS: f64 = 100.0;
const TAIL_BATCHES_PER_S: f64 = 40.0;
/// 40 batches/s × 16 rows × 15 s = 9600 tail rows: at least two 4096-row
/// segment seals inside the timed phase.
const TAIL_BATCH_ROWS: usize = 16;
const ROUTED_OPS_PER_S: f64 = 100.0;
const ROUTED_BATCH_ROWS: usize = 4;
/// Base thresholds in ms. With ≈3.3 posts/s per label they give covers of
/// roughly 500/250/83/42 rows per label on a 10 % window.
const LAMBDAS_MS: [i64; 4] = [1_000, 2_000, 6_000, 12_000];
const ALG_MIX: [Alg; 4] = [Alg::Scan, Alg::Scan, Alg::ScanPlus, Alg::GreedySc];
/// Queries carry 1 to this many labels.
const MAX_QUERY_LABELS: usize = 5;
/// Cells of the label count × λ × algorithm grid.
const GRID: usize = MAX_QUERY_LABELS * LAMBDAS_MS.len() * ALG_MIX.len();

/// The `i`-th cell of the grid: `(label count, λ, algorithm)`. Workloads
/// [`Rng::walk`] the grid instead of drawing from it; the seed picks which
/// labels, which window, and when.
fn cell(i: usize) -> (usize, i64, Alg) {
    let (labels, rest) = (i % MAX_QUERY_LABELS, i / MAX_QUERY_LABELS);
    (
        1 + labels,
        LAMBDAS_MS[rest % LAMBDAS_MS.len()],
        ALG_MIX[rest / LAMBDAS_MS.len() % ALG_MIX.len()],
    )
}

/// SplitMix64: small, seedable, and the benchmark's own.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything a
    /// workload mix could show).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// `0..n` in a random order.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }

    /// `count` cells of a grid of `cells`: whole random permutations of
    /// `0..cells`, one after another. Every stretch of `cells` ops visits
    /// each cell once, so a workload's mix of cover sizes and solver costs
    /// — which every timing here depends on — is the same for every seed
    /// and for every second of a run. Only the order is the seed's.
    fn walk(&mut self, cells: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count + cells);
        while out.len() < count {
            out.extend(self.permutation(cells));
        }
        out.truncate(count);
        out
    }

    /// `k` distinct values of `from`, ascending.
    fn subset(&mut self, from: &[u16], k: usize) -> Vec<u16> {
        let mut pool = from.to_vec();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k.min(pool.len()) {
            out.push(pool.swap_remove(self.below(pool.len() as u64) as usize));
        }
        out.sort_unstable();
        out
    }
}

/// One post row, in the benchmark's own type (converted to the program's
/// `Record` only inside `layers.rs`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Row {
    pub id: u64,
    pub value: i64,
    pub labels: Vec<u16>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Alg {
    Scan,
    ScanPlus,
    GreedySc,
}

impl Alg {
    pub fn wire(self) -> &'static str {
        match self {
            Alg::Scan => "scan",
            Alg::ScanPlus => "scanplus",
            Alg::GreedySc => "greedysc",
        }
    }
}

/// One query, in the benchmark's own type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Spec {
    pub labels: Vec<u16>,
    pub lambda: i64,
    pub prop: bool,
    pub alg: Alg,
    pub from: Option<i64>,
    pub to: Option<i64>,
}

impl Spec {
    /// The request line, without the newline.
    pub fn line(&self) -> String {
        let labels: Vec<String> = self.labels.iter().map(u16::to_string).collect();
        let mut s = format!(
            "QUERY {} {} {}",
            labels.join(","),
            self.lambda,
            self.alg.wire()
        );
        if let Some(v) = self.from {
            s.push_str(&format!(" FROM {v}"));
        }
        if let Some(v) = self.to {
            s.push_str(&format!(" TO {v}"));
        }
        if self.prop {
            s.push_str(" PROP");
        }
        s
    }

    /// Fixed-λ Scan: the only family the cache repairs in place, the only
    /// one the router answers by `COVER` union, and — with every fixed-λ
    /// spec — the family the independent cover checker applies to.
    pub fn repairable(&self) -> bool {
        self.alg == Alg::Scan && !self.prop
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotRead,
    ColdSolve,
    IngestRepair,
    RoutedMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::ColdSolve,
        Workload::IngestRepair,
        Workload::RoutedMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdSolve => "cold-solve",
            Workload::IngestRepair => "ingest-repair",
            Workload::RoutedMix => "routed-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How the router must answer a `routed-mix` query, fixed by the labels
/// and algorithm the plan chose.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// All labels on one shard: forwarded verbatim.
    Forward,
    /// Multi-shard fixed-λ Scan: per-shard `COVER` halves, unioned.
    Cover,
    /// Multi-shard Scan+/GreedySC: per-shard `SLICE`, merged, re-solved.
    Gather,
}

/// Planned shares of the three tiers among `routed-mix` queries.
pub const TIER_SHARES: [(Tier, f64); 3] = [
    (Tier::Forward, 0.40),
    (Tier::Cover, 0.30),
    (Tier::Gather, 0.30),
];

/// One cycle of queries realising [`TIER_SHARES`] exactly.
const TIER_PATTERN: [Tier; 10] = [
    Tier::Forward,
    Tier::Cover,
    Tier::Gather,
    Tier::Forward,
    Tier::Cover,
    Tier::Gather,
    Tier::Forward,
    Tier::Cover,
    Tier::Gather,
    Tier::Forward,
];

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Index into [`Plan::specs`].
    Query(usize),
    /// Range of [`Plan::tail`].
    Ingest(Range<usize>),
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    /// Scheduled send, µs after the timed phase starts.
    pub at_us: u64,
    /// Connection the op is pinned to. All ingest is on connection 0.
    pub conn: usize,
    pub kind: OpKind,
}

/// One workload's complete, seeded input.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub duration_us: u64,
    /// Preloaded in set-up, in order.
    pub corpus: Vec<Row>,
    /// Every spec the plan mentions; ops and `warm` index into it.
    pub specs: Vec<Spec>,
    /// Specs issued once in set-up, in order.
    pub warm: Vec<usize>,
    /// Rows the timed ingest ops append, in order (timestamps continue
    /// the corpus).
    pub tail: Vec<Row>,
    pub ops: Vec<Op>,
    /// FNV-1a over everything above that reaches the wire.
    pub digest: u64,
}

impl Plan {
    /// Builds the plan. `corpus_rows` is [`CORPUS_ROWS`] except under
    /// `--quick`.
    pub fn build(workload: Workload, seed: u64, seconds: u64, corpus_rows: usize) -> Plan {
        let mut rng = Rng(seed);
        let mut gen = RowGen {
            next_id: 1,
            clock_ms: 0,
        };
        let corpus: Vec<Row> = (0..corpus_rows).map(|_| gen.next(&mut rng)).collect();
        let mut plan = Plan {
            workload,
            seed,
            duration_us: seconds * 1_000_000,
            corpus,
            specs: Vec::new(),
            warm: Vec::new(),
            tail: Vec::new(),
            ops: Vec::new(),
            digest: 0,
        };
        // A second stream for the workload, so every workload of one seed
        // shares the corpus bytes.
        let mut rng = Rng(seed ^ 0x6d71_6462_656e_6368 ^ workload as u64);
        match workload {
            Workload::HotRead => plan.hot_read(&mut rng),
            Workload::ColdSolve => plan.cold_solve(&mut rng),
            Workload::IngestRepair => plan.ingest_repair(&mut rng, &mut gen),
            Workload::RoutedMix => plan.routed_mix(&mut rng, &mut gen),
        }
        plan.ops.sort_by_key(|op| (op.at_us, op.conn));
        plan.digest = plan.compute_digest();
        plan
    }

    fn span(&self) -> (i64, i64) {
        let first = self.corpus.first().map_or(0, |r| r.value);
        let last = self.corpus.last().map_or(0, |r| r.value);
        (first, last.max(first + 1))
    }

    /// A closed window of `share` of the corpus span at a random offset.
    fn window(&self, rng: &mut Rng, share: f64) -> (i64, i64) {
        let (first, last) = self.span();
        let width = (((last - first) as f64 * share) as i64).max(1);
        let from = first + rng.below((last - first - width).max(1) as u64) as i64;
        (from, from + width)
    }

    /// Jittered-uniform arrivals at `rate` per second: each gap is uniform
    /// in 0.5–1.5 of the mean, so the schedule neither bunches like Poisson
    /// (which would measure the generator's luck) nor locks into phase.
    fn arrivals(&self, rng: &mut Rng, rate: f64) -> Vec<u64> {
        let mean = 1e6 / rate;
        let mut at = mean * rng.unit();
        let mut out = Vec::new();
        while (at as u64) < self.duration_us {
            out.push(at as u64);
            at += mean * (0.5 + rng.unit());
        }
        out
    }

    fn push_spec(&mut self, spec: Spec) -> usize {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// An `INGESTB` of the next `rows` tail rows at `at_us`, on connection 0
    /// like all ingest.
    fn push_ingest(&mut self, at_us: u64, rows: usize, rng: &mut Rng, gen: &mut RowGen) {
        let start = self.tail.len();
        self.tail.extend((0..rows).map(|_| gen.next(rng)));
        self.ops.push(Op {
            at_us,
            conn: 0,
            kind: OpKind::Ingest(start..self.tail.len()),
        });
    }

    fn hot_read(&mut self, rng: &mut Rng) {
        // Distinct cache keys by their window offsets alone.
        for i in 0..HOT_POOL {
            let (k, lambda, alg) = cell(i);
            let (from, to) = self.window(rng, 0.10);
            self.specs.push(Spec {
                labels: rng.subset(&ALL_LABELS, k),
                lambda,
                prop: false,
                alg,
                from: Some(from),
                to: Some(to),
            });
        }
        self.warm = (0..HOT_POOL).collect();
        let arrivals = self.arrivals(rng, HOT_QPS);
        let order = rng.walk(HOT_POOL, arrivals.len());
        for (i, at_us) in arrivals.into_iter().enumerate() {
            self.ops.push(Op {
                at_us,
                conn: i % 2,
                kind: OpKind::Query(order[i]),
            });
        }
    }

    fn cold_solve(&mut self, rng: &mut Rng) {
        // Filler that brings the cache to capacity before the clock starts:
        // one label, a 0.02 % window — cheap to solve, never asked again.
        for _ in 0..CACHE_CAPACITY {
            let (from, to) = self.window(rng, 0.0002);
            let spec = Spec {
                labels: vec![rng.pick(&ALL_LABELS)],
                lambda: LAMBDAS_MS[0],
                prop: false,
                alg: Alg::Scan,
                from: Some(from),
                to: Some(to),
            };
            let idx = self.push_spec(spec);
            self.warm.push(idx);
        }
        const SHARES: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];
        let arrivals = self.arrivals(rng, COLD_QPS);
        let order = rng.walk(GRID * SHARES.len(), arrivals.len());
        for (i, at_us) in arrivals.into_iter().enumerate() {
            let (k, base, alg) = cell(order[i] % GRID);
            let share = SHARES[order[i] / GRID];
            let (from, to) = self.window(rng, share);
            let spec = Spec {
                labels: rng.subset(&ALL_LABELS, k),
                // The jitter (and the offset) make every spec a distinct
                // cache key.
                lambda: (base as f64 * (0.75 + 0.5 * rng.unit())) as i64,
                prop: false,
                alg,
                from: Some(from),
                to: Some(to),
            };
            let idx = self.push_spec(spec);
            self.ops.push(Op {
                at_us,
                conn: i % 2,
                kind: OpKind::Query(idx),
            });
        }
    }

    fn ingest_repair(&mut self, rng: &mut Rng, gen: &mut RowGen) {
        let (first, last) = self.span();
        // Open-ended tail specs: every appended row is in range.
        let from = Some(last - (last - first) / 50);
        // All share one window, so a label set may come up twice for a cell:
        // draw again until the spec is a new cache key.
        let mut seen = HashSet::new();
        while self.specs.len() < TAIL_POOL - TAIL_NON_REPAIRABLE {
            let (k, lambda, _) = cell(self.specs.len());
            let spec = Spec {
                labels: rng.subset(&ALL_LABELS, k),
                lambda,
                prop: false,
                alg: Alg::Scan,
                from,
                to: None,
            };
            if seen.insert(spec.clone()) {
                self.specs.push(spec);
            }
        }
        // The four the cache cannot repair: an in-footprint append dirties
        // them, they are served stale and re-solved in the background. Two
        // labels each: every batch re-solves all four, and with five labels
        // that alone kept the server at 70 % of a CPU.
        for (alg, prop) in [
            (Alg::ScanPlus, false),
            (Alg::GreedySc, false),
            (Alg::Scan, true),
            (Alg::ScanPlus, true),
        ] {
            self.specs.push(Spec {
                labels: rng.subset(&ALL_LABELS, 2),
                lambda: LAMBDAS_MS[2],
                prop,
                alg,
                from,
                to: None,
            });
        }
        self.warm = (0..TAIL_POOL).collect();
        for at_us in self.arrivals(rng, TAIL_BATCHES_PER_S) {
            self.push_ingest(at_us, TAIL_BATCH_ROWS, rng, gen);
        }
        let arrivals = self.arrivals(rng, TAIL_QPS);
        let order = rng.walk(TAIL_POOL, arrivals.len());
        for (i, at_us) in arrivals.into_iter().enumerate() {
            self.ops.push(Op {
                at_us,
                conn: 1,
                kind: OpKind::Query(order[i]),
            });
        }
    }

    fn routed_mix(&mut self, rng: &mut Rng, gen: &mut RowGen) {
        let by_shard: Vec<Vec<u16>> = (0..SHARDS)
            .map(|s| {
                let owned = ALL_LABELS.iter().copied();
                owned.filter(|&l| layers::shard_of(l) == s).collect()
            })
            .collect();
        let arrivals = self.arrivals(rng, ROUTED_OPS_PER_S);
        // Each tier walks its own grid: label count × λ (× algorithm).
        let walks: Vec<Vec<usize>> = [3 * 4 * 4, 4 * 4, 4 * 4 * 2]
            .iter()
            .map(|&n| rng.walk(n, arrivals.len()))
            .collect();
        let mut queries = 0usize;
        for (i, at_us) in arrivals.into_iter().enumerate() {
            // Every fifth op is ingest; queries cycle through the tier
            // pattern. Shares are exact by construction, not by luck.
            if i % 5 == 4 {
                self.push_ingest(at_us, ROUTED_BATCH_ROWS, rng, gen);
                continue;
            }
            let tier = TIER_PATTERN[queries % TIER_PATTERN.len()];
            let nth = queries / TIER_PATTERN.len();
            queries += 1;
            let c = walks[tier as usize][nth];
            let (labels, lambda, alg) = match tier {
                // 3 label counts × 4 λ × 4 algorithm slots.
                Tier::Forward => {
                    let home = &by_shard[rng.below(by_shard.len() as u64) as usize];
                    (
                        rng.subset(home, 1 + c % 3),
                        LAMBDAS_MS[c / 3 % 4],
                        ALG_MIX[c / 12],
                    )
                }
                // One label from every shard, then up to three more from
                // anywhere: multi-shard by construction. 4 label counts × 4 λ
                // (× 2 algorithms for the gather tier).
                Tier::Cover | Tier::Gather => {
                    let mut labels: Vec<u16> = by_shard.iter().map(|s| rng.pick(s)).collect();
                    let rest: Vec<u16> = ALL_LABELS
                        .iter()
                        .copied()
                        .filter(|l| !labels.contains(l))
                        .collect();
                    labels.extend(rng.subset(&rest, c % 4));
                    labels.sort_unstable();
                    let alg = match tier {
                        Tier::Cover => Alg::Scan,
                        _ => [Alg::ScanPlus, Alg::GreedySc][c / 16],
                    };
                    (labels, LAMBDAS_MS[c / 4 % 4], alg)
                }
            };
            // Closed windows inside the preloaded corpus: tail ingest never
            // lands in them, so every answer is independent of how queries
            // and ingest interleave at the router.
            let (from, to) = self.window(rng, 0.01);
            let idx = self.push_spec(Spec {
                labels,
                lambda,
                prop: false,
                alg,
                from: Some(from),
                to: Some(to),
            });
            self.ops.push(Op {
                at_us,
                conn: queries % 2,
                kind: OpKind::Query(idx),
            });
        }
    }

    /// Tier of a `routed-mix` query, re-derived from the program's own
    /// label→shard map rather than remembered from generation.
    pub fn tier_of(spec: &Spec) -> Tier {
        let mut shards: Vec<u32> = spec.labels.iter().map(|&l| layers::shard_of(l)).collect();
        shards.sort_unstable();
        shards.dedup();
        if shards.len() <= 1 {
            Tier::Forward
        } else if spec.repairable() {
            Tier::Cover
        } else {
            Tier::Gather
        }
    }

    /// The wire bytes of one op.
    pub fn op_bytes(&self, op: &Op) -> Vec<u8> {
        match &op.kind {
            OpKind::Query(i) => format!("{}\n", self.specs[*i].line()).into_bytes(),
            OpKind::Ingest(range) => ingest_bytes(&self.tail[range.clone()]),
        }
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for chunk in self.corpus.chunks(PRELOAD_BATCH) {
            h.write(&layers::encode_batch(chunk));
        }
        for &i in &self.warm {
            h.write(self.specs[i].line().as_bytes());
        }
        for op in &self.ops {
            h.write(&op.at_us.to_le_bytes());
            h.write(&[op.conn as u8]);
            h.write(&self.op_bytes(op));
        }
        h.0
    }
}

/// The `INGESTB` request for `rows`.
pub fn ingest_bytes(rows: &[Row]) -> Vec<u8> {
    ingestb_request(&layers::encode_batch(rows))
}

/// `INGESTB <n>\n<body>`.
pub fn ingestb_request(body: &[u8]) -> Vec<u8> {
    let mut out = format!("INGESTB {}\n", body.len()).into_bytes();
    out.extend_from_slice(body);
    out
}

struct RowGen {
    next_id: u64,
    clock_ms: i64,
}

impl RowGen {
    fn next(&mut self, rng: &mut Rng) -> Row {
        self.clock_ms += rng.below(MAX_GAP_MS + 1) as i64;
        let k = 1 + rng.below(3) as usize;
        let row = Row {
            id: self.next_id,
            value: self.clock_ms,
            labels: rng.subset(&ALL_LABELS, k),
        };
        self.next_id += 1;
        row
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: usize = 8_000;

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7, 2, SMALL);
            let b = Plan::build(w, 7, 2, SMALL);
            let c = Plan::build(w, 8, 2, SMALL);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.ops, b.ops);
            assert_ne!(a.digest, c.digest, "{}", w.name());
        }
        // Workloads of one seed share the corpus, not the schedule.
        let hot = Plan::build(Workload::HotRead, 7, 2, SMALL);
        let cold = Plan::build(Workload::ColdSolve, 7, 2, SMALL);
        assert_eq!(hot.corpus, cold.corpus);
        assert_ne!(hot.digest, cold.digest);
    }

    #[test]
    fn plans_keep_the_streaming_contract() {
        for w in Workload::ALL {
            let p = Plan::build(w, 3, 2, SMALL);
            // Timestamps are monotone across corpus and tail, and all
            // ingest rides connection 0 in order.
            let mut last = i64::MIN;
            for r in p.corpus.iter().chain(&p.tail) {
                assert!(r.value >= last && !r.labels.is_empty() && r.labels.len() <= 3);
                last = r.value;
            }
            let mut next_row = 0;
            let mut last_at = 0;
            for op in &p.ops {
                assert!(op.at_us >= last_at && op.at_us < p.duration_us);
                last_at = op.at_us;
                if let OpKind::Ingest(range) = &op.kind {
                    assert_eq!((op.conn, range.start), (0, next_row));
                    next_row = range.end;
                }
            }
            assert_eq!(next_row, p.tail.len());
        }
    }

    #[test]
    fn workloads_have_the_shape_their_names_promise() {
        let hot = Plan::build(Workload::HotRead, 1, 2, SMALL);
        assert_eq!((hot.specs.len(), hot.warm.len()), (HOT_POOL, HOT_POOL));
        assert!(hot.specs.len() <= CACHE_CAPACITY);

        let cold = Plan::build(Workload::ColdSolve, 1, 2, SMALL);
        let lines: HashSet<String> = cold.specs.iter().map(Spec::line).collect();
        assert_eq!(
            lines.len(),
            cold.specs.len(),
            "every cold spec is a distinct cache key"
        );
        assert_eq!(cold.warm.len(), CACHE_CAPACITY);

        let tail = Plan::build(Workload::IngestRepair, 1, 15, SMALL);
        assert_eq!(tail.specs.iter().filter(|s| s.repairable()).count(), 60);
        assert!(tail.specs.iter().all(|s| s.to.is_none()));
        // Any run of 2 × segment rows crosses two segment boundaries,
        // wherever the corpus left off.
        assert!(
            tail.tail.len() as u64 >= 2 * layers::SEGMENT_ROWS,
            "{}",
            tail.tail.len()
        );

        let routed = Plan::build(Workload::RoutedMix, 1, 10, SMALL);
        let queries: Vec<&Spec> = routed
            .ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Query(i) => Some(&routed.specs[i]),
                OpKind::Ingest(_) => None,
            })
            .collect();
        let share = queries.len() as f64 / routed.ops.len() as f64;
        assert!((share - 0.80).abs() < 0.01, "query share {share}");
        for (tier, want) in TIER_SHARES {
            let got = queries.iter().filter(|s| Plan::tier_of(s) == tier).count() as f64
                / queries.len() as f64;
            assert!((got - want).abs() < 0.01, "{tier:?}: {got} vs {want}");
        }
    }
}
