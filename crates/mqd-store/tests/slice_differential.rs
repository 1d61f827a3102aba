//! Seeded differentials: `Store::slice` against a reference that reads the
//! canonical mapping documented on `Slice` literally (scan every row,
//! range-filter, intersect, sort by `(value, id)`), its merge-built
//! `Instance` against `Instance::from_posts`, and the fixed-λ
//! Scan/Scan+ postings walk against the solvers run on that slice.

use std::sync::RwLock;

use mqd_core::algorithms::{solve_scan, solve_scan_cover, solve_scan_plus, LabelOrder};
use mqd_core::record::Record;
use mqd_core::{FixedLambda, Instance, LabelId, Post, PostId};
use mqd_store::{answer_cold, run_query_cover, Algorithm, QuerySpec, Store};

/// Labels 0..UNIVERSE occur in the corpus; more of them than a `Post`
/// stores inline, so a query over all of them spills.
const UNIVERSE: u16 = 16;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A draw across all of `u64`: the generator's whole state.
    fn word(&mut self) -> u64 {
        self.next();
        self.0
    }
}

/// How a corpus draws its ids.
#[derive(Clone, Copy, Debug)]
enum Ids {
    /// Below 10 007: a few bits per row once a segment is packed.
    Narrow,
    /// Across all of `u64`, 0 and `u64::MAX` included: a segment's ids
    /// span (nearly) 64 bits.
    Wide,
}

/// A monotone corpus: a few rows at `i64::MIN`, a body with long runs of
/// tied values, a few rows at `i64::MAX`. Ids are unique but unrelated to
/// arrival order, so tied rows arrive out of id order. `Ids::Wide` also
/// holds a run of 150 identical values, which fills whole segments of the
/// targets below it (a values column of width 0). Labels are sorted and
/// deduplicated, as the store keeps them.
fn corpus(seed: u64, n: usize, ids: Ids) -> Vec<Record> {
    let mut rng = Lcg(seed);
    let mut value = -50i64;
    (0..n)
        .map(|i| {
            let value = if i < 3 {
                i64::MIN
            } else if i + 3 >= n {
                i64::MAX
            } else if matches!(ids, Ids::Wide) && (100..250).contains(&i) {
                value
            } else {
                // Two steps in three are zero: runs of ties longer than the
                // small segment targets, so they straddle boundaries.
                value += [0, 0, 1 + rng.below(9) as i64][rng.below(3) as usize];
                value
            };
            // One row in eight carries nearly every label.
            let mut labels: Vec<u16> = if rng.below(8) == 0 {
                let skip = rng.below(UNIVERSE as u64) as u16;
                (0..UNIVERSE).filter(|&l| l != skip).collect()
            } else {
                (0..1 + rng.below(3))
                    .map(|_| rng.below(UNIVERSE as u64) as u16)
                    .collect()
            };
            labels.sort_unstable();
            labels.dedup();
            let id = match (ids, i) {
                (Ids::Narrow, _) => (i as u64 * 7919) % 10_007,
                (Ids::Wide, 5) => 0,
                (Ids::Wide, 6) => u64::MAX,
                (Ids::Wide, _) => rng.word(),
            };
            Record { id, value, labels }
        })
        .collect()
}

fn reference(rows: &[Record], labels: &[u16], from: i64, to: i64) -> (Vec<Post>, Vec<u16>) {
    let mut label_map = labels.to_vec();
    label_map.sort_unstable();
    label_map.dedup();
    let mut joined: Vec<&Record> = rows
        .iter()
        .filter(|r| from <= r.value && r.value <= to)
        .filter(|r| r.labels.iter().any(|l| label_map.contains(l)))
        .collect();
    joined.sort_by_key(|r| (r.value, r.id));
    let posts = joined
        .iter()
        .map(|r| {
            let locals = label_map
                .iter()
                .enumerate()
                .filter(|(_, g)| r.labels.contains(g))
                .map(|(local, _)| LabelId(local as u16))
                .collect();
            Post::new(PostId(r.id), r.value, locals)
        })
        .collect();
    (posts, label_map)
}

/// Query labels as a client might send them: unsorted, repeated, some the
/// store never saw.
fn query_labels(rng: &mut Lcg) -> Vec<u16> {
    let count = match rng.below(4) {
        0 => 1,
        _ => 2 + rng.below(5),
    };
    let mut labels: Vec<u16> = (0..count)
        .map(|_| match rng.below(10) {
            0 => 900 + rng.below(3) as u16,
            _ => rng.below(UNIVERSE as u64) as u16,
        })
        .collect();
    if rng.below(4) == 0 {
        // Every stored label, descending, after the random ones.
        labels.extend((0..UNIVERSE).rev());
    }
    labels
}

/// The corpus shapes, `(seed, segment target, ids)`: segment targets 1 to
/// 4096, so tie runs straddle segment boundaries, over narrow and
/// full-`u64` ids.
const SHAPES: [(u64, usize, Ids); 11] = [
    (1, 1, Ids::Narrow),
    (2, 2, Ids::Narrow),
    (3, 3, Ids::Narrow),
    (4, 4096, Ids::Narrow),
    (5, 3, Ids::Narrow),
    (6, 2, Ids::Narrow),
    (7, 7, Ids::Narrow),
    (8, 64, Ids::Narrow),
    (9, 7, Ids::Wide),
    (10, 64, Ids::Wide),
    (11, 2, Ids::Wide),
];

fn store_of(rows: &[Record], target: usize) -> Store {
    let mut store = Store::with_segment_target(target);
    for r in rows {
        store.append(r.clone()).unwrap();
    }
    store
}

/// A range bound: drawn from stored values, it lands on ties; the
/// extremes and values between stored ones are mixed in.
fn bound(rng: &mut Lcg, rows: &[Record]) -> i64 {
    match rng.below(8) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => rng.below(900) as i64 - 60,
        _ => rows[rng.below(rows.len() as u64) as usize].value,
    }
}

#[test]
fn slice_matches_a_naive_reference() {
    for (seed, target, ids) in SHAPES {
        let rows = corpus(seed, 400, ids);
        let store = store_of(&rows, target);
        let mut rng = Lcg(seed ^ 0xC01D);
        let bound = |rng: &mut Lcg| bound(rng, &rows);
        let mut spilled = 0;
        let mut reordered = 0;
        for case in 0..300 {
            let labels = query_labels(&mut rng);
            let (from, to) = (bound(&mut rng), bound(&mut rng));
            let slice = store.slice(&labels, from, to);
            let (posts, label_map) = reference(&rows, &labels, from, to);
            let what = format!(
                "seed {seed} target {target} {ids:?} case {case}: {labels:?} [{from}, {to}]"
            );
            assert_eq!(slice.label_map, label_map, "{what}");
            assert_eq!(slice.instance.posts(), &posts[..], "{what}");
            assert_eq!(slice.instance.num_labels(), label_map.len(), "{what}");
            if from > to {
                assert!(slice.instance.is_empty(), "{what}");
            }
            spilled += posts.iter().filter(|p| p.labels().len() > 11).count();
            reordered += posts.windows(2).filter(|w| w[0].id() > w[1].id()).count();
        }
        // The cases the sweep exists for did occur.
        assert!(spilled > 0, "seed {seed}: no post past the inline capacity");
        assert!(
            reordered > 0,
            "seed {seed}: no tie run out of arrival order"
        );
    }
}

/// `Store::slice` indexes the rows as its merge yields them
/// (`InstanceBuilder`); the result must be the instance
/// `Instance::from_posts` indexes from the same posts (its sort leaves
/// posts merged in instance order as they are): postings, every pair id,
/// and the coverage windows at several radii. A tie run
/// that arrives out of id order takes the builder's fallback, which sorts
/// and indexes again; the sweep must meet one that crosses a segment
/// boundary.
#[test]
fn merged_slice_indexes_like_from_posts() {
    for (seed, target, ids) in SHAPES {
        let rows = corpus(seed, 400, ids);
        let store = store_of(&rows, target);
        let mut rng = Lcg(seed ^ 0x1DE8);
        let mut crossing = 0;
        for case in 0..300 {
            let labels = query_labels(&mut rng);
            let (from, to) = (bound(&mut rng, &rows), bound(&mut rng, &rows));
            let slice = store.slice(&labels, from, to);
            let merged = &slice.instance;
            let n = slice.label_map.len();
            let indexed = Instance::from_posts(merged.posts().to_vec(), n).unwrap();
            let what = format!(
                "seed {seed} target {target} {ids:?} case {case}: {labels:?} [{from}, {to}]"
            );
            let key = |p: &Post| (p.value(), p.id());
            assert!(merged.posts().is_sorted_by_key(key), "{what}: order");
            assert_eq!(merged.posts(), indexed.posts(), "{what}");
            assert_eq!(merged.num_labels(), n, "{what}");
            assert_eq!(merged.num_pairs(), indexed.num_pairs(), "{what}");
            let s = merged.max_labels_per_post();
            assert_eq!(s, indexed.max_labels_per_post(), "{what}");
            // Both sides index through the same code, so the postings and
            // pair ids are also read off the posts here: `LP(a)` lists the
            // posts carrying `a`, and pair ids count occurrences in order.
            for a in (0..n as u16).map(LabelId) {
                let carrying = (0..merged.len() as u32).filter(|&p| merged.post(p).has_label(a));
                let lp: Vec<u32> = carrying.collect();
                assert_eq!(merged.postings(a), lp, "{what}: LP({a})");
                assert_eq!(merged.postings(a), indexed.postings(a), "{what}: LP({a})");
            }
            let mut pairs = 0u32;
            for post in 0..merged.len() as u32 {
                let range = merged.pair_range(post);
                assert_eq!(range, indexed.pair_range(post), "{what}: post {post}");
                for (slot, &a) in merged.labels(post).iter().enumerate() {
                    assert_eq!(merged.pair_id(post, a), Some(pairs), "{what}: slot {slot}");
                    pairs += 1;
                }
                for a in (0..n as u16).map(LabelId) {
                    let pair = merged.pair_id(post, a);
                    assert_eq!(pair, indexed.pair_id(post, a), "{what}: ({post}, {a})");
                }
                assert_eq!(range.end, pairs, "{what}: post {post}");
            }
            assert_eq!(merged.num_pairs(), pairs as usize, "{what}");
            for radius in [-1, 0, 1, 7, 40, 1_000, i64::MAX] {
                assert_eq!(
                    merged.pair_windows(radius),
                    indexed.pair_windows(radius),
                    "{what}: radius {radius}"
                );
            }
            // Rows of the slice in arrival order, with the segment each is
            // in: a tied pair out of id order across a boundary.
            let label_map = &slice.label_map;
            let joined = (rows.iter().enumerate())
                .filter(|(_, r)| from <= r.value && r.value <= to)
                .filter(|(_, r)| r.labels.iter().any(|l| label_map.contains(l)))
                .map(|(i, r)| (i / target, r.value, r.id));
            let joined: Vec<(usize, i64, u64)> = joined.collect();
            crossing += (joined.windows(2))
                .filter(|w| w[0].0 != w[1].0 && w[0].1 == w[1].1 && w[0].2 > w[1].2)
                .count();
        }
        if target < 400 {
            assert!(
                crossing > 0,
                "seed {seed}: no tie run out of id order across a segment boundary"
            );
        }
    }
}

/// The postings walk behind `answer_cold` (fixed-λ Scan+, and Scan whose
/// range closed below the newest row) and `run_query_cover` against the
/// solvers on `Store::slice`: the same rows, each with the same labels, at
/// every λ from 0 to `i64::MAX`. An open Scan (`to` at the corpus's newest
/// value, `i64::MAX`) answers from its fold, checked here as well.
#[test]
fn scan_walk_matches_the_solvers_on_the_slice() {
    let lambdas = [0, 1, 3, 7, 40, 1000, i64::MAX / 2, i64::MAX];
    for (seed, target, ids) in SHAPES {
        let rows = corpus(seed, 400, ids);
        let store = RwLock::new(store_of(&rows, target));
        let newest = rows.last().unwrap().value;
        let mut rng = Lcg(seed ^ 0x5CA4);
        let (mut pruned, mut tied, mut walked) = (0, 0, 0);
        for case in 0..300 {
            let labels = query_labels(&mut rng);
            let (from, to) = (bound(&mut rng, &rows), bound(&mut rng, &rows));
            let slice = store.read().unwrap().slice(&labels, from, to);
            let inst = &slice.instance;
            // A random non-empty subset of the query labels for `COVER`.
            let mut cover: Vec<u16> = Vec::new();
            let mut locals: Vec<LabelId> = Vec::new();
            let must = rng.below(slice.label_map.len() as u64) as usize;
            for (local, &g) in slice.label_map.iter().enumerate() {
                if local == must || rng.below(2) == 0 {
                    cover.push(g);
                    locals.push(LabelId(local as u16));
                }
            }
            if rng.below(2) == 0 {
                cover.reverse();
            }
            for lambda in lambdas {
                let what = format!(
                    "seed {seed} target {target} {ids:?} case {case}: {labels:?} \
                     [{from}, {to}] λ {lambda}"
                );
                let f = FixedLambda(lambda);
                let render = |mut selected: Vec<u32>| -> Vec<Record> {
                    selected.sort_unstable();
                    selected.dedup();
                    selected.iter().map(|&z| slice.record_for(z)).collect()
                };
                let spec = |algorithm| QuerySpec {
                    labels: labels.clone(),
                    lambda,
                    proportional: false,
                    algorithm,
                    from,
                    to,
                };
                let cold = |spec: &QuerySpec| answer_cold(&store, |s: &Store| s, spec).unwrap();

                let scan = render(solve_scan(inst, &f).selected);
                let (_, records, fold) = cold(&spec(Algorithm::Scan));
                assert_eq!(records, scan, "{what}: scan");
                assert_eq!(fold.is_some(), to >= newest, "{what}: scan fold");
                let full = run_query_cover(&store.read().unwrap(), &spec(Algorithm::Scan), &labels);
                assert_eq!(full.unwrap(), scan, "{what}: cover of every label");

                let plus = render(solve_scan_plus(inst, &f, LabelOrder::Input).selected);
                let (_, records, fold) = cold(&spec(Algorithm::ScanPlus));
                assert_eq!(records, plus, "{what}: scan+");
                assert!(fold.is_none(), "{what}: scan+ fold");

                let part = render(solve_scan_cover(inst, &f, &locals).selected);
                let got = run_query_cover(&store.read().unwrap(), &spec(Algorithm::Scan), &cover);
                assert_eq!(got.unwrap(), part, "{what}: cover of {cover:?}");

                walked += usize::from(to < newest);
                pruned += usize::from(plus.len() < scan.len());
                let posts = inst.posts();
                tied += (scan.iter())
                    .filter(|r| posts.iter().filter(|p| p.value() == r.value).count() > 1)
                    .count();
            }
        }
        // The cases the sweep exists for did occur.
        assert!(walked > 0, "seed {seed}: no closed Scan range");
        assert!(pruned > 0, "seed {seed}: Scan+ never pruned");
        assert!(tied > 0, "seed {seed}: no pick from a tie run");
    }
}

#[test]
fn reversed_range_is_empty_even_inside_a_segment() {
    let mut store = Store::new();
    for (id, value) in [(1u64, 0i64), (2, 10), (3, 20)] {
        store
            .append(Record {
                id,
                value,
                labels: vec![0],
            })
            .unwrap();
    }
    // The one segment spans 0..=20, so neither bound excludes it.
    let slice = store.slice(&[0], 15, 5);
    assert!(slice.instance.is_empty());
    assert_eq!(slice.label_map, vec![0]);
}
