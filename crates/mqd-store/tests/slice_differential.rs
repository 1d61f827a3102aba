//! Seeded differential: `Store::slice` against a reference that reads the
//! canonical mapping documented on `Slice` literally (scan every row,
//! range-filter, intersect, sort by `(value, id)`).

use mqd_core::record::Record;
use mqd_core::{LabelId, Post, PostId};
use mqd_store::Store;

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
}

/// A monotone corpus: a few rows at `i64::MIN`, a body with long runs of
/// tied values, a few rows at `i64::MAX`. Ids are unique but unrelated to
/// arrival order, so tied rows arrive out of id order. Labels are sorted
/// and deduplicated, as the store keeps them.
fn corpus(seed: u64, n: usize) -> Vec<Record> {
    let mut rng = Lcg(seed);
    let mut value = -50i64;
    (0..n)
        .map(|i| {
            let value = if i < 3 {
                i64::MIN
            } else if i + 3 >= n {
                i64::MAX
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
            Record {
                id: (i as u64 * 7919) % 10_007,
                value,
                labels,
            }
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

#[test]
fn slice_matches_a_naive_reference() {
    for (seed, target) in [(1u64, 1usize), (2, 2), (3, 3), (4, 4096), (5, 3), (6, 2)] {
        let rows = corpus(seed, 400);
        let mut store = Store::with_segment_target(target);
        for r in &rows {
            store.append(r.clone()).unwrap();
        }
        let mut rng = Lcg(seed ^ 0xC01D);
        // Bounds drawn from stored values land on ties; the extremes and
        // values between stored ones are mixed in.
        let bound = |rng: &mut Lcg| match rng.below(8) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => rng.below(900) as i64 - 60,
            _ => rows[rng.below(rows.len() as u64) as usize].value,
        };
        let mut spilled = 0;
        let mut reordered = 0;
        for case in 0..300 {
            let labels = query_labels(&mut rng);
            let (from, to) = (bound(&mut rng), bound(&mut rng));
            let slice = store.slice(&labels, from, to);
            let (posts, label_map) = reference(&rows, &labels, from, to);
            let what =
                format!("seed {seed} target {target} case {case}: {labels:?} [{from}, {to}]");
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
