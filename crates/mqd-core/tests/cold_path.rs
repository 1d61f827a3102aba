//! The pieces the serving cold path shares: `Instance::pair_windows`, the
//! fixed-lambda GreedySC variants built on it, and `Post`'s two label
//! representations.

use mqd_core::algorithms::{
    complete_cover, solve_greedy_sc, solve_greedy_sc_naive, solve_greedy_sc_scan_max,
};
use mqd_core::{FixedLambda, Instance, LabelId, Post, PostId};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_setcover::{greedy_cover, BitSet, Goal};

/// Seeded instances with ties, multi-label posts and, for odd seeds, posts
/// at both ends of the `i64` range.
fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.random_range(1..=4usize);
    let n = rng.random_range(1..=60usize);
    let mut items: Vec<(i64, Vec<u16>)> = (0..n)
        .map(|_| {
            let value = rng.random_range(0..300i64);
            let count = rng.random_range(1..=labels);
            let ls = (0..count).map(|_| rng.random_range(0..labels as u16));
            (value, ls.collect())
        })
        .collect();
    if seed % 2 == 1 {
        for value in [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX] {
            items.push((value, vec![0]));
        }
    }
    Instance::from_values(items, labels).unwrap()
}

/// `complete_cover` spelled out: Algorithm 2's sets, the pins' elements
/// covered up front, generic greedy for the rest.
fn materialized_completion(inst: &Instance, lambda: i64, pins: &[u32]) -> Vec<u32> {
    let sets: Vec<Vec<u32>> = (0..inst.len() as u32)
        .map(|k| {
            let t = inst.value(k);
            let mut set = Vec::new();
            for &a in inst.labels(k) {
                for pos in
                    inst.posting_window(a, t.saturating_sub(lambda), t.saturating_add(lambda))
                {
                    set.push(inst.pair_id(inst.postings(a)[pos], a).unwrap());
                }
            }
            set
        })
        .collect();
    let mut covered = BitSet::new(inst.num_pairs());
    for &p in pins {
        for &e in &sets[p as usize] {
            covered.set(e);
        }
    }
    let mut selected: Vec<u32> = pins.to_vec();
    let rest = greedy_cover(&sets, &mut covered, Goal::CoverAll);
    selected.extend(rest.into_iter().map(|k| k as u32));
    selected.sort_unstable();
    selected.dedup();
    selected
}

const RADII: [i64; 6] = [0, 1, 7, 40, 1_000, i64::MAX];

#[test]
fn pair_windows_equal_posting_window_for_every_pair() {
    for seed in 0..60u64 {
        let inst = instance(seed);
        for radius in RADII {
            let windows = inst.pair_windows(radius);
            assert_eq!(windows.len(), inst.num_pairs());
            for post in 0..inst.len() as u32 {
                let t = inst.value(post);
                for &a in inst.labels(post) {
                    let want =
                        inst.posting_window(a, t.saturating_sub(radius), t.saturating_add(radius));
                    let (lo, hi) = windows[inst.pair_id(post, a).unwrap() as usize];
                    assert_eq!(
                        lo as usize..hi as usize,
                        want,
                        "seed {seed} radius {radius} post {post} label {a}"
                    );
                }
            }
        }
        // A negative radius reaches nothing.
        assert!(inst.pair_windows(-1).iter().all(|&(lo, hi)| lo == hi));
    }
}

#[test]
fn fixed_lambda_greedy_variants_equal_the_materialized_sets() {
    for seed in 0..60u64 {
        let inst = instance(seed);
        for lambda in RADII {
            let f = FixedLambda(lambda);
            let naive = solve_greedy_sc_naive(&inst, &f).selected;
            let what = format!("seed {seed} lambda {lambda}");
            assert_eq!(solve_greedy_sc(&inst, &f).selected, naive, "{what}: lazy");
            assert_eq!(
                solve_greedy_sc_scan_max(&inst, &f).selected,
                naive,
                "{what}: scan-max"
            );
            assert_eq!(
                complete_cover(&inst, &f, &[]).selected,
                naive,
                "{what}: no pins"
            );
            let pins = [(seed as u32 * 7) % inst.len() as u32, 0];
            assert_eq!(
                complete_cover(&inst, &f, &pins).selected,
                materialized_completion(&inst, lambda, &pins),
                "{what}: pins {pins:?}"
            );
        }
    }
}

#[test]
fn negative_fixed_lambda_selects_nothing() {
    for seed in 0..10u64 {
        let inst = instance(seed);
        let f = FixedLambda(-1);
        assert!(solve_greedy_sc(&inst, &f).selected.is_empty());
        assert!(solve_greedy_sc_scan_max(&inst, &f).selected.is_empty());
        assert!(solve_greedy_sc_naive(&inst, &f).selected.is_empty());
    }
}

#[test]
fn post_behaves_the_same_inline_and_spilled() {
    // Label sets on both sides of any plausible inline capacity.
    for len in [0usize, 1, 2, 5, 11, 12, 13, 40] {
        let sorted: Vec<LabelId> = (0..len as u16).map(|l| LabelId(l * 3)).collect();
        let mut shuffled: Vec<LabelId> = sorted.iter().rev().copied().collect();
        shuffled.extend(sorted.iter().copied()); // duplicates

        let a = Post::new(PostId(1), 5, shuffled);
        let b = Post::from_sorted_labels(PostId(1), 5, &sorted);
        assert_eq!(a.labels(), &sorted[..], "len {len}");
        assert_eq!(a, b, "len {len}");
        assert_eq!(a.clone(), a, "len {len}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "len {len}");
        for l in 0..(len as u16 * 3 + 2) {
            assert_eq!(a.has_label(LabelId(l)), l % 3 == 0 && l < len as u16 * 3);
        }
        // Each field takes part in equality.
        assert_ne!(a, Post::from_sorted_labels(PostId(2), 5, &sorted));
        assert_ne!(a, Post::from_sorted_labels(PostId(1), 6, &sorted));
        let mut more = sorted.clone();
        more.push(LabelId(u16::MAX));
        assert_ne!(a, Post::from_sorted_labels(PostId(1), 5, &more));
    }
    // However many labels it has, a post is no bigger than when it owned a Vec.
    assert!(std::mem::size_of::<Post>() <= 16 + std::mem::size_of::<Vec<LabelId>>());
}
