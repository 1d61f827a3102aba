//! Incremental repair of cached fixed-lambda Scan covers.
//!
//! The serving layer caches one cover per `QuerySpec`. Under ingest, the
//! old cache invalidated *everything* on every append and the next query
//! paid a full re-solve inline — the 4-second p99 recorded in CHANGES.md
//! PR 6.
//! But the paper's own §5 machinery proves a monotone stream only perturbs
//! coverage locally: a new post lands at the value frontier, and for the
//! per-label interval greedy of offline Scan, everything strictly more
//! than lambda left of the last uncovered group start is already *frozen*
//! — no future arrival can change those picks.
//!
//! [`CoverRepair`] exploits that: it is the `tau -> infinity`
//! specialization of [`crate::StreamScan`]'s pending-group rule, keeping
//! per query label (one *lane* each) only
//!
//! * the committed coverage frontier `reach = pick + lambda` of the last
//!   frozen group, and
//! * the still-open tail group `(left, best-candidate-so-far)` with that
//!   candidate's rendered labels,
//!
//! plus the map of frozen picks. Feeding it the slice rows in `(value,
//! id)` order reproduces offline Scan **byte-for-byte** (the oracle's
//! `repair-agreement` invariant pins this), and feeding it each newly
//! ingested row advances the answer in O(query labels) — no re-solve, no
//! slice rebuild.
//!
//! The open pick lives in its lane, not in the map, because it is the one
//! pick that still moves: rows arrive in ascending order, so nearly every
//! row inside an open group's window replaces that group's candidate.
//! Keeping it beside the lane makes the replacement an overwrite of a
//! reused buffer; only a group that freezes (once per cover row) inserts
//! into the map, and only a release (below) removes from it. The price is that
//! the map alone is not the cover: [`CoverRepair::cover`] merges the at
//! most one open pick per lane into the frozen rows, once each (a post can
//! be the open pick of several lanes and a frozen pick of another).
//!
//! The same split bounds what one batch of new rows can change. A frozen
//! pick never moves and never leaves, and every row of the cover that is
//! not frozen is some lane's open pick; a fold replaces open picks (by a
//! folded row, which sorts after the pick it replaces), freezes them where
//! they stand, and opens groups at folded rows. So below the smaller of
//! the oldest open pick before the fold and the smallest folded row, the
//! cover is the same frozen picks before and after: a holder of the
//! rendered cover keeps that prefix and replaces only the rows from there
//! on, which [`CoverRepair::observe_tail`] returns — O(lanes + changed
//! tail) per batch instead of [`CoverRepair::cover`]'s O(cover).
//!
//! It also bounds what the state has to keep. A fold reads the map only
//! from that key on, and no later key can sort below the oldest pick that
//! is open now: open picks are only replaced by later rows, and a row yet
//! to come sorts after every frozen pick (a pick froze because a row past
//! its group's window arrived, and values never decrease after that). So
//! a holder that has taken the cover elsewhere calls
//! [`CoverRepair::release_frozen`], and the map keeps the frozen picks at
//! or after the oldest open pick only: usually none, at most the cover
//! rows since the open pick of the lane that has been quiet the longest.
//! That is a property of the stream, not a constant: a label that stops
//! arriving pins its last open pick, and every pick frozen after it stays
//! until the label returns. A pick one lane has frozen and another still
//! holds open is some lane's open pick, so it is kept and freezing it a
//! second time finds it. After a release [`CoverRepair::cover`] and
//! [`CoverRepair::len`] speak of the cover from the retained key on.
//!
//! Why byte-identity holds: `scan_label` opens a group at the leftmost
//! uncovered post `left` and picks the candidate maximizing
//! `(reach, index)`; with a fixed lambda that is exactly the max
//! `(value, id)` post with `value <= left + lambda`, every candidate
//! precedes the first post past `left + lambda` in `(value, id)` order,
//! and the skip rule `value <= pick + lambda` is a pure function of the
//! frozen pick. So a left fold over `(value, id)`-ordered rows with the
//! three-way transition below (extend the open group / freeze it / skip a
//! covered row) visits exactly the same picks. All comparisons are done
//! in `i128`, which agrees with the solver's saturating `i64` arithmetic
//! on every input (saturation only collapses reaches past `i64::MAX`,
//! where both orderings already tie and fall back to `(value, id)`).
//!
//! Only fixed-lambda Scan is repairable this way. Scan+ lets a changed
//! tail pick re-cover occurrences of *other* labels arbitrarily far back
//! in their passes, GreedySC re-ranks globally, OPT is a global DP, and
//! the proportional lambda of §6 depends on slice-wide density — for all
//! of those the serving cache falls back to a background re-solve (see
//! `mqd-store`'s cache documentation).

use std::collections::BTreeMap;

use mqd_core::record::{Record, RowRef};

/// The open (not yet frozen) tail group of one label's interval greedy.
#[derive(Clone, Debug)]
struct OpenGroup {
    /// Value of the group's leftmost uncovered post.
    left: i64,
    /// Best candidate so far: the max `(value, id)` with
    /// `value <= left + lambda`.
    pick: (i64, u64),
}

/// Per-query-label fold state.
#[derive(Clone, Debug, Default)]
struct Lane {
    /// Coverage frontier of the last frozen group (`pick + lambda`,
    /// exact in `i128`); `None` until the first group freezes.
    reach: Option<i128>,
    /// The still-open tail group, if any.
    open: Option<OpenGroup>,
    /// Rendered labels of the open group's pick (meaningless while `open`
    /// is `None`). Outlives the groups so its allocation is reused.
    open_labels: Vec<u16>,
}

/// Incrementally maintained fixed-lambda Scan cover over a monotone
/// record stream (see the module docs for the equivalence argument).
///
/// Feed every slice row once via [`CoverRepair::observe`], in `(value,
/// id)` order; [`CoverRepair::cover`] then renders the same records, in
/// the same order, as `run_query` would produce for the equivalent
/// fixed-lambda Scan spec.
#[derive(Clone, Debug)]
pub struct CoverRepair {
    /// Sorted, deduplicated query labels; lane `i` folds `labels[i]`.
    labels: Vec<u16>,
    lambda: i64,
    lanes: Vec<Lane>,
    /// Picks of frozen groups with their rendered labels, keyed by
    /// `(value, id)` — exactly the slice order the offline answer is
    /// rendered in. Grows by one per freeze; [`CoverRepair::release_frozen`]
    /// drops the prefix no later fold reads.
    picks: BTreeMap<(i64, u64), Vec<u16>>,
}

impl CoverRepair {
    /// Empty state for a fixed-lambda Scan query over `labels`.
    /// `lambda` must be non-negative (enforced upstream by the query
    /// validator; negative lambdas would make "covers itself" false).
    pub fn new(labels: &[u16], lambda: i64) -> Self {
        let mut labels = labels.to_vec();
        labels.sort_unstable();
        labels.dedup();
        let lanes = vec![Lane::default(); labels.len()];
        CoverRepair {
            labels,
            lambda,
            lanes,
            picks: BTreeMap::new(),
        }
    }

    /// Folds one record into the cover. Rows must arrive in
    /// non-decreasing `(value, id)` order overall (slice order for the
    /// initial replay, ingest order afterwards — the store's monotone
    /// contract guarantees the two splice correctly). Rows carrying no
    /// query label are ignored; returns `true` iff the row joined.
    ///
    /// Allocates only when a group freezes (its pick's labels enter the
    /// map) or a lane's label buffer first grows. The row's labels are read
    /// as a set: unsorted or repeated is the same row.
    pub fn observe<'a>(&mut self, row: impl Into<RowRef<'a>>) -> bool {
        let row: RowRef<'a> = row.into();
        let CoverRepair {
            labels: query,
            lambda,
            lanes,
            picks,
        } = self;
        let key = (row.value, row.id);
        let v = row.value as i128;
        let lambda = *lambda as i128;
        let mut joined = false;
        // A label the row repeats reaches its lane twice; the second visit
        // finds the row already the open pick, or covered, and is a no-op.
        for l in row.labels {
            let Ok(lane_idx) = query.binary_search(l) else {
                continue;
            };
            joined = true;
            let lane = &mut lanes[lane_idx];
            if let Some(group) = &mut lane.open {
                if v <= group.left as i128 + lambda {
                    // Still a candidate for the open group: keep the max
                    // (value, id) pick, exactly scan_label's tie-break.
                    if key > group.pick {
                        group.pick = key;
                        render_into(&mut lane.open_labels, row, query);
                    }
                    continue;
                }
                // First row past left + lambda: the group freezes and its
                // pick's reach becomes the committed frontier. Another
                // lane may have frozen the same post already.
                lane.reach = Some(group.pick.0 as i128 + lambda);
                picks
                    .entry(group.pick)
                    .or_insert_with(|| lane.open_labels.clone());
                lane.open = None;
            }
            if lane.reach.is_some_and(|r| v <= r) {
                continue; // covered by the last frozen pick
            }
            // Leftmost uncovered row of a new group: it covers itself
            // (lambda >= 0), so it starts as the group's pick.
            lane.open = Some(OpenGroup {
                left: row.value,
                pick: key,
            });
            render_into(&mut lane.open_labels, row, query);
        }
        joined
    }

    /// Renders the current cover: selected records in ascending
    /// `(value, id)` order, labels intersected with the query labels —
    /// byte-identical (via `format_tsv`) to a cold offline solve over
    /// the same rows. After [`CoverRepair::release_frozen`] it is the
    /// cover from the retained key on. The result is allocated once, for
    /// the frozen picks plus one slot per lane, so callers that keep it
    /// hold no slack beyond the lane count.
    pub fn cover(&self) -> Vec<Record> {
        let mut cover = Vec::with_capacity(self.picks.len().saturating_add(self.lanes.len()));
        cover.extend(self.picks.iter().map(frozen_record));
        self.merge_open_picks(&mut cover);
        cover
    }

    /// Folds `rows` as [`CoverRepair::observe`] would, one by one, and
    /// returns what that changed in [`CoverRepair::cover`]: a key `(value,
    /// id)` below which the cover is what it was before the call, and the
    /// cover's rows at or after that key (module docs: the key is the
    /// oldest open pick before the fold, or the smallest joining row if
    /// that sorts lower). `None` when no row joined, which leaves the
    /// cover as it was.
    pub fn observe_tail<'a, R: Into<RowRef<'a>>>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
    ) -> Option<((i64, u64), Vec<Record>)> {
        let oldest_open = self.oldest_open();
        let lowest_joined = rows
            .into_iter()
            .map(Into::into)
            .filter(|&row| self.observe(row))
            .map(|row| (row.value, row.id))
            .min()?;
        let from = oldest_open.map_or(lowest_joined, |k| k.min(lowest_joined));
        let mut tail: Vec<Record> = self.picks.range(from..).map(frozen_record).collect();
        self.merge_open_picks(&mut tail);
        Some((from, tail))
    }

    /// The smallest `(value, id)` any lane holds open.
    fn oldest_open(&self) -> Option<(i64, u64)> {
        let open = self.lanes.iter().filter_map(|lane| lane.open.as_ref());
        open.map(|group| group.pick).min()
    }

    /// Drops the frozen picks below the oldest open pick (all of them when
    /// no lane is open): no later [`CoverRepair::observe_tail`] reads them
    /// (module docs). For a holder that keeps the cover itself and patches
    /// it from what `observe_tail` returns; call it once the cover has
    /// been taken and after every fold.
    pub fn release_frozen(&mut self) {
        let Some(keep_from) = self.oldest_open() else {
            self.picks.clear();
            return;
        };
        // After a fold there is usually nothing below the key: look first,
        // `split_off` allocates.
        if (self.picks.first_key_value()).is_some_and(|(first, _)| *first < keep_from) {
            self.picks = self.picks.split_off(&keep_from);
        }
    }

    /// Inserts each lane's open pick into `cover` — the frozen picks from
    /// some key on, ascending — unless the same post is there already.
    /// Every open pick must sort at or after `cover`'s first key.
    fn merge_open_picks(&self, cover: &mut Vec<Record>) {
        for lane in &self.lanes {
            let Some(group) = &lane.open else {
                continue;
            };
            // Absent unless another lane holds the same post, open or frozen.
            if let Err(at) = cover.binary_search_by_key(&group.pick, |r| (r.value, r.id)) {
                let (value, id) = group.pick;
                cover.insert(
                    at,
                    Record {
                        id,
                        value,
                        labels: lane.open_labels.clone(),
                    },
                );
            }
        }
    }

    /// Number of currently selected posts: the frozen picks plus each
    /// distinct open pick that no lane has frozen (after
    /// [`CoverRepair::release_frozen`]: from the retained key on).
    pub fn len(&self) -> usize {
        let open = |lane: &Lane| lane.open.as_ref().map(|g| g.pick);
        let unfrozen = self.lanes.iter().enumerate().filter(|&(i, lane)| {
            open(lane).is_some_and(|pick| {
                !self.picks.contains_key(&pick)
                    && !self.lanes.iter().take(i).any(|l| open(l) == Some(pick))
            })
        });
        self.picks.len().saturating_add(unfrozen.count())
    }

    /// True when [`CoverRepair::len`] is 0.
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty() && self.lanes.iter().all(|lane| lane.open.is_none())
    }
}

/// Renders one entry of the frozen-pick map.
fn frozen_record((&(value, id), labels): (&(i64, u64), &Vec<u16>)) -> Record {
    Record {
        id,
        value,
        labels: labels.clone(),
    }
}

/// Overwrites `buf` with `row`'s labels intersected with the sorted
/// `query` labels, ascending and deduplicated — the rendering
/// `Slice::record_for` produces. Ingested rows are store-normalized
/// already; raw input is tolerated by normalizing here.
fn render_into(buf: &mut Vec<u16>, row: RowRef<'_>, query: &[u16]) {
    buf.clear();
    let matched = row.labels.iter().filter(|l| query.binary_search(l).is_ok());
    buf.extend(matched);
    buf.sort_unstable();
    buf.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::algorithms::solve_scan;
    use mqd_core::record::format_tsv;
    use mqd_core::{FixedLambda, Instance, LabelId, Post, PostId};
    use mqd_rng::{RngExt, SeedableRng, StdRng};

    /// Offline reference: the canonical slice + solve + render pipeline,
    /// restated here so the test does not depend on `mqd-store`.
    fn offline_scan(rows: &[Record], labels: &[u16], lambda: i64) -> Vec<String> {
        let mut qlabels = labels.to_vec();
        qlabels.sort_unstable();
        qlabels.dedup();
        let mut posts = Vec::new();
        for r in rows {
            let locals: Vec<LabelId> = r
                .labels
                .iter()
                .filter_map(|l| qlabels.binary_search(l).ok().map(|i| LabelId(i as u16)))
                .collect();
            if !locals.is_empty() {
                posts.push(Post::new(PostId(r.id), r.value, locals));
            }
        }
        let inst = Instance::from_posts(posts, qlabels.len()).unwrap();
        let mut sol = solve_scan(&inst, &FixedLambda(lambda));
        sol.selected.sort_unstable();
        sol.selected.dedup();
        sol.selected
            .iter()
            .map(|&z| {
                format_tsv(&Record {
                    id: inst.post(z).id().0,
                    value: inst.value(z),
                    labels: inst
                        .labels(z)
                        .iter()
                        .map(|&LabelId(l)| qlabels[l as usize])
                        .collect(),
                })
            })
            .collect()
    }

    fn rendered(repair: &CoverRepair) -> Vec<String> {
        repair.cover().iter().map(format_tsv).collect()
    }

    fn random_rows(seed: u64, n: usize, num_labels: u16, max_step: i64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut value = 0i64;
        (0..n)
            .map(|i| {
                value += rng.random_range(0..max_step); // 0 steps => ties
                let k = rng.random_range(1..=3usize);
                Record {
                    id: i as u64,
                    value,
                    labels: (0..k).map(|_| rng.random_range(0..num_labels)).collect(),
                }
            })
            .collect()
    }

    /// Sort ingest-ordered rows into slice `(value, id)` order.
    fn slice_order(rows: &[Record]) -> Vec<Record> {
        let mut v = rows.to_vec();
        v.sort_by_key(|r| (r.value, r.id));
        v
    }

    #[test]
    fn replay_matches_offline_scan_across_seeds() {
        for seed in 0..40u64 {
            let rows = random_rows(seed, 120, 4, if seed % 3 == 0 { 3 } else { 40 });
            let labels: Vec<u16> = match seed % 4 {
                0 => vec![0],
                1 => vec![0, 1],
                2 => vec![1, 2, 3],
                _ => vec![0, 1, 2, 3],
            };
            let lambda = [0, 1, 7, 50, 400][seed as usize % 5];
            let mut repair = CoverRepair::new(&labels, lambda);
            for r in slice_order(&rows) {
                repair.observe(&r);
            }
            assert_eq!(
                rendered(&repair),
                offline_scan(&rows, &labels, lambda),
                "seed {seed} lambda {lambda} labels {labels:?}"
            );
        }
    }

    /// `cover()`, `len()` and `is_empty()` against a cold solve of `rows`,
    /// and the bound on the slack `cover()` hands to whoever keeps it.
    fn assert_agrees(
        repair: &CoverRepair,
        rows: &[Record],
        labels: &[u16],
        lambda: i64,
        what: &str,
    ) {
        let offline = offline_scan(rows, labels, lambda);
        let cover = repair.cover();
        let got: Vec<String> = cover.iter().map(format_tsv).collect();
        assert_eq!(got, offline, "{what}: cover");
        assert_eq!(repair.len(), offline.len(), "{what}: len");
        assert_eq!(repair.is_empty(), offline.is_empty(), "{what}: is_empty");
        let mut lanes = labels.to_vec();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(
            cover.capacity() - cover.len() <= lanes.len(),
            "{what}: cover() holds {} rows in room for {}",
            cover.len(),
            cover.capacity()
        );
    }

    #[test]
    fn incremental_appends_match_cold_solve_at_every_generation() {
        for seed in 100..130u64 {
            let rows = random_rows(seed, 90, 3, 25);
            let labels = vec![0u16, 2];
            let lambda = 30 + (seed as i64 % 4) * 13;
            let split = 30 + (seed as usize % 30);
            let mut repair = CoverRepair::new(&labels, lambda);
            assert_agrees(&repair, &[], &labels, lambda, "empty");
            // The initial replay is in slice order, so its prefixes are
            // prefixes of the sorted rows.
            let replay = slice_order(&rows[..split]);
            for (i, r) in replay.iter().enumerate() {
                repair.observe(r);
                let what = format!("seed {seed} replayed {}", i + 1);
                assert_agrees(&repair, &replay[..=i], &labels, lambda, &what);
            }
            // Append the suffix one row at a time, in ingest order, and
            // demand byte-identity with a cold solve after every append.
            for g in split..rows.len() {
                repair.observe(&rows[g]);
                let what = format!("seed {seed} generation {}", g + 1);
                assert_agrees(&repair, &rows[..=g], &labels, lambda, &what);
            }
        }
    }

    #[test]
    fn a_post_frozen_in_one_lane_and_open_in_another_renders_once() {
        let rows: Vec<Record> = [
            (1u64, 0i64, vec![0u16]),
            (2, 5, vec![0, 1]),
            (3, 11, vec![0]),
        ]
        .into_iter()
        .map(|(id, value, labels)| Record { id, value, labels })
        .collect();
        let mut repair = CoverRepair::new(&[0, 1], 10);
        for r in &rows {
            repair.observe(r);
        }
        // Lane 0 froze post 2 when post 3 passed 0 + 10 (and post 3 lies
        // within its reach); lane 1's only group still has it as its pick.
        assert_eq!(repair.picks.keys().collect::<Vec<_>>(), [&(5, 2)]);
        assert!(repair.lanes[0].open.is_none());
        assert_eq!(repair.lanes[1].open.as_ref().map(|g| g.pick), Some((5, 2)));
        assert_eq!(rendered(&repair), vec!["2\t5\t0,1"]);
        assert_agrees(&repair, &rows, &[0, 1], 10, "frozen and open");
        // Open in both lanes, frozen in neither: still once.
        let mut both = CoverRepair::new(&[0, 1], 10);
        both.observe(&rows[1]);
        assert!(both.picks.is_empty());
        assert_agrees(&both, &rows[1..2], &[0, 1], 10, "open twice");
    }

    #[test]
    fn observe_tail_patches_a_kept_cover_to_the_folded_one() {
        for seed in 200..240u64 {
            // Steps of 0 make runs of tied values whose ids arrive out of
            // order, so a batch's rows can sort below the open picks.
            let mut rows = random_rows(seed, 200, 4, if seed % 2 == 0 { 2 } else { 30 });
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            for r in &mut rows {
                r.id = rng.random_range(0..1u64 << 40);
            }
            let labels: Vec<u16> = vec![0, 1, 3];
            let lambda = [0, 3, 25, 200][seed as usize % 4];
            let mut repair = CoverRepair::new(&labels, lambda);
            let mut kept: Vec<Record> = Vec::new();
            let mut fed = 0usize;
            while fed < rows.len() {
                let batch = rng.random_range(1..=12usize).min(rows.len() - fed);
                let before = kept.clone();
                let patch = repair.observe_tail(&rows[fed..fed + batch]);
                fed += batch;
                if let Some((from, tail)) = patch {
                    let keep = kept.partition_point(|r| (r.value, r.id) < from);
                    assert!(tail.iter().all(|r| (r.value, r.id) >= from));
                    kept.truncate(keep);
                    kept.extend(tail);
                } else {
                    assert_eq!(kept, before);
                }
                assert_eq!(kept, repair.cover(), "seed {seed} after {fed} rows");
                assert_agrees(&repair, &rows[..fed], &labels, lambda, "patched");
            }
        }
        // No joining row: nothing to patch, whatever is open.
        let mut repair = CoverRepair::new(&[0], 10);
        repair.observe(&Record {
            id: 1,
            value: 0,
            labels: vec![0],
        });
        let stranger = Record {
            id: 2,
            value: 5,
            labels: vec![7],
        };
        assert!(repair.observe_tail([&stranger]).is_none());
    }

    /// Applies an `observe_tail` patch to a kept cover, as the cache does.
    fn patch(kept: &mut Vec<Record>, patch: Option<((i64, u64), Vec<Record>)>) {
        if let Some((from, tail)) = patch {
            kept.truncate(kept.partition_point(|r| (r.value, r.id) < from));
            kept.extend(tail);
        }
    }

    #[test]
    fn a_released_state_patches_like_the_full_one_and_keeps_only_the_open_tail() {
        for seed in 300..340u64 {
            let mut rows = random_rows(seed, 240, 5, if seed % 2 == 0 { 2 } else { 30 });
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
            for r in &mut rows {
                r.id = rng.random_range(0..1u64 << 40);
            }
            let labels: Vec<u16> = vec![0, 2, 3, 4];
            let lambda = [0, 3, 25, 200][seed as usize % 4];
            let mut full = CoverRepair::new(&labels, lambda);
            let mut lean = full.clone();
            let mut kept: Vec<Record> = Vec::new();
            let mut fed = 0usize;
            while fed < rows.len() {
                let batch = rng.random_range(1..=12usize).min(rows.len() - fed);
                let expected = full.observe_tail(&rows[fed..fed + batch]);
                let got = lean.observe_tail(&rows[fed..fed + batch]);
                fed += batch;
                assert_eq!(got, expected, "seed {seed} after {fed} rows: same patch");
                patch(&mut kept, got);
                lean.release_frozen();
                let what = format!("seed {seed} after {fed} rows");
                assert_eq!(kept, full.cover(), "{what}: patched cover");
                // Exactly the cover rows at or after the oldest open pick.
                let open = lean.oldest_open();
                assert_eq!(open, full.oldest_open(), "{what}");
                let mut tail = full.cover();
                tail.retain(|r| open.is_some_and(|k| (r.value, r.id) >= k));
                assert_eq!(lean.cover(), tail, "{what}: retained rows");
                assert_eq!(lean.len(), tail.len(), "{what}: len");
                assert!(lean.picks.keys().all(|&k| open.is_some_and(|o| k >= o)));
            }
            assert!(lean.picks.len() < full.picks.len() / 4, "seed {seed}");
        }
    }

    #[test]
    fn a_quiet_lane_pins_its_open_pick_and_returns_exact() {
        // Label 1 opens a group at value 0 and then goes quiet while label
        // 0 freezes a pick every third row: the quiet lane's open pick is
        // the oldest, so nothing frozen after it may be released.
        let row = |id: u64, value: i64, labels: &[u16]| Record {
            id,
            value,
            labels: labels.to_vec(),
        };
        let mut rows = vec![row(5_000, 0, &[1])];
        rows.extend((0..200).map(|i| row(1_000 + i, 10 * (i as i64 + 1), &[0])));
        // It returns tied with label 0's last row, with a lower id.
        rows.push(row(7, 2_000, &[1]));
        rows.push(row(9_000, 2_000, &[0, 1]));
        let (labels, lambda) = (vec![0u16, 1], 15);
        let mut lean = CoverRepair::new(&labels, lambda);
        let mut kept: Vec<Record> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            patch(&mut kept, lean.observe_tail([r]));
            lean.release_frozen();
            let got: Vec<String> = kept.iter().map(format_tsv).collect();
            assert_eq!(got, offline_scan(&rows[..=i], &labels, lambda), "row {i}");
            if (1..=200).contains(&i) {
                // Pinned: every pick label 0 froze so far is still held.
                assert_eq!(lean.picks.len(), i / 3, "row {i}");
            }
        }
        // The lane came back: the pin is gone.
        assert!(lean.picks.len() <= 1, "{:?}", lean.picks);
        // With no lane open nothing is kept at all.
        let mut closed = CoverRepair::new(&[0], 10);
        closed.observe(&row(1, 0, &[0]));
        closed.observe(&row(2, 11, &[0])); // freezes 1, opens at 2
        closed.observe(&row(3, 30, &[0])); // freezes 2, opens at 3
        closed.lanes[0].open = None;
        closed.release_frozen();
        assert!(closed.picks.is_empty() && closed.is_empty());
    }

    #[test]
    fn a_clone_taken_mid_stream_diverges_independently() {
        let rows = random_rows(7, 80, 3, 25);
        let (labels, lambda) = (vec![0u16, 1, 2], 40);
        let mut original = CoverRepair::new(&labels, lambda);
        for r in &rows[..40] {
            original.observe(r);
        }
        let mut fork = original.clone();
        // Different futures after the same past: the original sees the
        // real suffix, the fork one far-away row.
        let far = Record {
            id: 999,
            value: rows[79].value + 10_000,
            labels: vec![1],
        };
        fork.observe(&far);
        for r in &rows[40..] {
            original.observe(r);
        }
        assert_agrees(&original, &rows, &labels, lambda, "original");
        let mut forked_rows = rows[..40].to_vec();
        forked_rows.push(far);
        assert_agrees(&fork, &forked_rows, &labels, lambda, "fork");
    }

    #[test]
    fn equal_value_appends_are_order_invariant() {
        // Two rows with the same value arriving in either id order must
        // fold to the same state (the slice sorts by (value, id), ingest
        // does not).
        let base = vec![
            Record {
                id: 1,
                value: 0,
                labels: vec![0],
            },
            Record {
                id: 2,
                value: 40,
                labels: vec![0],
            },
        ];
        let tie_a = Record {
            id: 9,
            value: 100,
            labels: vec![0],
        };
        let tie_b = Record {
            id: 3,
            value: 100,
            labels: vec![0],
        };
        let mut fwd = CoverRepair::new(&[0], 10);
        let mut rev = CoverRepair::new(&[0], 10);
        for r in &base {
            fwd.observe(r);
            rev.observe(r);
        }
        fwd.observe(&tie_a);
        fwd.observe(&tie_b);
        rev.observe(&tie_b);
        rev.observe(&tie_a);
        assert_eq!(rendered(&fwd), rendered(&rev));
        let mut all = base;
        all.push(tie_b.clone());
        all.push(tie_a.clone());
        assert_eq!(rendered(&fwd), offline_scan(&all, &[0], 10));
    }

    #[test]
    fn rows_without_query_labels_are_ignored() {
        let mut repair = CoverRepair::new(&[0], 10);
        assert!(repair.observe(&Record {
            id: 1,
            value: 0,
            labels: vec![0, 5],
        }));
        assert!(!repair.observe(&Record {
            id: 2,
            value: 5,
            labels: vec![5],
        }));
        assert_eq!(repair.len(), 1);
        // Rendered labels are intersected: label 5 is dropped.
        assert_eq!(rendered(&repair), vec!["1\t0\t0"]);
    }

    #[test]
    fn saturating_extremes_match_offline_scan() {
        // Values at the i64 extremes: reach saturates in the solver and
        // overflows naive i64 math; both must agree.
        let rows = vec![
            Record {
                id: 1,
                value: i64::MIN,
                labels: vec![0],
            },
            Record {
                id: 2,
                value: i64::MAX - 1,
                labels: vec![0],
            },
            Record {
                id: 3,
                value: i64::MAX,
                labels: vec![0],
            },
        ];
        for lambda in [0, 1, i64::MAX] {
            let mut repair = CoverRepair::new(&[0], lambda);
            for r in &rows {
                repair.observe(r);
            }
            assert_eq!(
                rendered(&repair),
                offline_scan(&rows, &[0], lambda),
                "lambda {lambda}"
            );
        }
    }

    #[test]
    fn duplicate_query_labels_are_deduped() {
        let mut repair = CoverRepair::new(&[1, 0, 1, 0], 5);
        repair.observe(&Record {
            id: 1,
            value: 0,
            labels: vec![0, 1],
        });
        assert_eq!(repair.len(), 1);
        assert_eq!(rendered(&repair), vec!["1\t0\t0,1"]);
    }
}
