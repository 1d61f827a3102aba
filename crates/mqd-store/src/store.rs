//! The time-partitioned store: append-only segments with inverted indexes.

use std::collections::HashMap;

use mqd_core::record::Record;
use mqd_core::{Instance, LabelId, MqdError, Post, PostId};

/// Rows per segment before a new one is opened. Segments are partitioned by
/// row count, not by time span: counts bound memory and index size directly
/// and stay overflow-free for values near the `i64` extremes.
pub const SEGMENT_TARGET_ROWS: usize = 4096;

/// One bounded run of rows in arrival order, with its own inverted index.
struct Segment {
    /// Rows in arrival order; values are non-decreasing within a segment.
    rows: Vec<Record>,
    /// label -> indices into `rows`, ascending (arrival order).
    postings: HashMap<u16, Vec<u32>>,
    min_value: i64,
    max_value: i64,
}

impl Segment {
    fn new(first: Record) -> Self {
        let (min_value, max_value) = (first.value, first.value);
        let mut seg = Segment {
            rows: Vec::new(),
            postings: HashMap::new(),
            min_value,
            max_value,
        };
        seg.push(first);
        seg
    }

    fn push(&mut self, row: Record) {
        let idx = self.rows.len() as u32;
        for &l in &row.labels {
            self.postings.entry(l).or_default().push(idx);
        }
        self.min_value = self.min_value.min(row.value);
        self.max_value = self.max_value.max(row.value);
        self.rows.push(row);
    }
}

/// Counters reported by [`Store::stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreStats {
    /// Total rows ingested.
    pub rows: u64,
    /// Number of segments.
    pub segments: usize,
    /// Number of distinct labels seen across all rows.
    pub labels: usize,
    /// Generation counter; bumps on every append (cache invalidation key).
    pub generation: u64,
    /// Smallest dimension value in the store (`None` when empty).
    pub min_value: Option<i64>,
    /// Largest dimension value in the store (`None` when empty).
    pub max_value: Option<i64>,
}

/// A label/time-range slice of the store, ready to solve.
///
/// The slice defines the **canonical** mapping every serving answer is
/// judged against (the oracle's `server-agreement` invariant rebuilds it
/// independently):
///
/// * query labels are sorted and de-duplicated; their position in that
///   sorted list is the dense local [`LabelId`],
/// * a stored row joins the slice iff its value lies in `[from, to]` and it
///   carries at least one query label,
/// * each joining row becomes a [`Post`] with `PostId(row.id)`, the row's
///   value, and only the intersected labels (remapped to local ids) — so
///   the [`Instance`] sorts by `(value, external id)` and the tie-break is
///   reproducible from the raw rows alone.
pub struct Slice {
    /// The solver-ready instance over the slice.
    pub instance: Instance,
    /// Dense local label id -> global label (sorted query label list).
    pub label_map: Vec<u16>,
}

impl Slice {
    /// Maps a solver-selected post (index into `instance.posts()`) back to
    /// an external [`Record`]: external id, value, and the post's slice
    /// labels translated back to global label ids.
    pub fn record_for(&self, post: u32) -> Record {
        let p = self.instance.post(post);
        Record {
            id: p.id().0,
            value: p.value(),
            labels: p
                .labels()
                .iter()
                .map(|l| self.label_map[l.index()])
                .collect(),
        }
    }
}

/// Append-only, time-partitioned post store with inverted label indexes.
///
/// Ingest enforces the streaming contract: non-decreasing dimension values
/// ([`MqdError::NonMonotoneTimestamp`]) and at least one label per row
/// ([`MqdError::EmptyLabelSet`]). Every successful append bumps the
/// generation counter that [`crate::CoverCache`] keys invalidation on.
pub struct Store {
    segments: Vec<Segment>,
    segment_target: usize,
    total_rows: u64,
    label_counts: HashMap<u16, u64>,
    generation: u64,
    last_value: Option<i64>,
}

impl Store {
    /// An empty store with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_target(SEGMENT_TARGET_ROWS)
    }

    /// An empty store whose segments roll over after `target` rows
    /// (test hook; serving uses [`SEGMENT_TARGET_ROWS`]).
    pub fn with_segment_target(target: usize) -> Self {
        Store {
            segments: Vec::new(),
            segment_target: target.max(1),
            total_rows: 0,
            label_counts: HashMap::new(),
            generation: 0,
            last_value: None,
        }
    }

    /// Appends one row. The row's labels are normalized (sorted, deduped)
    /// on the way in; `row` numbers in errors are 1-based ingest positions.
    pub fn append(&mut self, mut row: Record) -> Result<(), MqdError> {
        let row_no = self.total_rows as usize + 1;
        row.labels.sort_unstable();
        row.labels.dedup();
        if row.labels.is_empty() {
            return Err(MqdError::EmptyLabelSet { row: row_no });
        }
        if let Some(prev) = self.last_value {
            if row.value < prev {
                return Err(MqdError::NonMonotoneTimestamp {
                    row: row_no,
                    prev,
                    got: row.value,
                });
            }
        }
        self.last_value = Some(row.value);
        for &l in &row.labels {
            *self.label_counts.entry(l).or_insert(0) += 1;
        }
        match self.segments.last_mut() {
            Some(seg) if seg.rows.len() < self.segment_target => seg.push(row),
            _ => self.segments.push(Segment::new(row)),
        }
        self.total_rows += 1;
        self.generation += 1;
        Ok(())
    }

    /// Validates `row` against the append contract *without* mutating the
    /// store, returning the normalized (sorted, deduped labels) record.
    /// The durable layer uses this to reject a row before it is written to
    /// the WAL — an invalid row must never be acked, logged, or replayed.
    pub fn check_append(&self, row: &Record) -> Result<Record, MqdError> {
        let row_no = self.total_rows as usize + 1;
        let mut labels = row.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        if labels.is_empty() {
            return Err(MqdError::EmptyLabelSet { row: row_no });
        }
        if let Some(prev) = self.last_value {
            if row.value < prev {
                return Err(MqdError::NonMonotoneTimestamp {
                    row: row_no,
                    prev,
                    got: row.value,
                });
            }
        }
        Ok(Record {
            id: row.id,
            value: row.value,
            labels,
        })
    }

    /// Seeds the cumulative counters of an **empty** store before recovery
    /// replays a retained suffix of the ingest history: `rows` earlier rows
    /// existed once (and were GC'd), so row numbering, `rows`, and the
    /// generation counter continue exactly where the uninterrupted process
    /// left them. No-op on a non-empty store.
    pub fn set_origin(&mut self, rows: u64) {
        if self.segments.is_empty() && self.total_rows == 0 {
            self.total_rows = rows;
            self.generation = rows;
        }
    }

    /// Retention GC: drops the `n` oldest segments (the durable layer
    /// decides `n` from its sealed-window metadata and the live λ-window
    /// leases). Cumulative counters (`rows`, `generation`) are untouched —
    /// they count ingest history, not residency — but `labels` and the
    /// value span are recomputed from the retained rows, so a restarted
    /// process replaying only the retained suffix reports identical stats.
    /// The newest segment is never dropped. Returns the rows dropped.
    pub fn drop_leading_segments(&mut self, n: usize) -> u64 {
        let n = n.min(self.segments.len().saturating_sub(1));
        if n == 0 {
            return 0;
        }
        // lint:allow(panic-path): n is clamped to segments.len() - 1 above
        let dropped: u64 = self.segments[..n].iter().map(|s| s.rows.len() as u64).sum();
        self.segments.drain(..n);
        self.label_counts.clear();
        for seg in &self.segments {
            for row in &seg.rows {
                for &l in &row.labels {
                    *self.label_counts.entry(l).or_insert(0) += 1;
                }
            }
        }
        dropped
    }

    /// The rows of the `index`-th retained segment, in arrival order with
    /// normalized labels (`None` past the newest). A segment holding
    /// [`Store::segment_target`] rows is complete and never changes again;
    /// the durable layer seals its blocks from these.
    pub fn segment_rows(&self, index: usize) -> Option<&[Record]> {
        self.segments.get(index).map(|seg| seg.rows.as_slice())
    }

    /// Rows per segment before a new one is opened.
    pub fn segment_target(&self) -> usize {
        self.segment_target
    }

    /// The newest ingested dimension value (`None` when nothing was ever
    /// appended since the origin). This is the retention clock's "now".
    pub fn last_value(&self) -> Option<i64> {
        self.last_value
    }

    /// Current generation; bumps on every append.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every label some retained row carries, ascending.
    pub fn labels(&self) -> Vec<u16> {
        // lint:allow(nondet-iter): sorted on the next line, before any caller sees the order
        let mut labels: Vec<u16> = self.label_counts.keys().copied().collect();
        labels.sort_unstable();
        labels
    }

    /// Store-wide counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            rows: self.total_rows,
            segments: self.segments.len(),
            labels: self.label_counts.len(),
            generation: self.generation,
            min_value: self.segments.first().map(|s| s.min_value),
            max_value: self.segments.last().map(|s| s.max_value),
        }
    }

    /// Carves the `(labels, [from, to])` slice out of the store (semantics
    /// documented on [`Slice`]). Only segments whose value span intersects
    /// the range are visited. Within one, rows are in value order, so the
    /// range is a contiguous run of row indices found by binary search, and
    /// the query labels' postings restricted to that run are merged: each
    /// row comes out once, in arrival order, together with the local ids of
    /// the lists it was in. Cost: O(segments + matching rows × query
    /// labels); the corpus is never scanned, sorted or copied.
    pub fn slice(&self, labels: &[u16], from: i64, to: i64) -> Slice {
        let mut label_map: Vec<u16> = labels.to_vec();
        label_map.sort_unstable();
        label_map.dedup();

        let mut posts: Vec<Post> = Vec::new();
        // Scratch, reused across segments and rows: the unread tail of each
        // query label's postings, and the row being assembled.
        let mut heads: Vec<(LabelId, &[u32])> = Vec::with_capacity(label_map.len());
        let mut locals: Vec<LabelId> = Vec::with_capacity(label_map.len());
        // Arrival order is value order; it can differ from `(value, id)`
        // order only inside a run of tied values.
        let mut ties_in_order = true;
        for seg in &self.segments {
            if seg.min_value > to || seg.max_value < from {
                continue;
            }
            let lo = seg.rows.partition_point(|r| r.value < from);
            let hi = seg.rows.partition_point(|r| r.value <= to);
            heads.clear();
            let mut listed = 0usize;
            for (local, global) in label_map.iter().enumerate() {
                let Some(list) = seg.postings.get(global) else {
                    continue;
                };
                let start = list.partition_point(|&i| (i as usize) < lo);
                let end = list.partition_point(|&i| (i as usize) < hi);
                if let Some(list) = list.get(start..end).filter(|l| !l.is_empty()) {
                    listed = listed.saturating_add(list.len());
                    heads.push((LabelId(local as u16), list));
                }
            }
            posts.reserve(listed.min(hi.saturating_sub(lo)));
            // `heads` is in ascending local id, so are each row's `locals`.
            while let Some(idx) = heads.iter().filter_map(|(_, l)| l.first().copied()).min() {
                locals.clear();
                for (local, list) in &mut heads {
                    if let Some((&first, rest)) = list.split_first() {
                        if first == idx {
                            locals.push(*local);
                            *list = rest;
                        }
                    }
                }
                let row = &seg.rows[idx as usize];
                ties_in_order &= posts
                    .last()
                    .is_none_or(|p| (p.value(), p.id().0) <= (row.value, row.id));
                posts.push(Post::from_sorted_labels(PostId(row.id), row.value, &locals));
            }
        }
        if !ties_in_order {
            for run in posts.chunk_by_mut(|a, b| a.value() == b.value()) {
                run.sort_by_key(Post::id);
            }
        }
        let instance = Instance::from_sorted_posts(posts, label_map.len())
            // lint:allow(panic-path): label_map assigns ids 0..len in this function, so density holds by construction
            .expect("local labels are dense by construction");
        Slice {
            instance,
            label_map,
        }
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, value: i64, labels: &[u16]) -> Record {
        Record {
            id,
            value,
            labels: labels.to_vec(),
        }
    }

    #[test]
    fn append_validates_the_stream_contract() {
        let mut s = Store::new();
        s.append(row(1, 10, &[0])).unwrap();
        assert_eq!(
            s.append(row(2, 10, &[])).unwrap_err(),
            MqdError::EmptyLabelSet { row: 2 }
        );
        assert_eq!(
            s.append(row(2, 5, &[0])).unwrap_err(),
            MqdError::NonMonotoneTimestamp {
                row: 2,
                prev: 10,
                got: 5
            }
        );
        s.append(row(2, 10, &[1, 1, 0])).unwrap(); // ties ok, labels deduped
        assert_eq!(s.stats().rows, 2);
        assert_eq!(s.stats().labels, 2);
    }

    #[test]
    fn generation_bumps_only_on_successful_append() {
        let mut s = Store::new();
        assert_eq!(s.generation(), 0);
        s.append(row(1, 10, &[0])).unwrap();
        assert_eq!(s.generation(), 1);
        let _ = s.append(row(2, 0, &[0])); // rejected: non-monotone
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn segments_roll_over_by_count() {
        let mut s = Store::with_segment_target(2);
        for i in 0..5 {
            s.append(row(i, i as i64, &[0])).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.segments, 3);
        assert_eq!(st.min_value, Some(0));
        assert_eq!(st.max_value, Some(4));
    }

    #[test]
    fn slice_intersects_labels_and_range() {
        let mut s = Store::with_segment_target(2);
        s.append(row(1, 10, &[0, 2])).unwrap();
        s.append(row(2, 20, &[1])).unwrap();
        s.append(row(3, 30, &[0])).unwrap();
        s.append(row(4, 40, &[2])).unwrap();

        // Labels {0, 2} over [10, 30]: rows 1 (labels 0,2) and 3 (label 0).
        let sl = s.slice(&[2, 0, 0], 10, 30);
        assert_eq!(sl.label_map, vec![0, 2]);
        assert_eq!(sl.instance.len(), 2);
        assert_eq!(sl.instance.num_labels(), 2);
        let r0 = sl.record_for(0);
        assert_eq!((r0.id, r0.value, r0.labels.clone()), (1, 10, vec![0, 2]));
        let r1 = sl.record_for(1);
        assert_eq!((r1.id, r1.value, r1.labels.clone()), (3, 30, vec![0]));
    }

    #[test]
    fn slice_skips_non_overlapping_segments() {
        let mut s = Store::with_segment_target(1);
        for i in 0..10 {
            s.append(row(i, i as i64 * 100, &[0])).unwrap();
        }
        let sl = s.slice(&[0], 250, 450);
        let ids: Vec<u64> = (0..sl.instance.len() as u32)
            .map(|i| sl.record_for(i).id)
            .collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn slice_handles_extreme_values() {
        let mut s = Store::new();
        s.append(row(1, i64::MIN, &[0])).unwrap();
        s.append(row(2, i64::MAX, &[0])).unwrap();
        let sl = s.slice(&[0], i64::MIN, i64::MAX);
        assert_eq!(sl.instance.len(), 2);
        let empty = s.slice(&[1], i64::MIN, i64::MAX);
        assert_eq!(empty.instance.len(), 0);
    }

    #[test]
    fn empty_store_slices_to_empty_instance() {
        let s = Store::new();
        let sl = s.slice(&[0, 1], 0, 100);
        assert!(sl.instance.is_empty());
        assert_eq!(sl.instance.num_labels(), 2);
        assert_eq!(s.stats().min_value, None);
    }
}
