//! The time-partitioned store: append-only segments with inverted indexes.
//!
//! A segment holds its rows in columns, never as a [`Record`] per row, and
//! each (row, label) pair once, as an offset in that label's posting list:
//!
//! ```text
//! ids        : Column                 row i's external id
//! values     : Column                 row i's value as an ordered key
//!                                      (`value_key`); non-decreasing, so
//!                                      arrival order is value order
//! postings   : Vec<(u16, Vec<u16>)>   (label, ascending row offsets), sorted
//!                                      by label: the inverted index, and the
//!                                      only copy of the rows' labels
//! ```
//!
//! A [`Column`] keeps a growing segment's rows as one `u64` word each.
//! A segment that reaches its target never changes again, so its columns
//! are repacked then, each row at the width its column's span needs, and
//! its posting lists cut to size. On the benchmark corpus (a few minutes
//! of ids and timestamps per segment) a full segment's row costs about 4
//! bytes of columns plus 2 per label: about 8 bytes for the usual one to
//! three labels, where a `Record` with its own label `Vec` cost about 82
//! once the allocator's per-block overhead is counted (DESIGN.md §12).
//! The labels the store holds are its segments' posting keys; nothing
//! counts them per row. [`Store::slice`] reads `values`, `ids` and the
//! postings; `Store::scan_picks` answers fixed-λ Scan and Scan+ by
//! galloping through one label's postings at a time, reading `values` and
//! `ids` only at the rows it probes; [`Store::segment_rows`] rebuilds a
//! segment's rows as a [`Rows`] batch from them, which is what the durable
//! layer seals blocks and rewrites its log from.

use std::ops::Range;

use mqd_core::record::{Record, RowRef, Rows};
use mqd_core::{Instance, InstanceBuilder, LabelId, MqdError, Post, PostId};

/// Rows per segment before a new one is opened. Segments are partitioned by
/// row count, not by time span: counts bound memory and index size directly
/// and stay overflow-free for values near the `i64` extremes.
pub const SEGMENT_TARGET_ROWS: usize = 4096;

/// The largest segment target: a segment of this many rows has row offsets
/// 0..=65 534, which its `u16` posting lists can address.
const MAX_SEGMENT_ROWS: usize = u16::MAX as usize;

/// A value's key in the `values` column: flipping the sign bit maps `i64`
/// order onto `u64` order, so the column is binary-searched as stored.
fn value_key(value: i64) -> u64 {
    value as u64 ^ 1 << 63
}

/// The value whose [`value_key`] is `key`.
fn key_value(key: u64) -> i64 {
    (key ^ 1 << 63) as i64
}

/// A column of `u64`s, frame-of-reference packed: row `i` is `base` plus
/// bits `[i·width, (i+1)·width)` of `words`, least significant first.
///
/// A growing column is `base 0, width 64`: one word per row, pushed as it
/// comes. [`Column::seal`] repacks it once, when its segment is full, at
/// `base = min` and `width = bits(max − min)`. Width 64 holds any span, so
/// there is no other layout. `words` always holds the word after the one
/// a row's last bit is in (a zero word at the end), so [`Column::get`]
/// reads two adjacent words with no branch on whether the row straddles
/// them.
struct Column {
    base: u64,
    width: u32,
    /// The low `width` bits: `u64::MAX` at width 64, 0 at width 0.
    mask: u64,
    len: usize,
    words: Vec<u64>,
}

impl Column {
    /// An empty growing column with room for `rows` rows, its segment's
    /// target: it fills up to exactly that, so it never reallocates.
    fn new(rows: usize) -> Self {
        let mut words = Vec::with_capacity(rows + 1);
        words.push(0);
        Column {
            base: 0,
            width: 64,
            mask: u64::MAX,
            len: 0,
            words,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends a row to a growing column (one never sealed).
    fn push(&mut self, v: u64) {
        // Row `len`'s word replaces the trailing zero word, which follows.
        self.words[self.len] = v;
        self.words.push(0);
        self.len += 1;
    }

    /// Row `i`, for `i < len`.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        let bit = i * self.width as usize;
        let (at, shift) = (bit / 64, (bit % 64) as u32);
        let low = self.words[at] >> shift;
        // `<< 1 << (63 - shift)` is `<< (64 - shift)`, which is 0 (not an
        // overflow) when the row starts a word.
        let high = self.words[at + 1] << 1 << (63 - shift);
        self.base + ((low | high) & self.mask)
    }

    /// The last row, if any.
    fn last(&self) -> Option<u64> {
        Some(self.get(self.len.checked_sub(1)?))
    }

    /// The rows in order.
    fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// The number of leading rows for which `pred` holds, as a slice's
    /// `partition_point`: the column must be partitioned by it.
    fn partition_point(&self, pred: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Repacks a growing column's rows at the width their span needs, into
    /// words cut to size: called once, when the segment is full and so
    /// immutable.
    fn seal(&mut self) {
        debug_assert_eq!((self.base, self.width), (0, 64), "sealed twice");
        // Growing: row `i` is word `i`.
        let rows = self.words.get(..self.len).unwrap_or_default();
        let (Some(&min), Some(&max)) = (rows.iter().min(), rows.iter().max()) else {
            return;
        };
        let width = u64::BITS - (max - min).leading_zeros();
        // Row `i` is read from word `i·width / 64` and the one after it.
        let mut words = vec![0u64; self.len * width as usize / 64 + 2];
        for (i, &v) in rows.iter().enumerate() {
            let (bit, d) = (i * width as usize, v - min);
            let (at, shift) = (bit / 64, (bit % 64) as u32);
            words[at] |= d << shift;
            words[at + 1] |= d >> 1 >> (63 - shift);
        }
        *self = Column {
            base: min,
            width,
            mask: u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0),
            len: self.len,
            words,
        };
    }
}

/// One bounded run of rows in arrival order, in columns (see the module
/// docs), with its own inverted index.
struct Segment {
    ids: Column,
    /// Each row's value as its [`value_key`].
    values: Column,
    /// Per label carried, ascending by label: the offsets of the rows
    /// carrying it, ascending (arrival order).
    postings: Vec<(u16, Vec<u16>)>,
}

impl Segment {
    /// An empty segment that will hold `rows` rows.
    fn new(rows: usize) -> Self {
        Segment {
            ids: Column::new(rows),
            values: Column::new(rows),
            postings: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Appends a row whose labels are sorted and deduped. The store pushes
    /// only into a segment holding fewer rows than its target, which is at
    /// most [`MAX_SEGMENT_ROWS`], so the row's offset fits a `u16`.
    fn push(&mut self, row: RowRef<'_>) {
        let idx = self.ids.len() as u16;
        for &l in row.labels {
            match self.postings.binary_search_by_key(&l, |&(label, _)| label) {
                Ok(at) => self.postings[at].1.push(idx),
                Err(at) => self.postings.insert(at, (l, vec![idx])),
            }
        }
        self.ids.push(row.id);
        self.values.push(value_key(row.value));
    }

    /// The posting list of `label`, if a row here carries it.
    fn postings(&self, label: u16) -> Option<&[u16]> {
        let at = (self.postings)
            .binary_search_by_key(&label, |&(l, _)| l)
            .ok()?;
        Some(&self.postings[at].1)
    }

    /// Repacks the columns and drops the growth slack of every posting
    /// list: called once, when the segment is full and so immutable.
    fn seal(&mut self) {
        self.ids.seal();
        self.values.seal();
        for (_, list) in &mut self.postings {
            list.shrink_to_fit();
        }
        self.postings.shrink_to_fit();
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
        let mut row = Record {
            id: 0,
            value: 0,
            labels: Vec::new(),
        };
        self.fill_record(post, &mut row);
        row
    }

    /// [`Slice::record_for`] written into `row`, whose label buffer is
    /// reused: a caller rendering every post allocates once, not per row.
    pub fn fill_record(&self, post: u32, row: &mut Record) {
        let p = self.instance.post(post);
        row.id = p.id().0;
        row.value = p.value();
        row.labels.clear();
        (row.labels).extend(p.labels().iter().map(|l| self.label_map[l.index()]));
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
    generation: u64,
    last_value: Option<i64>,
    /// Reused to normalize a row whose labels arrive unsorted or repeated.
    scratch: Vec<u16>,
}

impl Store {
    /// An empty store with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_target(SEGMENT_TARGET_ROWS)
    }

    /// An empty store whose segments roll over after `target` rows, clamped
    /// to 1..=65 535 (test hook; serving uses [`SEGMENT_TARGET_ROWS`]).
    pub fn with_segment_target(target: usize) -> Self {
        Store {
            segments: Vec::new(),
            segment_target: target.clamp(1, MAX_SEGMENT_ROWS),
            total_rows: 0,
            generation: 0,
            last_value: None,
            scratch: Vec::new(),
        }
    }

    /// Appends one row. The row's labels are normalized (sorted, deduped)
    /// on the way in; `row` numbers in errors are 1-based ingest positions.
    pub fn append(&mut self, row: Record) -> Result<(), MqdError> {
        self.append_logged(row.as_row(), |_| Ok(()))
    }

    /// [`Store::append`] with a write-ahead hook: the row is validated
    /// against the append contract and its labels normalized, once, then
    /// `log` sees the normalized row, and only if it succeeds does the row
    /// enter the store. On any error the store is unchanged. The durable
    /// layer writes its WAL frame in `log`, so an invalid row is never
    /// logged and a row whose frame was refused is never appended.
    pub fn append_logged(
        &mut self,
        row: RowRef<'_>,
        log: impl FnOnce(RowRef<'_>) -> Result<(), MqdError>,
    ) -> Result<(), MqdError> {
        let row_no = self.total_rows as usize + 1;
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
        let mut scratch = std::mem::take(&mut self.scratch);
        let labels = if row.labels.is_sorted_by(|a, b| a < b) {
            row.labels
        } else {
            scratch.clear();
            scratch.extend_from_slice(row.labels);
            scratch.sort_unstable();
            scratch.dedup();
            &scratch
        };
        let row = RowRef { labels, ..row };
        let logged = log(row);
        if logged.is_ok() {
            self.push(row);
        }
        self.scratch = scratch;
        logged
    }

    /// Adds a validated, normalized row.
    fn push(&mut self, row: RowRef<'_>) {
        self.last_value = Some(row.value);
        let target = self.segment_target;
        if self.segments.last().is_none_or(|seg| seg.len() >= target) {
            self.segments.push(Segment::new(target));
        }
        if let Some(seg) = self.segments.last_mut() {
            seg.push(row);
            if seg.len() == target {
                seg.seal();
            }
        }
        self.total_rows += 1;
        self.generation += 1;
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
    /// they count ingest history, not residency — while `labels` and the
    /// value span are read from the retained segments, so a restarted
    /// process replaying only the retained suffix reports identical stats.
    /// The newest segment is never dropped. Returns the rows dropped.
    pub fn drop_leading_segments(&mut self, n: usize) -> u64 {
        let n = n.min(self.segments.len().saturating_sub(1));
        self.segments.drain(..n).map(|seg| seg.len() as u64).sum()
    }

    /// The rows of the `index`-th retained segment, in arrival order with
    /// normalized labels (`None` past the newest), rebuilt from its
    /// postings: the segment keeps no other copy of its labels. A segment
    /// holding [`Store::segment_target`] rows is complete and never changes
    /// again; the durable layer seals its blocks, and rewrites its log,
    /// from these.
    pub fn segment_rows(&self, index: usize) -> Option<Rows> {
        let seg = self.segments.get(index)?;
        // Sorted by label, so each row's labels come out ascending, as
        // they were normalized on the way in.
        let postings = seg.postings.iter().map(|(l, list)| (*l, list.as_slice()));
        let ids = seg.ids.iter().collect();
        let values = seg.values.iter().map(key_value).collect();
        Some(Rows::from_postings(ids, values, postings))
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

    /// Every label some retained row carries, ascending: the segments'
    /// posting keys.
    pub fn labels(&self) -> Vec<u16> {
        let mut labels: Vec<u16> = Vec::new();
        for seg in &self.segments {
            labels.extend(seg.postings.iter().map(|&(l, _)| l));
        }
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Store-wide counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            rows: self.total_rows,
            segments: self.segments.len(),
            labels: self.labels().len(),
            generation: self.generation,
            min_value: (self.segments.first())
                .and_then(|s| s.values.iter().next())
                .map(key_value),
            max_value: (self.segments.last())
                .and_then(|s| s.values.last())
                .map(key_value),
        }
    }

    /// Carves the `(labels, [from, to])` slice out of the store (semantics
    /// documented on [`Slice`]). Only segments whose value span intersects
    /// the range are visited. Within one, rows are in value order, so the
    /// range is a contiguous run of row indices found by binary search over
    /// the `values` column, and the query labels' postings restricted to
    /// that run are merged: each row comes out once, in arrival order,
    /// together with the local ids of the lists it was in, and goes
    /// straight into the [`InstanceBuilder`], which indexes it as it comes.
    /// The runs' lengths, taken before the merge, size the posts and every
    /// posting list once. Cost: O(segments + matching rows × query labels);
    /// the corpus is never scanned, sorted or copied.
    pub fn slice(&self, labels: &[u16], from: i64, to: i64) -> Slice {
        let mut label_map: Vec<u16> = labels.to_vec();
        label_map.sort_unstable();
        label_map.dedup();

        // Every visited segment's query-label postings in range, in
        // ascending local id, and where its share of them ends.
        let mut runs: Vec<(LabelId, &[u16])> = Vec::new();
        let mut segments: Vec<(&Segment, usize)> = Vec::new();
        // Per local label, its postings in range; and at most how many
        // posts the slice holds: per segment, the fewer of the postings
        // listed and the rows in range.
        let mut sizes = vec![0usize; label_map.len()];
        let mut posts = 0usize;
        for cut in self.cuts(from, to) {
            let mut listed = 0usize;
            for (local, global) in label_map.iter().enumerate() {
                if let Some(Part { list, .. }) = cut.part(*global) {
                    listed = listed.saturating_add(list.len());
                    sizes[local] += list.len();
                    runs.push((LabelId(local as u16), list));
                }
            }
            posts = posts.saturating_add(listed.min(cut.rows.len()));
            segments.push((cut.seg, runs.len()));
        }

        let mut builder = InstanceBuilder::with_capacity(posts, &sizes);
        // The row being assembled: ascending local ids, as `runs` is.
        let mut locals: Vec<LabelId> = Vec::with_capacity(label_map.len());
        let mut start = 0;
        for (seg, end) in segments {
            let heads = runs.get_mut(start..end).unwrap_or_default();
            start = end;
            while let Some(idx) = heads.iter().filter_map(|(_, l)| l.first().copied()).min() {
                locals.clear();
                for (local, list) in heads.iter_mut() {
                    if let Some((&first, rest)) = list.split_first() {
                        if first == idx {
                            locals.push(*local);
                            *list = rest;
                        }
                    }
                }
                let (id, value) = (
                    seg.ids.get(idx as usize),
                    key_value(seg.values.get(idx as usize)),
                );
                builder.push(Post::from_sorted_labels(PostId(id), value, &locals));
            }
        }
        let instance = builder
            .finish()
            // lint:allow(panic-path): label_map assigns ids 0..len in this function, so density holds by construction
            .expect("local labels are dense by construction");
        Slice {
            instance,
            label_map,
        }
    }

    /// The segments whose value span meets `[from, to]`, in order, each
    /// cut to its rows there by binary search over the `values` column.
    /// None when `from > to`.
    fn cuts(&self, from: i64, to: i64) -> impl Iterator<Item = Cut<'_>> {
        let (from_key, to_key) = (value_key(from), value_key(to));
        (self.segments.iter().enumerate()).filter_map(move |(at, seg)| {
            let (min, max) = (seg.values.iter().next()?, seg.values.last()?);
            if from > to || min > to_key || max < from_key {
                return None;
            }
            let lo = seg.values.partition_point(|k| k < from_key);
            let hi = seg.values.partition_point(|k| k <= to_key);
            Some(Cut {
                at,
                seg,
                rows: lo..hi,
            })
        })
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

/// A row a [`Store::scan_picks`] walk picked: where it is stored, then its
/// key, so picks order as they arrived.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Pick {
    seg: usize,
    row: u16,
    pub(crate) value: i64,
    pub(crate) id: u64,
}

/// The number of leading entries of the ascending `list` below `row`,
/// counted sixteen at a time: a cursor moves a few postings per pick, and
/// a count over a block has no branch to mispredict where a search has
/// one per probe.
fn skip_below(list: &[u16], row: u16) -> usize {
    let below = |block: &[u16]| block.iter().filter(|&&r| r < row).count();
    let mut at = 0;
    while let Some(block) = list.get(at..at + 16) {
        let n = below(block);
        if n < 16 {
            return at + n;
        }
        at += 16;
    }
    at + below(list.get(at..).unwrap_or_default())
}

/// One label's postings, read forward by a walk that asks about rows in
/// arrival order: it keeps the label's postings in the segment of the last
/// row asked about, from that row on, so a question costs a count over
/// the postings since the last one, and a lookup of the label per segment,
/// not per row.
struct LabelCursor<'a> {
    label: u16,
    /// The segment `list` belongs to (`usize::MAX` before the first row).
    seg: usize,
    /// The label's unread postings in `seg`; empty if it has none.
    list: &'a [u16],
}

impl<'a> LabelCursor<'a> {
    fn new(label: u16) -> Self {
        LabelCursor {
            label,
            seg: usize::MAX,
            list: &[],
        }
    }

    /// Whether the row `pick` names carries the label. Each pick must
    /// arrive no earlier than the one asked about before it.
    fn carries(&mut self, store: &'a Store, pick: &Pick) -> bool {
        if pick.seg != self.seg {
            self.seg = pick.seg;
            self.list = (store.segments.get(pick.seg))
                .and_then(|seg| seg.postings(self.label))
                .unwrap_or_default();
        }
        self.list = (self.list.get(skip_below(self.list, pick.row)..)).unwrap_or_default();
        self.list.first() == Some(&pick.row)
    }
}

/// A segment cut to its rows valued in a query's `[from, to]`: rows are
/// in value order within a segment, so they are one contiguous run.
struct Cut<'a> {
    /// The segment's index in the store.
    at: usize,
    seg: &'a Segment,
    rows: Range<usize>,
}

impl<'a> Cut<'a> {
    /// `label`'s postings inside the cut's rows, or `None` when none of
    /// the rows carries it.
    fn part(&self, label: u16) -> Option<Part<'a>> {
        let list = self.seg.postings(label)?;
        let start = list.partition_point(|&i| (i as usize) < self.rows.start);
        let end = list.partition_point(|&i| (i as usize) < self.rows.end);
        let list = list.get(start..end).filter(|l| !l.is_empty())?;
        let (at, seg) = (self.at, self.seg);
        Some(Part { at, seg, list })
    }
}

/// A cursor position in [`Postings`]: (part, offset in its list). Tuple
/// order is arrival order; `(parts.len(), 0)` is the end.
type Pos = (usize, usize);

/// One segment's share of a label's postings: the non-empty run of them
/// inside a query's range.
struct Part<'a> {
    /// The segment's index in the store.
    at: usize,
    seg: &'a Segment,
    list: &'a [u16],
}

impl Part<'_> {
    /// The value key of the posting at `i`.
    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.seg.values.get(self.list[i] as usize)
    }
}

/// One label's postings in `[from, to]`, across segments, in arrival
/// order: `LP(a)` of the slice, except that a run of tied values is in
/// arrival order rather than `(value, id)` order.
struct Postings<'a> {
    parts: Vec<Part<'a>>,
}

impl Postings<'_> {
    fn end(&self) -> Pos {
        (self.parts.len(), 0)
    }

    fn key(&self, (p, i): Pos) -> u64 {
        self.parts[p].key(i)
    }

    /// The position before `pos`, which must not be the first.
    fn before(&self, (p, i): Pos) -> Pos {
        match i.checked_sub(1) {
            Some(i) => (p, i),
            None => {
                let p = p.saturating_sub(1);
                (p, self.parts[p].list.len().saturating_sub(1))
            }
        }
    }

    /// The first position at or after `pos` whose value key exceeds
    /// `key`: a part that ends at or below it is stepped over on its last
    /// posting; inside the part the answer is in, galloping from `pos`
    /// brackets it and a binary search finds it, so a jump over `d`
    /// postings costs O(log d) reads.
    fn past(&self, (mut p, mut i): Pos, key: u64) -> Pos {
        while let Some(part) = self.parts.get(p) {
            let last = part.list.len().saturating_sub(1);
            if part.key(last) <= key {
                (p, i) = (p + 1, 0);
                continue;
            }
            if part.key(i) > key {
                return (p, i);
            }
            // key(lo) <= key < key(hi).
            let (mut lo, mut hi, mut step) = (i, last, 1);
            while lo + step < last {
                if part.key(lo + step) > key {
                    hi = lo + step;
                    break;
                }
                lo += step;
                step *= 2;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if part.key(mid) <= key {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return (p, hi);
        }
        self.end()
    }

    /// The greatest `(id, arrival)` of the run of postings tied with the
    /// one at `last`, which ends the run: the run is walked back, not
    /// searched, and on equal ids the later arrival, met first, stays.
    fn tie_winner(&self, last: Pos) -> Pick {
        let key = self.key(last);
        let pick = |(p, i): Pos| {
            let part = &self.parts[p];
            let row = part.list[i];
            Pick {
                value: key_value(key),
                id: part.seg.ids.get(row as usize),
                seg: part.at,
                row,
            }
        };
        let mut best = pick(last);
        let mut pos = last;
        while pos != (0, 0) {
            pos = self.before(pos);
            if self.key(pos) != key {
                break;
            }
            let tied = pick(pos);
            if tied.id > best.id {
                best = tied;
            }
        }
        best
    }

    /// The fixed-λ interval greedy over these postings, as `scan_label`
    /// runs it: from the first uncovered posting at value `t`, pick the
    /// last one valued at most `t + λ` (ties to the greatest `(id,
    /// arrival)`), then go past `pick + λ`. `covered` holds disjoint
    /// ascending value intervals that earlier labels' picks cover (Scan+):
    /// a posting inside one is skipped with every posting up to its end.
    fn scan(&self, lambda: i64, covered: &[(i64, i64)], picks: &mut Vec<Pick>) {
        let mut covered = covered.iter().peekable();
        let mut pos = (0, 0);
        while pos < self.end() {
            let t = key_value(self.key(pos));
            while covered.next_if(|&&(_, hi)| hi < t).is_some() {}
            if let Some(&&(_, hi)) = covered.peek().filter(|&&&(lo, _)| lo <= t) {
                pos = self.past(pos, value_key(hi));
                continue;
            }
            // Strictly after `pos`, whose value is at most `t + λ`.
            let reach = self.past(pos, value_key(t.saturating_add(lambda)));
            let pick = self.tie_winner(self.before(reach));
            picks.push(pick);
            pos = self.past(reach, value_key(pick.value.saturating_add(lambda)));
        }
    }
}

impl Store {
    /// The fixed-λ Scan picks of the labels `walk` (sorted, deduplicated)
    /// over the rows valued in `[from, to]`, in arrival order and
    /// deduplicated: the posts `solve_scan_cover` selects on the slice,
    /// found by galloping through each label's postings instead of carving
    /// the slice. With `plus`, Scan+ in `walk` order: a later label skips
    /// the values inside `[v − λ, v + λ]` of every earlier pick that
    /// carries it, which is what `solve_scan_plus` marks covered.
    pub(crate) fn scan_picks(
        &self,
        walk: &[u16],
        from: i64,
        to: i64,
        lambda: i64,
        plus: bool,
    ) -> Vec<Pick> {
        let mut picks = Vec::new();
        let cuts: Vec<Cut> = self.cuts(from, to).collect();
        // Scan+: per walked label, the intervals earlier picks cover.
        let mut covered: Vec<Vec<(i64, i64)>> = vec![Vec::new(); walk.len()];
        for (k, &label) in walk.iter().enumerate() {
            let postings = Postings {
                parts: cuts.iter().filter_map(|cut| cut.part(label)).collect(),
            };
            let mut intervals = std::mem::take(&mut covered[k]);
            intervals.sort_unstable();
            // Merged into disjoint ascending intervals.
            intervals.dedup_by(|next, run| {
                let overlaps = next.0 <= run.1;
                if overlaps {
                    run.1 = run.1.max(next.1);
                }
                overlaps
            });
            let first = picks.len();
            postings.scan(lambda, &intervals, &mut picks);
            if !plus {
                continue;
            }
            // One label's picks have ascending values, so they arrive in
            // order.
            let mut later: Vec<LabelCursor> = (walk.iter().skip(k + 1))
                .map(|&b| LabelCursor::new(b))
                .collect();
            for pick in picks.iter().skip(first) {
                let span = (
                    pick.value.saturating_sub(lambda),
                    pick.value.saturating_add(lambda),
                );
                for (cursor, intervals) in later.iter_mut().zip(covered.iter_mut().skip(k + 1)) {
                    if cursor.carries(self, pick) {
                        intervals.push(span);
                    }
                }
            }
        }
        // One ascending run per walked label, which a merge sort takes as
        // runs.
        picks.sort();
        picks.dedup();
        picks
    }

    /// The rows `picks` name, which must be in arrival order (as
    /// [`Store::scan_picks`] returns them), each with the labels among
    /// `labels` (ascending) it carries, found by one [`LabelCursor`] per
    /// label.
    pub(crate) fn pick_records(&self, picks: &[Pick], labels: &[u16]) -> Vec<Record> {
        let mut cursors: Vec<LabelCursor> = labels.iter().map(|&l| LabelCursor::new(l)).collect();
        (picks.iter())
            .map(|pick| Record {
                id: pick.id,
                value: pick.value,
                labels: (cursors.iter_mut())
                    .filter_map(|c| c.carries(self, pick).then_some(c.label))
                    .collect(),
            })
            .collect()
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

    fn column(rows: &[u64]) -> Column {
        let mut col = Column::new(rows.len());
        rows.iter().for_each(|&v| col.push(v));
        col
    }

    #[test]
    fn column_packs_rows_at_every_width() {
        // splitmix64: every bit of a draw is usable.
        let mut state = 0x5eed_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ state >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ z >> 31
        };
        for width in 0..=64u32 {
            let span = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            // Lengths whose last row ends mid-word and on a word boundary
            // (64 rows of any width fill whole words).
            for len in [2usize, 3, 64, 65, 131] {
                let base = draw().checked_shr(width).unwrap_or(0);
                let mut rows: Vec<u64> = (0..len).map(|_| base + (draw() & span)).collect();
                // The span's both ends, so the column needs exactly `width`.
                rows[0] = base;
                rows[1 + draw() as usize % (len - 1)] = base + span;
                let mut col = column(&rows);
                assert!(col.iter().eq(rows.iter().copied()), "width {width}");
                col.seal();
                let what = format!("width {width}, {len} rows");
                assert_eq!(col.width, width, "{what}");
                assert_eq!(col.words.len(), len * width as usize / 64 + 2, "{what}");
                assert!(col.iter().eq(rows.iter().copied()), "{what}");
                assert_eq!(col.last(), rows.last().copied(), "{what}");

                rows.sort_unstable();
                let mut col = column(&rows);
                col.seal();
                let probes = rows
                    .iter()
                    .flat_map(|&v| [v.wrapping_sub(1), v, v.wrapping_add(1)]);
                for probe in probes.chain([0, u64::MAX]) {
                    assert_eq!(
                        col.partition_point(|v| v < probe),
                        rows.partition_point(|&v| v < probe),
                        "{what}: < {probe}"
                    );
                    assert_eq!(
                        col.partition_point(|v| v <= probe),
                        rows.partition_point(|&v| v <= probe),
                        "{what}: <= {probe}"
                    );
                }
            }
        }
        // Width 0: a constant column is its base and two zero words.
        let mut constant = column(&[u64::MAX; 100]);
        constant.seal();
        assert_eq!(
            (constant.width, constant.words.as_slice()),
            (0, &[0, 0][..])
        );
        assert!(constant.iter().all(|v| v == u64::MAX));
        assert_eq!(constant.partition_point(|v| v < u64::MAX), 0);
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
        let ids: Vec<_> = (0..sl.instance.len() as u32)
            .map(|i| sl.record_for(i).id)
            .collect();
        assert_eq!(ids, [3, 4]);
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

    #[test]
    fn append_logged_logs_the_normalized_row_and_keeps_refused_rows_out() {
        let mut s = Store::with_segment_target(2);
        let mut logged = Vec::new();
        s.append_logged(row(1, 10, &[3, 1, 3]).as_row(), |r| {
            logged.push(r.labels.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(logged, [vec![1, 3]]);
        let disk = || MqdError::Io("disk".into());
        let refused = s.append_logged(row(2, 20, &[0]).as_row(), |_| Err(disk()));
        assert_eq!(refused, Err(disk()));
        assert_eq!(s.generation(), 1);
        assert_eq!(s.last_value(), Some(10));
        assert_eq!(s.labels(), [1, 3]);
        let invalid = s.append_logged(row(3, 5, &[0]).as_row(), |_| panic!("logged"));
        assert!(matches!(
            invalid,
            Err(MqdError::NonMonotoneTimestamp { row: 2, .. })
        ));
        s.append(row(2, 20, &[0])).unwrap();
        let rows: Vec<(u64, i64, Vec<u16>)> = s
            .segment_rows(0)
            .unwrap()
            .iter()
            .map(|r| (r.id, r.value, r.labels.to_vec()))
            .collect();
        assert_eq!(rows, [(1, 10, vec![1, 3]), (2, 20, vec![0])]);
    }

    /// `pick_records` finds each pick's labels with one forward cursor per
    /// label; they must be the labels `segment_rows` rebuilds for the row,
    /// among the ones asked for. Tie runs straddle the small segments, some
    /// labels are absent from some segments (label 9 from all of them), and
    /// the picks are every row, a sparse subset of rows, and the walks'.
    #[test]
    fn cursor_labels_equal_the_rebuilt_rows() {
        let mut state = 0x0C0F_FEE5_u64;
        let mut below = |n: u64| {
            state = (state.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut rows = Vec::new();
        let mut value = 0i64;
        for i in 0..300u64 {
            value += [0, 0, 0, 1, 5][below(5) as usize];
            // Labels 6 and 7 come and go in stretches of 40 rows.
            let mut labels: Vec<u16> = (0..1 + below(3)).map(|_| below(6) as u16).collect();
            if (i / 40) % 2 == 0 && below(2) == 0 {
                labels.push(6 + (i / 80 % 2) as u16);
            }
            rows.push(row(1_000 - i * 7 % 997, value, &labels));
        }
        let asked: [&[u16]; 4] = [&[0, 1, 2, 3, 4, 5, 6, 7, 9], &[6], &[2, 7, 9], &[9]];
        for target in [1, 3, 64] {
            let mut s = Store::with_segment_target(target);
            rows.iter().for_each(|r| s.append(r.clone()).unwrap());
            // Every row as a pick, in arrival order, with its rebuilt labels.
            let mut all: Vec<(Pick, Vec<u16>)> = Vec::new();
            for seg in 0..s.segments.len() {
                let rebuilt = s.segment_rows(seg).unwrap();
                for (row, r) in rebuilt.iter().enumerate() {
                    let pick = Pick {
                        seg,
                        row: row as u16,
                        value: r.value,
                        id: r.id,
                    };
                    all.push((pick, r.labels.to_vec()));
                }
            }
            let check = |picks: &[(Pick, Vec<u16>)], what: &str| {
                for labels in asked {
                    let only: Vec<Pick> = picks.iter().map(|(p, _)| *p).collect();
                    let got = s.pick_records(&only, labels);
                    assert_eq!(got.len(), picks.len());
                    for (record, (pick, carried)) in got.iter().zip(picks) {
                        let want: Vec<u16> = (labels.iter().copied())
                            .filter(|l| carried.contains(l))
                            .collect();
                        let at = format!("target {target} {what} {pick:?} {labels:?}");
                        assert_eq!((record.id, record.value), (pick.id, pick.value), "{at}");
                        assert_eq!(record.labels, want, "{at}");
                    }
                }
            };
            check(&all, "every row");
            let sparse: Vec<(Pick, Vec<u16>)> =
                all.iter().filter(|_| below(7) == 0).cloned().collect();
            check(&sparse, "sparse");
            for lambda in [0, 3, 40] {
                for plus in [false, true] {
                    let walk = [0, 2, 6, 7, 9];
                    let picks = s.scan_picks(&walk, i64::MIN, i64::MAX, lambda, plus);
                    let picked: Vec<(Pick, Vec<u16>)> = (all.iter())
                        .filter(|(p, _)| picks.binary_search(p).is_ok())
                        .cloned()
                        .collect();
                    assert_eq!(picked.len(), picks.len(), "picks are rows");
                    check(&picked, &format!("walk λ {lambda} plus {plus}"));
                }
            }
        }
    }

    #[test]
    fn gc_leaves_the_labels_of_the_retained_postings() {
        let mut s = Store::with_segment_target(2);
        let mut retained = Store::with_segment_target(2);
        for (i, labels) in [[5, 0], [5, 1], [1, 2], [2, 2], [3, 0]].iter().enumerate() {
            s.append(row(i as u64, i as i64, labels)).unwrap();
            if i >= 2 {
                retained.append(row(i as u64, i as i64, labels)).unwrap();
            }
        }
        assert_eq!(s.drop_leading_segments(1), 2);
        assert_eq!(s.labels(), [0, 1, 2, 3], "label 5 left with its segment");
        assert_eq!(s.labels(), retained.labels());
        assert_eq!(s.stats().labels, 4);
        assert_eq!(retained.stats().labels, 4);
        assert_eq!(s.stats().min_value, Some(2));
    }
}
