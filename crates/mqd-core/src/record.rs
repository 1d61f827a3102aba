//! The workspace's shared labeled-post record and its two wire forms.
//!
//! A [`Record`] is the external representation of one labeled post —
//! `(id, value, labels)` — before it becomes an [`crate::Instance`] post.
//! [`RowRef`] is the same row borrowed: [`put_rows`] reads rows through
//! it, so a batch is encoded in place. [`Rows`] is a batch of rows in
//! columns — what a bulk path decodes into (an `INGESTB` body on the
//! server, a sealed block on recovery) and what the store rebuilds a
//! segment into to seal it. The router decodes an `INGESTB` body straight
//! into per-shard bodies instead ([`split_by_shard`]). One decode loop
//! serves [`Rows`], the `Vec<Record>` of [`decode_records`] and that
//! [`ShardSplit`]; it is generic over where a decoded row goes, so none
//! converts into another and every decode check is written once.
//! Historically the TSV row format and the MQDL binary-log framing lived in
//! the CLI crate while the server and store grew their own copies; this
//! module is now the **single** implementation of both encodings, so an
//! `INGEST` batch on the wire, a CLI binlog and an on-disk store segment can
//! never drift apart:
//!
//! * **MQDL binary log** ([`encode_records`] / [`decode_records`], and
//!   [`encode_rows`] / [`decode_rows`] for a [`Rows`] batch):
//!
//!   ```text
//!   header : b"MQDL" + version(u8)
//!   record : varint(id delta) + zigzag-varint(value delta)
//!            + varint(label count) + varint(label)*
//!   footer : b"END!" + u64 FNV-1a checksum of everything before it
//!   ```
//!
//!   Ids and dimension values are delta-encoded against the previous record
//!   (streams are time-sorted, so deltas are small) and the trailing
//!   checksum turns truncation or bit rot into a typed
//!   [`MqdError::Corrupt`] carrying the byte offset.
//!
//! * **TSV row** ([`parse_tsv_line`] / [`write_tsv`]):
//!   `id \t value \t label,label,...` — the line-oriented form used by the
//!   CLI files and the server's line protocol. Malformed rows are typed
//!   [`MqdError::Parse`] errors carrying the 1-based line number.
//!   [`write_tsv`] is the one renderer: it appends a row's bytes to a
//!   caller's buffer, and [`format_tsv`] is its `String` face.
//!   [`read_tsv_records`] / [`write_tsv_records`] read and write a whole
//!   file of them.
//!
//! * **Rendered rows** ([`TsvRows`]): a whole answer in the form it is
//!   served in — every row's TSV bytes, newline-terminated, in one buffer,
//!   plus the row count. It is what the serving cache holds (once, behind
//!   an `Arc`) and what a response writes, so the renderer *is* the wire:
//!   a row holds digits, `-`, tabs and commas only, never a line break and
//!   never a leading `.`, which is why the protocol writes these bytes
//!   without looking at them again. There is no per-row index: a row's
//!   `(value, id)` key is parsed from its text on the few probes of
//!   [`TsvRows::truncate_from`]'s search, so the bytes held per row
//!   are the bytes sent per row and no offset can outgrow its integer.

use std::io::{BufRead, Read, Write};

use crate::error::MqdError;
use crate::wire::{
    check_framed, put_varint, seal_framed, shard_of_label, unzigzag, zigzag, Cursor,
    MAX_SHARD_COUNT,
};
use crate::{Instance, LabelId, Post, PostId};

const MAGIC: &[u8; 4] = b"MQDL";
const FOOTER: &[u8; 4] = crate::wire::FRAME_FOOTER;
const VERSION: u8 = 1;

/// One labeled post row: the unit of ingest, binlogs and store segments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// External post id.
    pub id: u64,
    /// Diversity-dimension value (ms for time, fixed-point for sentiment).
    pub value: i64,
    /// Matched label ids.
    pub labels: Vec<u16>,
}

/// One row borrowed from wherever it lives: the face every row encoder
/// reads, so a store that keeps its rows in columns encodes them without
/// building a [`Record`] per row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowRef<'a> {
    /// External post id.
    pub id: u64,
    /// Diversity-dimension value.
    pub value: i64,
    /// Matched label ids.
    pub labels: &'a [u16],
}

impl Record {
    /// This row as a [`RowRef`].
    pub fn as_row(&self) -> RowRef<'_> {
        RowRef {
            id: self.id,
            value: self.value,
            labels: &self.labels,
        }
    }
}

impl<'a> From<&'a Record> for RowRef<'a> {
    fn from(r: &'a Record) -> Self {
        r.as_row()
    }
}

/// Converts records into an [`Instance`] whose label space is the
/// largest label id + 1 (at least 1).
pub fn to_instance(rows: &[Record]) -> Result<Instance, MqdError> {
    let num_labels = rows
        .iter()
        .flat_map(|r| r.labels.iter().copied())
        .max()
        .map_or(0, |m| m as usize + 1)
        .max(1);
    let posts: Vec<Post> = rows
        .iter()
        .map(|r| {
            Post::new(
                PostId(r.id),
                r.value,
                r.labels.iter().map(|&l| LabelId(l)).collect(),
            )
        })
        .collect();
    Instance::from_posts(posts, num_labels)
}

/// Enforces the streaming input contract on parsed rows: timestamps must
/// be non-decreasing (arrival order) and every post must carry at least one
/// label (a post matching no query has no place in the pipeline).
///
/// Offline commands tolerate both — [`to_instance`] re-sorts and unlabeled
/// posts are simply never selected — but a streaming deployment must reject
/// such input up front rather than silently reorder or drop it. Row numbers
/// are 1-based positions in the parsed stream.
pub fn validate_stream(rows: &[Record]) -> Result<(), MqdError> {
    let mut prev: Option<i64> = None;
    for (i, r) in rows.iter().enumerate() {
        if let Some(refusal) = Refusal::check(prev, r.as_row()) {
            return Err(refusal.error(i + 1));
        }
        prev = Some(r.value);
    }
    Ok(())
}

/// How a row breaks the streaming append contract of [`validate_stream`]
/// (and of a store's append): it carries no label, or its value is below
/// the value of the row before it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refusal {
    /// The row carries no label.
    EmptyLabelSet,
    /// The row's value `got` is below `prev`, the value before it.
    NonMonotone {
        /// The value of the row before.
        prev: i64,
        /// The row's own value.
        got: i64,
    },
}

impl Refusal {
    /// How `row` breaks the contract after a row valued `prev` (`None`
    /// before the first row), if it does.
    pub fn check(prev: Option<i64>, row: RowRef<'_>) -> Option<Refusal> {
        if row.labels.is_empty() {
            return Some(Refusal::EmptyLabelSet);
        }
        match prev {
            Some(prev) if row.value < prev => Some(Refusal::NonMonotone {
                prev,
                got: row.value,
            }),
            _ => None,
        }
    }

    /// The typed error for this refusal at 1-based row `row`.
    pub fn error(self, row: usize) -> MqdError {
        match self {
            Refusal::EmptyLabelSet => MqdError::EmptyLabelSet { row },
            Refusal::NonMonotone { prev, got } => MqdError::NonMonotoneTimestamp { row, prev, got },
        }
    }
}

/// A batch of rows in columns, never a [`Record`] per row:
///
/// ```text
/// ids        : Vec<u64>   row i's external id
/// values     : Vec<i64>   row i's value
/// label_ends : Vec<u32>   row i's labels are labels[label_ends[i-1]..label_ends[i]]
/// labels     : Vec<u16>   the label arena: every row's labels, back to back
/// ```
///
/// Rows keep their labels as given (the store normalizes on append). The
/// arena is addressed by `u32` ends, so a batch holds at most `u32::MAX`
/// labels in all: a rebuilt store segment (at most 65 535 rows of at most
/// 65 536 labels) stays below that, and a decoded batch cannot exceed it
/// (a label takes a byte of a section checked to be smaller).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Rows {
    ids: Vec<u64>,
    values: Vec<i64>,
    label_ends: Vec<u32>,
    labels: Vec<u16>,
}

impl Rows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// No rows, with room for `rows` rows carrying `labels` labels in all.
    pub fn with_capacity(rows: usize, labels: usize) -> Self {
        Rows {
            ids: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows),
            label_ends: Vec::with_capacity(rows),
            labels: Vec::with_capacity(labels),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a row, copying its labels into the arena.
    pub fn push(&mut self, row: RowRef<'_>) {
        self.ids.push(row.id);
        self.values.push(row.value);
        self.labels.extend_from_slice(row.labels);
        self.end_row();
    }

    /// Closes the row whose labels were appended to the arena last.
    fn end_row(&mut self) {
        let end = u32::try_from(self.labels.len()).expect("a batch holds at most u32::MAX labels");
        self.label_ends.push(end);
    }

    /// The rows an inverted index holds: row `i` is `ids[i]` and
    /// `values[i]` carrying every label whose offset list holds `i`, in
    /// the order `postings` yields the labels. The columns become the
    /// batch's own. One pass counts each row's labels, a second writes
    /// them into its run of the arena. Panics when `values` is not as long
    /// as `ids` or an offset is not below it.
    pub fn from_postings<'a, P>(ids: Vec<u64>, values: Vec<i64>, postings: P) -> Rows
    where
        P: IntoIterator<Item = (u16, &'a [u16])>,
        P::IntoIter: Clone,
    {
        assert_eq!(ids.len(), values.len(), "one value per id");
        let postings = postings.into_iter();
        // Row i's label count, then where its run starts, then (once its
        // labels are written) where it ends.
        let mut label_ends = vec![0u32; ids.len()];
        for (_, list) in postings.clone() {
            for &i in list {
                label_ends[i as usize] += 1;
            }
        }
        let mut start = 0u32;
        for end in &mut label_ends {
            let n = std::mem::replace(end, start);
            start = start
                .checked_add(n)
                .expect("a batch holds at most u32::MAX labels");
        }
        let mut labels = vec![0u16; start as usize];
        for (label, list) in postings {
            for &i in list {
                let at = &mut label_ends[i as usize];
                labels[*at as usize] = label;
                *at += 1;
            }
        }
        Rows {
            ids,
            values,
            label_ends,
            labels,
        }
    }

    /// Row `i`, borrowed from the columns. Panics when `i >= len`.
    pub fn get(&self, i: usize) -> RowRef<'_> {
        let start = i.checked_sub(1).map_or(0, |p| self.label_ends[p] as usize);
        let end = self.label_ends[i] as usize;
        RowRef {
            id: self.ids[i],
            value: self.values[i],
            labels: self.labels.get(start..end).unwrap_or_default(),
        }
    }

    /// The rows in order, borrowed.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = RowRef<'_>> + DoubleEndedIterator + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The value column.
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

impl<'a, R: Into<RowRef<'a>>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut out = Rows::new();
        for r in rows {
            out.push(r.into());
        }
        out
    }
}

/// Serializes records into the MQDL binary-log format.
pub fn encode_records(rows: &[Record]) -> Vec<u8> {
    encode_log(rows.iter().map(Record::as_row))
}

/// Serializes a [`Rows`] batch into the MQDL binary-log format: the bytes
/// [`encode_records`] writes for the same rows.
pub fn encode_rows(rows: &Rows) -> Vec<u8> {
    encode_log(rows.iter())
}

fn encode_log<'a>(rows: impl ExactSizeIterator<Item = RowRef<'a>>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + rows.len() * 8);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_rows(&mut buf, rows);
    seal_framed(&mut buf, FOOTER);
    buf
}

/// Appends the MQDL row section (`varint(count) record*`, see the module
/// docs) to `buf`. The durable store's sealed blocks carry the same
/// section behind their own header, so there is one row codec.
pub fn put_rows<'a>(buf: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = RowRef<'a>>) {
    put_varint(buf, rows.len() as u64);
    let mut prev = (0, 0);
    for r in rows {
        put_row(buf, &mut prev, r);
    }
}

/// Appends one record of a row section: `row`'s id and value as deltas
/// against `prev`, the `(id, value)` of the row before it in the same
/// section (`(0, 0)` before the first), then its labels. `prev` becomes
/// `row`'s.
fn put_row(buf: &mut Vec<u8>, prev: &mut (u64, i64), row: RowRef<'_>) {
    put_varint(buf, zigzag(row.id.wrapping_sub(prev.0) as i64));
    put_varint(buf, zigzag(row.value.wrapping_sub(prev.1)));
    put_varint(buf, row.labels.len() as u64);
    for &l in row.labels {
        put_varint(buf, l as u64);
    }
    *prev = (row.id, row.value);
}

/// Deserializes an MQDL binary log, verifying magic, version and checksum.
/// Every failure is an [`MqdError::Corrupt`] naming the byte offset
/// (offset 0 for whole-file checks such as the checksum).
pub fn decode_records(data: &[u8]) -> Result<Vec<Record>, MqdError> {
    let mut rows = Vec::new();
    decode_log(data, usize::MAX, &mut rows)?;
    Ok(rows)
}

/// [`decode_records`] into a [`Rows`] batch, one allocation per column.
/// A section announcing more than `max_rows` rows is refused from its
/// header, before anything is reserved for it, with a
/// [`MqdError::Protocol`] error `batch of N rows exceeds limit M`; a count
/// the bytes cannot hold is [`MqdError::Corrupt`] first, as always.
pub fn decode_rows(data: &[u8], max_rows: usize) -> Result<Rows, MqdError> {
    let mut rows = Rows::new();
    decode_log(data, max_rows, &mut rows)?;
    Ok(rows)
}

/// An MQDL log split by label shard in the one pass that decodes it
/// ([`split_by_shard`]): per shard, the body of the rows it owns, and what
/// the split rows add to a ledger of everything routed before them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardSplit {
    /// Per shard, the MQDL log of the split rows owning one of its labels
    /// ([`shard_of_label`]), in order: the bytes [`encode_rows`] writes
    /// for them (a shard with no row gets a log of zero rows).
    pub bodies: Vec<Vec<u8>>,
    /// Per shard, the rows in its body.
    pub shard_rows: Vec<u64>,
    /// The rows split: the log's rows before the first [`Refusal`], or all
    /// of them.
    pub rows: usize,
    /// The labels the split rows carry: label `l` is bit `l % 64` of word
    /// `l / 64`.
    pub labels: Vec<u64>,
    /// The smallest value of a split row.
    pub min_value: Option<i64>,
    /// The largest value of a split row.
    pub max_value: Option<i64>,
    /// How row `rows` breaks the append contract, if one does. No row from
    /// it on is split.
    pub refusal: Option<Refusal>,
    /// Per shard, the `(id, value)` of the last row in its body: its next
    /// row's deltas are taken against it.
    prev: Vec<(u64, i64)>,
    /// The value the next row must not be below.
    last: Option<i64>,
    /// The labels of the row being decoded.
    scratch: Vec<u16>,
}

/// Decodes an MQDL log (an `INGESTB` body) and splits it by label shard
/// in one pass, with [`decode_rows`]' checks and errors: nothing is
/// materialised as a batch, and each shard's body is written as its rows
/// are decoded. A row goes, in order, to every one of the `shard_count`
/// shards owning one of its labels. The split stops at the first row
/// [`Refusal::check`] refuses after `last_value` (the last value routed
/// before this log), but the log is decoded to its end, so a corrupt tail
/// is still an error for the whole log. Panics when `shard_count` is not
/// in `1..=`[`MAX_SHARD_COUNT`].
pub fn split_by_shard(
    data: &[u8],
    max_rows: usize,
    shard_count: u32,
    last_value: Option<i64>,
) -> Result<ShardSplit, MqdError> {
    assert!(
        (1..=MAX_SHARD_COUNT).contains(&shard_count),
        "shard count {shard_count} outside 1..={MAX_SHARD_COUNT}"
    );
    let shards = shard_count as usize;
    let mut split = ShardSplit {
        bodies: vec![Vec::new(); shards],
        shard_rows: vec![0; shards],
        rows: 0,
        labels: vec![0; (u16::MAX as usize + 1) / 64],
        min_value: None,
        max_value: None,
        refusal: None,
        prev: vec![(0, 0); shards],
        last: last_value,
        scratch: Vec::new(),
    };
    decode_log(data, max_rows, &mut split)?;
    // Each body so far holds its records; put the header and the row
    // count in front and seal it.
    for (body, &rows) in split.bodies.iter_mut().zip(&split.shard_rows) {
        let mut log = Vec::with_capacity(MAGIC.len() + 11 + body.len() + FOOTER.len() + 8);
        log.extend_from_slice(MAGIC);
        log.push(VERSION);
        put_varint(&mut log, rows);
        log.extend_from_slice(body);
        seal_framed(&mut log, FOOTER);
        *body = log;
    }
    Ok(split)
}

impl ShardSplit {
    /// Splits one decoded row, unless a row before it was refused.
    fn split_row(&mut self, row: RowRef<'_>) {
        if self.refusal.is_some() {
            return;
        }
        if let Some(refusal) = Refusal::check(self.last, row) {
            self.refusal = Some(refusal);
            return;
        }
        let shard_count = self.bodies.len() as u32;
        let mut mask = 0u64;
        for &l in row.labels {
            mask |= 1 << shard_of_label(l, shard_count);
            self.labels[l as usize / 64] |= 1 << (l % 64);
        }
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            put_row(&mut self.bodies[s], &mut self.prev[s], row);
            self.shard_rows[s] += 1;
            mask &= mask - 1;
        }
        // Split rows never fall below the one before, so the first is the
        // smallest and the last the largest.
        self.rows += 1;
        self.last = Some(row.value);
        self.min_value.get_or_insert(row.value);
        self.max_value = Some(row.value);
    }
}

fn decode_log<S: RowSink>(data: &[u8], max_rows: usize, sink: &mut S) -> Result<(), MqdError> {
    let body = check_framed(data, FOOTER, MAGIC.len() + 1)?;

    let mut buf = Cursor::new(body);
    let magic: [u8; 4] = buf.get_array()?;
    if &magic != MAGIC {
        return Err(MqdError::Corrupt {
            offset: 0,
            reason: "bad magic (not an mqdiv binary log)".into(),
        });
    }
    let version = buf.get_u8()?;
    if version != VERSION {
        return Err(MqdError::Corrupt {
            offset: MAGIC.len(),
            reason: format!("unsupported version {version}"),
        });
    }
    read_rows(&mut buf, max_rows, sink)?;
    if buf.has_remaining() {
        return Err(buf.corrupt("trailing bytes after last record"));
    }
    Ok(())
}

/// Reads one MQDL row section (the inverse of [`put_rows`]) at the cursor
/// into a [`Rows`] batch. Counts are checked against the bytes left
/// before anything is allocated for them.
pub fn get_rows(buf: &mut Cursor) -> Result<Rows, MqdError> {
    let mut rows = Rows::new();
    read_rows(buf, usize::MAX, &mut rows)?;
    Ok(rows)
}

/// Where the decode loop puts a row.
trait RowSink {
    /// Most labels one section may carry into this sink.
    const MAX_LABELS: usize;
    /// Makes room for a section of `rows` rows carrying at most `labels`
    /// labels in all.
    fn reserve(&mut self, rows: usize, labels: usize);
    /// Appends row `(id, value)`, whose `n` labels `decode` appends to the
    /// buffer it is given.
    fn push_with(
        &mut self,
        id: u64,
        value: i64,
        n: usize,
        decode: impl FnOnce(&mut Vec<u16>) -> Result<(), MqdError>,
    ) -> Result<(), MqdError>;
}

impl RowSink for Rows {
    const MAX_LABELS: usize = u32::MAX as usize;

    fn reserve(&mut self, rows: usize, labels: usize) {
        self.ids.reserve(rows);
        self.values.reserve(rows);
        self.label_ends.reserve(rows);
        self.labels.reserve(labels);
    }

    /// The labels are decoded into the arena itself, reserved already.
    fn push_with(
        &mut self,
        id: u64,
        value: i64,
        _n: usize,
        decode: impl FnOnce(&mut Vec<u16>) -> Result<(), MqdError>,
    ) -> Result<(), MqdError> {
        decode(&mut self.labels)?;
        self.ids.push(id);
        self.values.push(value);
        self.end_row();
        Ok(())
    }
}

/// The `Vec<Record>` of [`decode_records`]: a row's labels are decoded into
/// a `Vec` of their exact size, which its `Record` keeps.
impl RowSink for Vec<Record> {
    const MAX_LABELS: usize = usize::MAX;

    fn reserve(&mut self, rows: usize, _labels: usize) {
        Vec::reserve(self, rows);
    }

    fn push_with(
        &mut self,
        id: u64,
        value: i64,
        n: usize,
        decode: impl FnOnce(&mut Vec<u16>) -> Result<(), MqdError>,
    ) -> Result<(), MqdError> {
        let mut labels = Vec::with_capacity(n);
        decode(&mut labels)?;
        self.push(Record { id, value, labels });
        Ok(())
    }
}

/// The split of [`split_by_shard`]: a row's labels are decoded into one
/// reused buffer, and the row is encoded into the bodies of its shards.
/// The limit is [`Rows`]', so both passes refuse the same sections.
impl RowSink for ShardSplit {
    const MAX_LABELS: usize = Rows::MAX_LABELS;

    /// A record re-encodes to about its own size, so a shard's body gets
    /// its share of the section's bytes, twice over (a row can go to more
    /// than one shard), and never more than all of them.
    fn reserve(&mut self, rows: usize, labels: usize) {
        let bytes = rows.saturating_mul(3).saturating_add(labels);
        let share = bytes.min(bytes / self.bodies.len() * 2);
        for body in &mut self.bodies {
            body.reserve(share);
        }
    }

    fn push_with(
        &mut self,
        id: u64,
        value: i64,
        _n: usize,
        decode: impl FnOnce(&mut Vec<u16>) -> Result<(), MqdError>,
    ) -> Result<(), MqdError> {
        let mut labels = std::mem::take(&mut self.scratch);
        labels.clear();
        let decoded = decode(&mut labels);
        if decoded.is_ok() {
            self.split_row(RowRef {
                id,
                value,
                labels: &labels,
            });
        }
        self.scratch = labels;
        decoded
    }
}

/// The one MQDL row-section decode loop, handing each row to `sink`.
fn read_rows<S: RowSink>(buf: &mut Cursor, max_rows: usize, sink: &mut S) -> Result<(), MqdError> {
    let count = buf.get_varint()?;
    // Each record encodes at least 3 bytes (id + value + label count), so
    // this also rejects a hostile count before allocating for it.
    let count = buf.plausible_len(count, 3, "record")?;
    if count > max_rows {
        return Err(MqdError::protocol(format!(
            "batch of {count} rows exceeds limit {max_rows}"
        )));
    }
    // Past those 3 bytes a row spends one more per label, which bounds
    // the labels of the whole section.
    let max_labels = buf.remaining().saturating_sub(count.saturating_mul(3));
    if max_labels > S::MAX_LABELS {
        return Err(buf.corrupt("row section too large for one batch"));
    }
    sink.reserve(count, max_labels);
    let mut prev_id = 0u64;
    let mut prev_value = 0i64;
    for _ in 0..count {
        let id = prev_id.wrapping_add(unzigzag(buf.get_varint()?) as u64);
        let value = prev_value.wrapping_add(buf.get_varint_i64()?);
        let n_labels = buf.get_varint()?;
        if n_labels > u16::MAX as u64 {
            return Err(buf.corrupt("label count out of range"));
        }
        let n_labels = buf.plausible_len(n_labels, 1, "label")?;
        sink.push_with(id, value, n_labels, |labels| {
            for _ in 0..n_labels {
                let l = buf.get_varint()?;
                if l > u16::MAX as u64 {
                    return Err(buf.corrupt("label id out of range"));
                }
                labels.push(l as u16);
            }
            Ok(())
        })?;
        prev_id = id;
        prev_value = value;
    }
    Ok(())
}

/// Writes records to a writer in binary-log format.
pub fn write_records(mut w: impl Write, rows: &[Record]) -> std::io::Result<()> {
    w.write_all(&encode_records(rows))
}

/// Reads a whole binary log from a reader.
pub fn read_records(mut r: impl Read) -> Result<Vec<Record>, MqdError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    decode_records(&data)
}

/// Reads a whole TSV file of rows ([`parse_tsv_line`]), skipping blank
/// lines and `#` comments. Malformed rows are typed [`MqdError::Parse`]
/// errors carrying the 1-based line number.
pub fn read_tsv_records(r: impl BufRead) -> Result<Vec<Record>, MqdError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        if let Some(row) = parse_tsv_line(&line?, i + 1)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Writes rows as a TSV file ([`format_tsv`]), one newline-terminated row
/// per line.
pub fn write_tsv_records(mut w: impl Write, rows: &[Record]) -> std::io::Result<()> {
    for r in rows {
        writeln!(w, "{}", format_tsv(r))?;
    }
    Ok(())
}

fn parse_err(line_no: usize, msg: impl std::fmt::Display) -> MqdError {
    MqdError::Parse {
        line: line_no,
        msg: msg.to_string(),
    }
}

/// Parses one TSV row (`id \t value \t label,label,...`). Returns
/// `Ok(None)` for blank lines and `#` comments; malformed rows are typed
/// [`MqdError::Parse`] errors carrying `line_no` (1-based).
pub fn parse_tsv_line(line: &str, line_no: usize) -> Result<Option<Record>, MqdError> {
    // Strip only the carriage return: a trailing tab is significant (an
    // empty label list serializes as `id\tvalue\t`).
    let line = line.trim_end_matches('\r');
    if line.trim().is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split('\t');
    let id: u64 = parts
        .next()
        .ok_or_else(|| parse_err(line_no, "missing id"))?
        .parse()
        .map_err(|e| parse_err(line_no, format!("bad id: {e}")))?;
    let value: i64 = parts
        .next()
        .ok_or_else(|| parse_err(line_no, "missing value"))?
        .parse()
        .map_err(|e| parse_err(line_no, format!("bad value: {e}")))?;
    let labels_str = parts
        .next()
        .ok_or_else(|| parse_err(line_no, "missing labels"))?;
    let mut labels = Vec::new();
    for l in labels_str.split(',').filter(|s| !s.is_empty()) {
        labels.push(
            l.parse()
                .map_err(|e| parse_err(line_no, format!("bad label '{l}': {e}")))?,
        );
    }
    if parts.next().is_some() {
        return Err(parse_err(line_no, "too many fields (expected 3)"));
    }
    Ok(Some(Record { id, value, labels }))
}

/// Appends the decimal digits of `n` to `buf`.
fn put_decimal(buf: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 digits; filled from the back.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Appends one record's TSV row (no trailing newline) to `buf`: the one
/// row renderer of the workspace. The bytes are ASCII digits, `-`, tabs
/// and commas only.
pub fn write_tsv(buf: &mut Vec<u8>, r: &Record) {
    put_decimal(buf, r.id);
    buf.push(b'\t');
    if r.value < 0 {
        buf.push(b'-');
    }
    put_decimal(buf, r.value.unsigned_abs());
    buf.push(b'\t');
    for (i, &l) in r.labels.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        put_decimal(buf, l as u64);
    }
}

/// Formats one record as its TSV row (no trailing newline): the `String`
/// face of [`write_tsv`].
pub fn format_tsv(r: &Record) -> String {
    // Most rows fit; a longer one grows the buffer as usual.
    let mut buf = Vec::with_capacity(32);
    write_tsv(&mut buf, r);
    String::from_utf8(buf).expect("a rendered row is ASCII")
}

/// The `(value, id)` sort key of the rendered row starting at byte `start`
/// of `text` (the row runs to the next `\n` or the end of `text`).
fn row_key(text: &[u8], start: usize) -> Result<(i64, u64), MqdError> {
    let corrupt = |reason: &str| MqdError::Corrupt {
        offset: start,
        reason: format!("rendered row: {reason}"),
    };
    let row = text.get(start..).unwrap_or_default();
    let mut fields = row.split(|&b| b == b'\t' || b == b'\n');
    let mut field = |what: &str| {
        let bytes = fields.next().ok_or_else(|| corrupt(what))?;
        std::str::from_utf8(bytes).map_err(|_| corrupt(what))
    };
    let id = field("missing id")?;
    let value = field("missing value")?;
    let id: u64 = id.parse().map_err(|_| corrupt("bad id"))?;
    let value: i64 = value.parse().map_err(|_| corrupt("bad value"))?;
    Ok((value, id))
}

/// A rendered answer: its rows' TSV bytes, each newline-terminated, in
/// one buffer, in the order given (see the module docs). Immutable once
/// shared; a holder that patches the tail of a cover does so on its own
/// copy ([`TsvRows::truncate_from`] then [`TsvRows::push`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TsvRows {
    text: Vec<u8>,
    /// Rows in `text`, i.e. its `\n` count.
    len: usize,
}

impl TsvRows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders `rows` in order. The buffer is cut to size, so a value kept
    /// for long holds no growth slack.
    pub fn from_records(rows: &[Record]) -> Self {
        let mut out = TsvRows {
            // A typical row is ~25 bytes; the guess only saves regrowth.
            text: Vec::with_capacity(rows.len().saturating_mul(32)),
            len: 0,
        };
        for r in rows {
            out.push(r);
        }
        out.text.shrink_to_fit();
        out
    }

    /// Appends one row.
    pub fn push(&mut self, r: &Record) {
        write_tsv(&mut self.text, r);
        self.text.push(b'\n');
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes: every row followed by `\n`.
    pub fn as_bytes(&self) -> &[u8] {
        &self.text
    }

    /// Parses the rows back. Text this type rendered always parses; bytes
    /// that do not (a blank row, a bad field, a row count that disagrees)
    /// are a typed error.
    pub fn to_records(&self) -> Result<Vec<Record>, MqdError> {
        let text = std::str::from_utf8(&self.text).map_err(|e| MqdError::Corrupt {
            offset: e.valid_up_to(),
            reason: "rendered rows: not UTF-8".into(),
        })?;
        let mut rows = Vec::with_capacity(self.len);
        for (i, line) in text.split_terminator('\n').enumerate() {
            let row = parse_tsv_line(line, i + 1)?.ok_or_else(|| parse_err(i + 1, "blank row"))?;
            rows.push(row);
        }
        if rows.len() != self.len || !(text.is_empty() || text.ends_with('\n')) {
            return Err(parse_err(rows.len(), "row count disagrees with the text"));
        }
        Ok(rows)
    }

    /// Drops every row whose `(value, id)` key is at or after `key`. The
    /// rows must be in ascending key order, as a cover's are. The cut is
    /// searched for over byte positions (a probe steps back to its row's
    /// start and parses the two leading fields): first backwards from the
    /// end in doubling strides, because a repaired cover is cut a few rows
    /// from its end, then by bisection, so it costs O(log of the bytes
    /// dropped) row parses plus a count of the rows dropped. On a typed
    /// error nothing has changed.
    pub fn truncate_from(&mut self, key: (i64, u64)) -> Result<(), MqdError> {
        let text = &self.text;
        // Invariant: `lo` and `hi` are row starts (or the end); rows
        // before `lo` sort below `key`, rows from `hi` on do not.
        let (mut lo, mut hi) = (0, text.len());
        let mut stride = Some(32usize); // about a row; `None` once bisecting
        while lo < hi {
            let at = match stride {
                Some(back) if back < hi - lo => hi - back,
                _ => lo + (hi - lo) / 2,
            };
            let start = text[lo..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(lo, |nl| lo + nl + 1);
            if row_key(text, start)? < key {
                let end = text[at..hi].iter().position(|&b| b == b'\n');
                lo = end.map_or(hi, |nl| at + nl + 1);
                stride = None;
            } else {
                hi = start;
                stride = stride.map(|back| back.saturating_mul(2));
            }
        }
        let dropped = text[lo..].iter().filter(|&&b| b == b'\n').count();
        self.len = self.len.saturating_sub(dropped);
        self.text.truncate(lo);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_rng::{RngExt, SeedableRng, StdRng};

    fn sample() -> Vec<Record> {
        vec![
            Record {
                id: 10,
                value: 1_000,
                labels: vec![0, 3],
            },
            Record {
                id: 11,
                value: 1_050,
                labels: vec![1],
            },
            Record {
                id: 15,
                value: 980, // values may go backwards (sentiment dimension)
                labels: vec![],
            },
        ]
    }

    #[test]
    fn binary_round_trip() {
        let rows = sample();
        assert_eq!(decode_records(&encode_records(&rows)).unwrap(), rows);
        assert!(decode_records(&encode_records(&[])).unwrap().is_empty());
    }

    #[test]
    fn binary_round_trip_extremes() {
        let rows = vec![
            Record {
                id: u64::MAX,
                value: i64::MIN,
                labels: vec![u16::MAX],
            },
            Record {
                id: 0,
                value: i64::MAX,
                labels: vec![0],
            },
        ];
        assert_eq!(decode_records(&encode_records(&rows)).unwrap(), rows);
    }

    #[test]
    fn rows_hold_the_records_in_columns() {
        let records = sample();
        let rows: Rows = records.iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(!rows.is_empty() && Rows::new().is_empty());
        assert_eq!(rows.values(), [1_000, 1_050, 980]);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(rows.get(i), r.as_row());
        }
        assert!(rows.iter().eq(records.iter().map(Record::as_row)));
        assert!(rows
            .iter()
            .rev()
            .eq(records.iter().rev().map(Record::as_row)));
        let mut it = rows.iter();
        assert_eq!(
            (it.next(), it.next_back()),
            (Some(rows.get(0)), Some(rows.get(2)))
        );
        assert_eq!(
            (it.len(), it.next(), it.next()),
            (1, Some(rows.get(1)), None)
        );
        assert_eq!(encode_rows(&rows), encode_records(&records));
        let mut sized = Rows::with_capacity(3, 3);
        records.iter().for_each(|r| sized.push(r.as_row()));
        assert_eq!(sized, rows);
    }

    #[test]
    fn rows_come_back_from_their_postings() {
        let records = sample();
        let rows: Rows = records.iter().collect();
        // The inverted index of `sample()`, labels ascending.
        let mut postings: Vec<(u16, Vec<u16>)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            for &l in &r.labels {
                match postings.iter_mut().find(|(label, _)| *label == l) {
                    Some((_, list)) => list.push(i as u16),
                    None => postings.push((l, vec![i as u16])),
                }
            }
        }
        postings.sort_unstable();
        let ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        let values: Vec<i64> = records.iter().map(|r| r.value).collect();
        let index = || postings.iter().map(|(l, list)| (*l, list.as_slice()));
        let batch = Rows::from_postings(ids.clone(), values.clone(), index());
        assert_eq!(batch, rows);
        // Labels come out in the order the postings yield them.
        let reversed = Rows::from_postings(ids, values, index().rev());
        for (r, want) in reversed.iter().zip(&records) {
            assert!(r.labels.iter().rev().eq(&want.labels));
        }
        let empty = Rows::from_postings(Vec::new(), Vec::new(), index().take(0));
        assert_eq!(empty, Rows::new());
    }

    #[test]
    fn decode_rows_is_decode_records_in_columns() {
        let mut rng = StdRng::seed_from_u64(0xc01);
        for case in 0..200 {
            let mut records = random_cover(&mut rng, [0, 1, 5, 80][case % 4]);
            // Repeated and unsorted labels are kept as given.
            if let Some(r) = records.first_mut() {
                r.labels.extend([7, 3, 7]);
            }
            let data = encode_records(&records);
            let rows = decode_rows(&data, usize::MAX).unwrap();
            assert!(
                rows.iter().eq(records.iter().map(Record::as_row)),
                "case {case}"
            );
            assert_eq!(decode_records(&data).unwrap(), records);
            let mut bad = data.clone();
            let at = rng.random_range(0..bad.len());
            bad[at] ^= 0x10;
            match (decode_rows(&bad, usize::MAX), decode_records(&bad)) {
                (Ok(rows), Ok(recs)) => assert!(rows.iter().eq(recs.iter().map(Record::as_row))),
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
                (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn decode_rows_refuses_a_batch_over_its_row_limit_from_the_header() {
        let data = encode_records(&sample());
        assert_eq!(decode_rows(&data, 3).unwrap().len(), 3);
        assert_eq!(
            decode_rows(&data, 2).unwrap_err(),
            MqdError::protocol("batch of 3 rows exceeds limit 2")
        );
        // A count the bytes cannot hold stays a corruption, limit or not.
        let mut body = data[..MAGIC.len() + 1].to_vec();
        put_varint(&mut body, 1 << 40);
        seal_framed(&mut body, FOOTER);
        assert!(matches!(
            decode_rows(&body, 2).unwrap_err(),
            MqdError::Corrupt { .. }
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let mut data = encode_records(&sample());
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        assert!(matches!(
            decode_records(&data).unwrap_err(),
            MqdError::Corrupt { .. }
        ));
    }

    #[test]
    fn truncation_reports_offset() {
        let data = encode_records(&sample());
        match decode_records(&data[..data.len() - 3]).unwrap_err() {
            MqdError::Corrupt { offset, reason } => {
                assert!(
                    reason.contains("end marker") || reason.contains("short"),
                    "{reason}"
                );
                assert!(offset <= data.len());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut data = encode_records(&sample());
        data[0] = b'X';
        // checksum covers magic, so a blind flip reports a checksum
        // failure; re-seal the frame over the bad magic to reach the
        // magic check itself.
        let err = decode_records(&data).unwrap_err();
        assert!(err.to_string().contains("checksum"));
        let mut body = data[..data.len() - FOOTER.len() - 8].to_vec();
        seal_framed(&mut body, FOOTER);
        let err = decode_records(&body).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn binary_is_smaller_than_tsv() {
        let rows: Vec<Record> = (0..2_000)
            .map(|i| Record {
                id: i,
                value: 1_370_000_000_000 + i as i64 * 137,
                labels: vec![(i % 5) as u16],
            })
            .collect();
        let bin = encode_records(&rows);
        let tsv: usize = rows.iter().map(|r| format_tsv(r).len() + 1).sum();
        assert!(bin.len() * 2 < tsv, "binary {} vs tsv {tsv}", bin.len());
    }

    #[test]
    fn tsv_round_trip() {
        for r in sample() {
            let line = format_tsv(&r);
            assert_eq!(parse_tsv_line(&line, 1).unwrap(), Some(r));
        }
        let mut file = Vec::new();
        write_tsv_records(&mut file, &sample()).unwrap();
        assert_eq!(read_tsv_records(file.as_slice()).unwrap(), sample());
    }

    /// The renderer as it stood before `write_tsv`, kept as the reference
    /// the new one must match byte for byte.
    fn format_tsv_reference(r: &Record) -> String {
        let labels: Vec<String> = r.labels.iter().map(|l| l.to_string()).collect();
        format!("{}\t{}\t{}", r.id, r.value, labels.join(","))
    }

    fn reference_text(rows: &[Record]) -> Vec<u8> {
        let lines = rows.iter().map(|r| format_tsv_reference(r) + "\n");
        lines.collect::<String>().into_bytes()
    }

    /// Rows in ascending `(value, id)` order with distinct keys; the
    /// extremes of every field are drawn often.
    fn random_cover(rng: &mut StdRng, n: usize) -> Vec<Record> {
        let mut keys: Vec<(i64, u64)> = (0..n)
            .map(|_| {
                let value = match rng.random_range(0..8u32) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => 0,
                    3 => -1,
                    _ => rng.random_range(-50..50i64), // runs of tied values
                };
                let id = match rng.random_range(0..6u32) {
                    0 => u64::MAX,
                    1 => 0,
                    _ => rng.random_range(0..1_000_000u64),
                };
                (value, id)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|(value, id)| {
                let k = rng.random_range(0..4usize); // 0: an empty label list
                let labels = (0..k).map(|_| match rng.random_range(0..4u32) {
                    0 => u16::MAX,
                    1 => 0,
                    _ => rng.random_range(0..500u16),
                });
                Record {
                    id,
                    value,
                    labels: labels.collect(),
                }
            })
            .collect()
    }

    #[test]
    fn rendered_rows_are_the_reference_bytes_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x7513);
        for case in 0..300 {
            let n = [0, 1, 2, 7, 60][case % 5];
            let rows = random_cover(&mut rng, n);
            let rendered = TsvRows::from_records(&rows);
            assert_eq!(rendered.as_bytes(), reference_text(&rows), "case {case}");
            assert_eq!(rendered.len(), rows.len());
            assert_eq!(rendered.is_empty(), rows.is_empty());
            assert_eq!(rendered.to_records().unwrap(), rows, "case {case}");
            let mut at = 0;
            for r in &rows {
                assert_eq!(format_tsv(r), format_tsv_reference(r));
                assert_eq!(row_key(rendered.as_bytes(), at).unwrap(), (r.value, r.id));
                at += format_tsv(r).len() + 1;
            }
        }
        assert_eq!(TsvRows::new(), TsvRows::from_records(&[]));
        assert!(TsvRows::new().as_bytes().is_empty());
    }

    #[test]
    fn truncate_then_push_equals_rendering_the_patched_rows() {
        let mut rng = StdRng::seed_from_u64(0xc07e5);
        for case in 0..300 {
            let rows = random_cover(&mut rng, [0, 1, 3, 40, 200][case % 5]);
            let tail = random_cover(&mut rng, case % 4);
            // Cut at a row's own key, between rows, below all and above all.
            let key = match (case % 3, rows.is_empty()) {
                (0, false) => {
                    let r = &rows[rng.random_range(0..rows.len())];
                    (r.value, r.id)
                }
                (1, _) => (
                    rng.random_range(-60..60i64),
                    rng.random_range(0..1_000_000u64),
                ),
                _ => [(i64::MIN, 0), (i64::MAX, u64::MAX)][case % 2],
            };
            let mut patched: Vec<Record> = rows.clone();
            patched.retain(|r| (r.value, r.id) < key);
            patched.extend(tail.iter().cloned());
            let mut rendered = TsvRows::from_records(&rows);
            rendered.truncate_from(key).unwrap();
            for r in &tail {
                rendered.push(r);
            }
            assert_eq!(rendered, TsvRows::from_records(&patched), "case {case}");
            assert_eq!(rendered.len(), patched.len());
        }
    }

    #[test]
    fn a_rendered_row_cannot_break_the_line_framing() {
        // The protocol writes these bytes unexamined between a status line
        // and the `.` terminator line.
        let mut rng = StdRng::seed_from_u64(0xf4a3e);
        let rows = random_cover(&mut rng, 500);
        let rendered = TsvRows::from_records(&rows);
        assert!(rendered
            .as_bytes()
            .iter()
            .all(|b| b.is_ascii_digit() || b"-\t,\n".contains(b)));
        let mut lines = 0;
        for line in rendered.as_bytes().split_inclusive(|&b| b == b'\n') {
            assert!(line[0].is_ascii_digit(), "a row starts with its id");
            assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
            lines += 1;
        }
        assert_eq!(lines, rows.len());
    }

    #[test]
    fn corrupted_rendered_text_is_a_typed_error() {
        let rows = sample();
        let good = TsvRows::from_records(&rows);
        let corrupt = |edit: &dyn Fn(&mut TsvRows)| {
            let mut bad = good.clone();
            edit(&mut bad);
            bad
        };
        let cases: Vec<(&str, TsvRows)> = vec![
            ("bad id", corrupt(&|t| t.text[0] = b'x')),
            ("not utf-8", corrupt(&|t| t.text[1] = 0xff)),
            (
                "missing field",
                corrupt(&|t| t.text.retain(|&b| b != b'\t')),
            ),
            ("blank row", corrupt(&|t| t.text.insert(0, b'\n'))),
            (
                "unterminated",
                corrupt(&|t| t.text.truncate(t.text.len() - 1)),
            ),
            ("count too high", corrupt(&|t| t.len += 1)),
            ("count too low", corrupt(&|t| t.len -= 1)),
            (
                "label overflow",
                corrupt(&|t| drop(t.text.splice(8..8, *b"99999"))),
            ),
        ];
        for (what, mut bad) in cases {
            assert!(bad.to_records().is_err(), "{what}: {bad:?}");
            // Whatever the text, the cut is an error or a cut: no panic.
            let before = bad.clone();
            if bad.truncate_from((1_000, 10)).is_err() {
                assert_eq!(bad, before, "{what}: an error leaves the rows alone");
            }
        }
        let mut bad = corrupt(&|t| t.text[0] = b'x');
        assert!(matches!(
            bad.truncate_from((0, 0)).unwrap_err(),
            MqdError::Corrupt { offset: 0, .. }
        ));
    }

    #[test]
    fn tsv_comments_and_blanks_are_none() {
        assert_eq!(parse_tsv_line("# header", 1).unwrap(), None);
        assert_eq!(parse_tsv_line("", 2).unwrap(), None);
        assert_eq!(parse_tsv_line("   ", 3).unwrap(), None);
        let rows = read_tsv_records(&b"# header\n\n1\t10\t0\n"[..]).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn tsv_errors_carry_line_numbers() {
        match parse_tsv_line("1\t10", 7).unwrap_err() {
            MqdError::Parse { line, msg } => {
                assert_eq!(line, 7);
                assert!(msg.contains("missing labels"), "{msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let err = |s: &str| parse_tsv_line(s, 1).unwrap_err().to_string();
        assert!(err("x\t10\t0").contains("bad id"));
        assert!(err("1\ty\t0").contains("bad value"));
        assert!(err("1\t2\tz").contains("bad label"));
        assert!(err("1\t2\t0\textra").contains("too many fields"));
        // The file reader numbers lines from 1, comment lines included.
        match read_tsv_records(&b"# skip\n1\t10\n"[..]).unwrap_err() {
            MqdError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn stream_validation_catches_contract_violations() {
        let ok = vec![
            Record {
                id: 0,
                value: 10,
                labels: vec![0],
            },
            Record {
                id: 1,
                value: 10,
                labels: vec![1],
            },
        ];
        validate_stream(&ok).unwrap();

        let mut unlabeled = ok.clone();
        unlabeled[1].labels.clear();
        assert_eq!(
            validate_stream(&unlabeled).unwrap_err(),
            MqdError::EmptyLabelSet { row: 2 }
        );

        let mut backwards = ok;
        backwards[1].value = 5;
        assert_eq!(
            validate_stream(&backwards).unwrap_err(),
            MqdError::NonMonotoneTimestamp {
                row: 2,
                prev: 10,
                got: 5
            }
        );
    }

    #[test]
    fn to_instance_infers_label_space() {
        let rows = vec![Record {
            id: 0,
            value: 1,
            labels: vec![4],
        }];
        let inst = to_instance(&rows).unwrap();
        assert_eq!(inst.num_labels(), 5);
    }
}
