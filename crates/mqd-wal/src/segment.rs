//! Sealed on-disk segment blocks: immutable runs of rows.
//!
//! ```text
//! file := body "END!" checksum:u64_be            (shared framed footer)
//! body := "MQDS" version:varint first_seq:varint rows
//! rows := the MQDL row section of [`mqd_core::record`]
//!         (nrows:varint, then id/value delta-coded rows)
//! ```
//!
//! A block carries rows and nothing derived from them: it decodes into
//! one [`Rows`] batch, and recovery replays those rows through
//! [`mqd_store::Store::append_logged`], which builds the only index there
//! is. The decoder re-checks the store's row contract, so a
//! block that passes its checksum still cannot smuggle an unsorted label
//! list or a backwards value into the store.

use mqd_core::record::{get_rows, put_rows, RowRef, Rows};
use mqd_core::wire::{check_framed, put_varint, seal_framed, Cursor};
use mqd_core::MqdError;

/// File magic — aliased from the sanctioned wire module.
pub const MAGIC: [u8; 4] = *mqd_core::wire::SEGMENT_MAGIC;
/// Shared framed footer magic.
const FOOTER: [u8; 4] = *mqd_core::wire::FRAME_FOOTER;
/// Format version.
const VERSION: u64 = 2;
/// Upper bound on rows in one block (sanity bound for decoders; real
/// blocks hold one store segment window, 4096 rows by default).
const MAX_ROWS: usize = 1 << 22;

/// A decoded segment block.
#[derive(Debug)]
pub struct SegmentFile {
    /// Global sequence number of the first row.
    pub first_seq: u64,
    /// Rows in arrival order (values non-decreasing), in columns.
    pub rows: Rows,
}

/// Encodes `rows` (which must be non-empty, label-normalized, and
/// value-monotone — the durable layer only seals rows the store already
/// accepted) into a sealed block. The rows are borrowed ([`RowRef`]s, e.g.
/// a store segment's view) or owned (`&[Record]`); the bytes are the same.
pub fn encode_segment<'a, I>(first_seq: u64, rows: I) -> Vec<u8>
where
    I: IntoIterator<Item: Into<RowRef<'a>>, IntoIter: ExactSizeIterator>,
{
    let rows = rows.into_iter();
    let mut buf = Vec::with_capacity(32 + rows.len() * 8);
    buf.extend_from_slice(&MAGIC);
    put_varint(&mut buf, VERSION);
    put_varint(&mut buf, first_seq);
    put_rows(&mut buf, rows.map(Into::into));
    seal_framed(&mut buf, &FOOTER);
    buf
}

/// Decodes and validates a sealed block. Every failure — bad checksum,
/// truncation, implausible count, a row the store would have refused — is
/// a typed [`MqdError::Corrupt`].
pub fn decode_segment(data: &[u8]) -> Result<SegmentFile, MqdError> {
    let body = check_framed(data, &FOOTER, MAGIC.len() + 3)?;
    let mut c = Cursor::new(body);
    let magic: [u8; 4] = c.get_array()?;
    if magic != MAGIC {
        return Err(c.corrupt("not a segment block (bad magic)"));
    }
    let version = c.get_varint()?;
    if version != VERSION {
        return Err(c.corrupt(format!("unsupported segment version {version}")));
    }
    let first_seq = c.get_varint()?;
    let rows = get_rows(&mut c)?;
    if c.has_remaining() {
        return Err(c.corrupt("trailing bytes after segment payload"));
    }
    if rows.is_empty() || rows.len() > MAX_ROWS {
        return Err(c.corrupt(format!("implausible row count {}", rows.len())));
    }
    let mut prev_value = i64::MIN;
    for row in rows.iter() {
        if row.labels.is_empty() || !row.labels.is_sorted_by(|a, b| a < b) {
            return Err(c.corrupt("row labels empty or not sorted/deduped"));
        }
        // The codec's deltas wrap, so one that runs past `i64::MAX`
        // decodes to a smaller value and lands here.
        if row.value < prev_value {
            return Err(c.corrupt("row values decrease"));
        }
        prev_value = row.value;
    }
    Ok(SegmentFile { first_seq, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::record::Record;
    use mqd_core::wire::put_varint_i64;

    fn rows(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                id: 100 + i,
                value: (i as i64) * 3,
                labels: vec![(i % 4) as u16, 7],
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        let rs = rows(50);
        let blob = encode_segment(4096, &rs);
        let seg = decode_segment(&blob).unwrap();
        assert_eq!(seg.first_seq, 4096);
        assert_eq!(seg.rows, rs.iter().collect::<Rows>());
    }

    #[test]
    fn every_bitflip_is_detected() {
        let rs = rows(20);
        let blob = encode_segment(0, &rs);
        for at in 0..blob.len() {
            let mut bad = blob.clone();
            bad[at] ^= 0x01;
            match decode_segment(&bad) {
                Err(MqdError::Corrupt { .. }) => {}
                Err(other) => panic!("flip at {at}: unexpected error kind {other:?}"),
                Ok(_) => panic!("flip at {at}: corruption accepted"),
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let blob = encode_segment(0, &rows(20));
        for keep in 0..blob.len() {
            assert!(
                decode_segment(&blob[..keep]).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
    }

    /// Builds a correctly framed (valid checksum) body from raw parts, so
    /// the decoder — not the frame check — must reject it.
    fn sealed(body_tail: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, VERSION);
        put_varint(&mut buf, 0); // first_seq
        buf.extend_from_slice(body_tail);
        seal_framed(&mut buf, &FOOTER);
        buf
    }

    /// Row section pieces, hand-assembled in the MQDL layout.
    fn put_row(tail: &mut Vec<u8>, id_delta: i64, value_delta: i64, labels: &[u64]) {
        put_varint_i64(tail, id_delta);
        put_varint_i64(tail, value_delta);
        put_varint(tail, labels.len() as u64);
        for &l in labels {
            put_varint(tail, l);
        }
    }

    fn assert_corrupt(blob: &[u8], want: &str) {
        match decode_segment(blob) {
            Err(MqdError::Corrupt { reason, .. }) => {
                assert!(reason.contains(want), "got: {reason}")
            }
            other => panic!("corrupt block accepted: {other:?}"),
        }
    }

    #[test]
    fn corrupt_delta_is_a_typed_error_not_a_wrap() {
        // Two rows: the second one's delta pushes the value past i64::MAX.
        // The frame checksum is valid, so only the monotonicity check
        // stands between this block and a wrapped value entering the store.
        let mut tail = Vec::new();
        put_varint(&mut tail, 2); // nrows
        put_row(&mut tail, 1, i64::MAX - 1, &[0]);
        put_row(&mut tail, 1, 3, &[0]); // -> i64::MAX + 2, wraps negative
        assert_corrupt(&sealed(&tail), "values decrease");

        // A plain negative delta is the same violation.
        let mut tail = Vec::new();
        put_varint(&mut tail, 2);
        put_row(&mut tail, 1, 5, &[0]);
        put_row(&mut tail, 1, -1, &[0]);
        assert_corrupt(&sealed(&tail), "values decrease");
    }

    #[test]
    fn rows_the_store_would_refuse_are_typed_errors() {
        for (labels, what) in [
            (&[][..], "no labels"),
            (&[3, 3][..], "duplicate label"),
            (&[4, 1][..], "unsorted labels"),
        ] {
            let mut tail = Vec::new();
            put_varint(&mut tail, 1);
            put_row(&mut tail, 1, 0, labels);
            match decode_segment(&sealed(&tail)) {
                Err(MqdError::Corrupt { reason, .. }) => {
                    assert!(reason.contains("labels"), "{what}: {reason}")
                }
                other => panic!("{what} accepted: {other:?}"),
            }
        }
        // No rows at all, and bytes after the last row.
        let mut tail = Vec::new();
        put_varint(&mut tail, 0);
        assert_corrupt(&sealed(&tail), "row count");
        let mut tail = Vec::new();
        put_varint(&mut tail, 1);
        put_row(&mut tail, 1, 0, &[0]);
        tail.push(0);
        assert_corrupt(&sealed(&tail), "trailing bytes");
    }

    #[test]
    fn huge_length_fields_fail_before_allocating() {
        // nrows = MAX_ROWS passes the sanity bound but cannot fit in a
        // tiny body; the decoder must reject it without preallocating
        // MAX_ROWS row slots.
        let mut tail = Vec::new();
        put_varint(&mut tail, MAX_ROWS as u64);
        assert_corrupt(&sealed(&tail), "count");

        // A row claiming 65535 labels inside a few remaining bytes.
        let mut tail = Vec::new();
        put_varint(&mut tail, 1); // nrows
        put_varint_i64(&mut tail, 7); // id
        put_varint_i64(&mut tail, 0); // value
        put_varint(&mut tail, u16::MAX as u64); // nlabels, passes the u16 bound
        assert_corrupt(&sealed(&tail), "count");
    }

    #[test]
    fn extreme_values_survive() {
        let rs = vec![
            Record {
                id: 1,
                value: i64::MIN,
                labels: vec![0],
            },
            Record {
                id: 2,
                value: i64::MAX,
                labels: vec![0, 1],
            },
        ];
        let blob = encode_segment(0, &rs);
        // The MIN -> MAX delta does not fit i64; the codec's wrapping
        // deltas must carry it.
        match decode_segment(&blob) {
            Ok(seg) => assert_eq!(seg.rows, rs.iter().collect::<Rows>()),
            Err(e) => panic!("extreme round trip failed: {e}"),
        }
    }
}
