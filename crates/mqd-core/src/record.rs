//! The workspace's shared labeled-post record and its two wire forms.
//!
//! A [`Record`] is the external representation of one labeled post —
//! `(id, value, labels)` — before it becomes an [`crate::Instance`] post.
//! Historically the TSV row format and the MQDL binary-log framing lived in
//! the CLI crate while the server and store grew their own copies; this
//! module is now the **single** implementation of both encodings, so an
//! `INGEST` batch on the wire, a CLI binlog and an on-disk store segment can
//! never drift apart:
//!
//! * **MQDL binary log** ([`encode_records`] / [`decode_records`]):
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
//! * **TSV row** ([`parse_tsv_line`] / [`format_tsv`]):
//!   `id \t value \t label,label,...` — the line-oriented form used by the
//!   CLI files and the server's line protocol. Malformed rows are typed
//!   [`MqdError::Parse`] errors carrying the 1-based line number.

use std::io::{Read, Write};

use crate::error::MqdError;
use crate::wire::{check_framed, put_varint, seal_framed, unzigzag, zigzag, Cursor};

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

/// Serializes records into the MQDL binary-log format.
pub fn encode_records(rows: &[Record]) -> Vec<u8> {
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
pub fn put_rows(buf: &mut Vec<u8>, rows: &[Record]) {
    put_varint(buf, rows.len() as u64);
    let mut prev_id = 0u64;
    let mut prev_value = 0i64;
    for r in rows {
        put_varint(buf, zigzag(r.id.wrapping_sub(prev_id) as i64));
        put_varint(buf, zigzag(r.value.wrapping_sub(prev_value)));
        put_varint(buf, r.labels.len() as u64);
        for &l in &r.labels {
            put_varint(buf, l as u64);
        }
        prev_id = r.id;
        prev_value = r.value;
    }
}

/// Deserializes an MQDL binary log, verifying magic, version and checksum.
/// Every failure is an [`MqdError::Corrupt`] naming the byte offset
/// (offset 0 for whole-file checks such as the checksum).
pub fn decode_records(data: &[u8]) -> Result<Vec<Record>, MqdError> {
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
    let rows = get_rows(&mut buf)?;
    if buf.has_remaining() {
        return Err(buf.corrupt("trailing bytes after last record"));
    }
    Ok(rows)
}

/// Reads one MQDL row section (the inverse of [`put_rows`]) at the cursor.
/// Counts are checked against the bytes left before anything is allocated
/// for them.
pub fn get_rows(buf: &mut Cursor) -> Result<Vec<Record>, MqdError> {
    let count = buf.get_varint()?;
    // Each record encodes at least 3 bytes (id + value + label count), so
    // this also rejects a hostile count before allocating for it.
    let count = buf.plausible_len(count, 3, "record")?;
    let mut rows = Vec::with_capacity(count);
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
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            let l = buf.get_varint()?;
            if l > u16::MAX as u64 {
                return Err(buf.corrupt("label id out of range"));
            }
            labels.push(l as u16);
        }
        rows.push(Record { id, value, labels });
        prev_id = id;
        prev_value = value;
    }
    Ok(rows)
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

/// Formats one record as its TSV row (no trailing newline).
pub fn format_tsv(r: &Record) -> String {
    let labels: Vec<String> = r.labels.iter().map(|l| l.to_string()).collect();
    format!("{}\t{}\t{}", r.id, r.value, labels.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn tsv_comments_and_blanks_are_none() {
        assert_eq!(parse_tsv_line("# header", 1).unwrap(), None);
        assert_eq!(parse_tsv_line("", 2).unwrap(), None);
        assert_eq!(parse_tsv_line("   ", 3).unwrap(), None);
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
    }
}
