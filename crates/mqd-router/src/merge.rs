//! Byte-deterministic merge rules for scatter-gathered shard responses.
//!
//! Two facts make the merges here exact rather than approximate:
//!
//! 1. Backends render rows in *slice order* — ascending `(value, external
//!    id)` — and render each row's labels intersected with the request's
//!    label set. A row replicated on several shards therefore renders to
//!    byte-identical TSV on each of them.
//! 2. A row's external id is unique, so "same id" means "same row", and a
//!    dedup-by-id after sorting by `(value, id)` reconstructs exactly the
//!    single-node row sequence.

use mqd_core::record::{format_tsv, parse_tsv_line, Record};
use mqd_core::MqdError;
use mqd_store::{run_query, QuerySpec, Store};

/// Parses one shard payload line back into a [`Record`], rejecting blank
/// or comment lines (a backend never emits them; seeing one means the
/// payload is not a row stream).
fn parse_row(line: &str, line_no: usize) -> Result<Record, MqdError> {
    parse_tsv_line(line, line_no)?.ok_or_else(|| {
        MqdError::protocol(format!(
            "shard payload line {line_no} is not a row: {line:?}"
        ))
    })
}

/// Merges per-shard row payloads (COVER answers or SLICE exports) into the
/// single-node order: ascending `(value, id)`, one row per id. The first
/// rendered copy of a duplicated row is kept — all copies are
/// byte-identical (see the module docs), so the choice cannot matter.
pub fn merge_rows(parts: &[Vec<String>]) -> Result<Vec<String>, MqdError> {
    let mut tagged: Vec<((i64, u64), String)> = Vec::new();
    for part in parts {
        for (i, line) in part.iter().enumerate() {
            let rec = parse_row(line, i + 1)?;
            tagged.push(((rec.value, rec.id), line.clone()));
        }
    }
    tagged.sort_by_key(|t| t.0);
    // Duplicates of one row share both value and id, so after the sort all
    // copies are adjacent and the consecutive dedup removes every extra.
    tagged.dedup_by(|a, b| a.0 == b.0);
    Ok(tagged.into_iter().map(|(_, line)| line).collect())
}

/// Rebuilds the global slice from merged shard `SLICE` rows and solves the
/// query locally — the router-side path for algorithms whose objective is
/// global (`Scan+`, `GreedySC`, `OPT`, and anything `PROP`) and therefore
/// cannot be decomposed per shard.
///
/// The merged rows arrive in `(value, id)` order (monotone values, the
/// store's append contract) and already carry labels intersected with the
/// query set, so the mini-store's slice is structurally identical to the
/// single node's and the shared [`run_query`] definition returns the same
/// bytes.
pub fn solve_merged(rows: &[String], spec: &QuerySpec) -> Result<Vec<String>, MqdError> {
    let mut store = Store::new();
    for (i, line) in rows.iter().enumerate() {
        store.append(parse_row(line, i + 1)?)?;
    }
    let answer = run_query(&store, spec)?;
    Ok(answer.iter().map(format_tsv).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::wire::shard_of_label;
    use mqd_store::Algorithm;

    fn spec(labels: &[u16], lambda: i64, algorithm: Algorithm, proportional: bool) -> QuerySpec {
        QuerySpec {
            labels: labels.to_vec(),
            lambda,
            proportional,
            algorithm,
            from: i64::MIN,
            to: i64::MAX,
        }
    }

    /// A small corpus with rows spanning both shards of a 2-shard map.
    fn corpus() -> Vec<Record> {
        let mut rows = Vec::new();
        for i in 0..40u64 {
            let labels = match i % 4 {
                0 => vec![0],
                1 => vec![1],
                2 => vec![0, 1],
                _ => vec![2, 3],
            };
            rows.push(Record {
                id: i + 1,
                value: (i as i64 / 2) * 7,
                labels,
            });
        }
        rows
    }

    /// Renders what each shard backend would return for a SLICE: the rows
    /// it holds (any owned label), sliced by the full query label set.
    fn shard_slices(rows: &[Record], query: &[u16], shard_count: u32) -> Vec<Vec<String>> {
        let mut parts = Vec::new();
        for shard in 0..shard_count {
            let mut store = Store::new();
            for r in rows {
                if r.labels
                    .iter()
                    .any(|&l| shard_of_label(l, shard_count) == shard)
                {
                    store.append(r.clone()).unwrap();
                }
            }
            let slice = store.slice(query, i64::MIN, i64::MAX);
            parts.push(
                (0..slice.instance.len() as u32)
                    .map(|i| format_tsv(&slice.record_for(i)))
                    .collect(),
            );
        }
        parts
    }

    #[test]
    fn merged_slices_reconstruct_the_single_node_slice() {
        let rows = corpus();
        let query = vec![0, 1, 2];
        let mut single = Store::new();
        for r in &rows {
            single.append(r.clone()).unwrap();
        }
        let slice = single.slice(&query, i64::MIN, i64::MAX);
        let want: Vec<String> = (0..slice.instance.len() as u32)
            .map(|i| format_tsv(&slice.record_for(i)))
            .collect();

        let parts = shard_slices(&rows, &query, 2);
        assert_eq!(merge_rows(&parts).unwrap(), want);
    }

    #[test]
    fn local_solve_over_merged_slices_matches_the_single_node_answer() {
        let rows = corpus();
        let query = vec![0, 1, 2, 3];
        let mut single = Store::new();
        for r in &rows {
            single.append(r.clone()).unwrap();
        }
        let parts = shard_slices(&rows, &query, 2);
        let merged = merge_rows(&parts).unwrap();
        for (algorithm, prop) in [
            (Algorithm::ScanPlus, false),
            (Algorithm::GreedySc, false),
            (Algorithm::Opt, false),
            (Algorithm::Scan, true),
            (Algorithm::GreedySc, true),
        ] {
            let s = spec(&query, 21, algorithm, prop);
            let want: Vec<String> = run_query(&single, &s)
                .unwrap()
                .iter()
                .map(format_tsv)
                .collect();
            assert_eq!(
                solve_merged(&merged, &s).unwrap(),
                want,
                "{algorithm:?} prop={prop}"
            );
        }
    }

    #[test]
    fn garbage_payload_lines_are_typed_errors() {
        let bad = vec![vec!["# not a row".to_string()]];
        assert!(matches!(merge_rows(&bad), Err(MqdError::Protocol { .. })));
        assert!(solve_merged(
            &["1\t2".to_string()],
            &spec(&[0], 5, Algorithm::Scan, false)
        )
        .is_err());
    }
}
