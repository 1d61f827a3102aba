//! Answer checking, done after the timed phase so it steals no CPU from
//! it. Two independent checks on a deterministic sample of the responses:
//!
//! * [`cover_violation`] — the benchmark's own λ-cover validity check,
//!   which shares no code with the solvers (it works on the plan's rows);
//! * a byte comparison against `run_query` on a mirror store brought to the
//!   generation the response was stamped with.
//!
//! Plus the glue that ties the traced replay to the live run.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::layers::Mirror;
use crate::plan::{OpKind, Plan, Row, Spec, Workload};
use crate::wire::{json_u64, Outcome};

/// Parses payload bytes (`id \t value \t label,label` lines) into rows.
pub fn parse_rows(payload: &[u8]) -> Result<Vec<Row>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    text.lines()
        .map(|line| {
            let mut cols = line.split('\t');
            let row = (|| {
                Some(Row {
                    id: cols.next()?.parse().ok()?,
                    value: cols.next()?.parse().ok()?,
                    labels: cols
                        .next()?
                        .split(',')
                        .map(|l| l.parse().ok())
                        .collect::<Option<Vec<u16>>>()?,
                })
            })();
            row.ok_or_else(|| format!("not a row: {line:?}"))
        })
        .collect()
}

/// Is `answer` a valid fixed-λ cover of `spec` over `rows` (the store's
/// whole content, ids `1..=rows.len()` in order)? Valid means: every answer
/// row is a post of the slice, rendered with exactly its query labels, and
/// every post of the slice has, for each query label it carries, an answer
/// post carrying that label within λ of it. Returns the first violation.
pub fn cover_violation(spec: &Spec, rows: &[Row], answer: &[Row]) -> Option<String> {
    let in_range = |v: i64| spec.from.is_none_or(|f| v >= f) && spec.to.is_none_or(|t| v <= t);
    let query_labels = |r: &Row| -> Vec<u16> {
        let mut l: Vec<u16> = r
            .labels
            .iter()
            .copied()
            .filter(|l| spec.labels.contains(l))
            .collect();
        l.sort_unstable();
        l
    };
    for a in answer {
        let Some(stored) = a.id.checked_sub(1).and_then(|i| rows.get(i as usize)) else {
            return Some(format!("answer row {} is not in the store", a.id));
        };
        if stored.value != a.value || !in_range(a.value) || query_labels(stored) != a.labels {
            return Some(format!(
                "answer row {} is not a post of the slice as stored",
                a.id
            ));
        }
    }
    for &label in &spec.labels {
        let chosen: Vec<i64> = answer
            .iter()
            .filter(|a| a.labels.contains(&label))
            .map(|a| a.value)
            .collect();
        let mut nearest = 0; // answers are in ascending value order
        for post in rows
            .iter()
            .filter(|r| in_range(r.value) && r.labels.contains(&label))
        {
            while nearest + 1 < chosen.len()
                && (chosen[nearest + 1] - post.value).abs() <= (chosen[nearest] - post.value).abs()
            {
                nearest += 1;
            }
            if chosen
                .get(nearest)
                .is_none_or(|&c| (c - post.value).abs() > spec.lambda)
            {
                return Some(format!(
                    "post {} (label {label}, value {}) has no cover within {}",
                    post.id, post.value, spec.lambda
                ));
            }
        }
    }
    None
}

/// The generation a response is exact at: its `generation` stamp, or — for
/// routed responses, which carry a `generations` vector and whose windows
/// the plan keeps clear of the tail — the preloaded corpus.
fn generation_of(plan: &Plan, outcome: &Outcome) -> Option<u64> {
    match plan.workload {
        Workload::RoutedMix => Some(plan.corpus.len() as u64),
        _ => json_u64(&outcome.status, "generation"),
    }
}

/// Why a timed op counts as failed, if it does, before any answer checking:
/// unanswered (timeout, closed connection) or answered with anything but
/// `+OK` (`-ERR`, `-OVERLOADED`).
pub fn op_failure(outcome: &Outcome) -> Option<String> {
    if !outcome.answered() {
        Some("unanswered".into())
    } else if !outcome.is_ok() {
        Some(outcome.status.clone())
    } else {
        None
    }
}

/// Checks every sampled response (the ops whose payload was kept). Returns
/// `(responses checked, (op index, what is wrong) for each wrong one)`.
pub fn verify(plan: &Plan, outcomes: &[Outcome]) -> Result<(usize, Vec<(usize, String)>), String> {
    let mut by_generation: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut wrong = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        if outcome.payload.is_none() || !outcome.is_ok() {
            continue;
        }
        match generation_of(plan, outcome) {
            Some(g) => by_generation.entry(g).or_default().push(i),
            None => wrong.push((i, format!("no generation in {}", outcome.status))),
        }
    }
    let mut mirror = Mirror::new();
    let mut feed = plan.corpus.iter().chain(&plan.tail);
    // The cover checker wants the store's rows as one slice; only answers
    // stamped past the corpus need the tail copied onto it.
    let past_corpus = by_generation.keys().any(|&g| g > plan.corpus.len() as u64);
    let all_rows: Cow<[Row]> = if past_corpus {
        Cow::Owned(plan.corpus.iter().chain(&plan.tail).cloned().collect())
    } else {
        Cow::Borrowed(&plan.corpus)
    };
    let mut checked = 0;
    for (generation, ops) in by_generation {
        while mirror.generation() < generation {
            match feed.next() {
                Some(row) => mirror.append(row)?,
                None => break,
            }
        }
        for i in ops {
            checked += 1;
            if mirror.generation() != generation {
                wrong.push((
                    i,
                    format!("generation {generation} is beyond every row sent"),
                ));
                continue;
            }
            let OpKind::Query(s) = plan.ops[i].kind else {
                continue;
            };
            let spec = &plan.specs[s];
            let payload = outcomes[i].payload.as_deref().unwrap_or_default();
            if payload != mirror.answer(spec)? {
                wrong.push((
                    i,
                    format!("differs from run_query at generation {generation}"),
                ));
            } else if json_u64(&outcomes[i].status, "count") != Some(outcomes[i].rows as u64) {
                wrong.push((
                    i,
                    format!("count disagrees with payload: {}", outcomes[i].status),
                ));
            } else if !spec.prop {
                let violation = parse_rows(payload)
                    .map(|answer| cover_violation(spec, &all_rows[..generation as usize], &answer))
                    .unwrap_or_else(Some);
                if let Some(v) = violation {
                    wrong.push((i, v));
                }
            }
        }
    }
    Ok((checked, wrong))
}

/// The order in which the traced replay runs the timed ops so that it does
/// the work the live run did. Ingest is sequential on one connection, so
/// ingest ops keep plan order; on `ingest-repair` each query is placed
/// where the live response says it was answered — right after the batch
/// that brought the store to its stamped generation (the watermark, for a
/// stale answer). Elsewhere answers do not depend on the interleaving and
/// plan order stands. Queries with no usable stamp are left out.
pub fn replay_order(plan: &Plan, outcomes: &[Outcome]) -> Vec<usize> {
    if plan.workload != Workload::IngestRepair {
        return (0..plan.ops.len()).collect();
    }
    let mut at_generation: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if let (OpKind::Query(_), Some(g)) = (&op.kind, json_u64(&outcomes[i].status, "generation"))
        {
            at_generation.entry(g).or_default().push(i);
        }
    }
    let mut generation = plan.corpus.len() as u64;
    let mut order = at_generation.remove(&generation).unwrap_or_default();
    for (i, op) in plan.ops.iter().enumerate() {
        if let OpKind::Ingest(range) = &op.kind {
            generation += range.len() as u64;
            order.push(i);
            order.extend(at_generation.remove(&generation).unwrap_or_default());
        }
    }
    order
}

/// Sampled ops whose replayed payload is not byte-equal to the live one.
/// This is what ties the traced pass to the live run: same bytes, same
/// work.
pub fn replay_mismatches(
    plan: &Plan,
    outcomes: &[Outcome],
    replayed: &[Option<Vec<u8>>],
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        let (Some(live), true) = (&outcome.payload, outcome.is_ok()) else {
            continue;
        };
        if !matches!(plan.ops[i].kind, OpKind::Query(_)) {
            continue;
        }
        match &replayed[i] {
            None => out.push((i, "not replayed (no usable generation stamp)".into())),
            Some(frame) => {
                let start = frame.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
                let replay_payload = &frame[start..frame.len().saturating_sub(2)];
                if replay_payload != live.as_slice() {
                    out.push((i, "replayed answer differs from the live answer".into()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Alg;

    fn corpus() -> Vec<Row> {
        Plan::build(Workload::HotRead, 11, 1, 3_000).corpus
    }

    fn cover_for(spec: &Spec, rows: &[Row]) -> Vec<Row> {
        let mut mirror = Mirror::new();
        for r in rows {
            mirror.append(r).unwrap();
        }
        parse_rows(&mirror.answer(spec).unwrap()).unwrap()
    }

    #[test]
    fn checker_accepts_solver_covers_and_rejects_one_row_removed() {
        let rows = corpus();
        let (lo, hi) = (rows[300].value, rows[2_500].value);
        for alg in [Alg::Scan, Alg::ScanPlus, Alg::GreedySc] {
            let spec = Spec {
                labels: vec![1, 4, 7],
                lambda: 2_000,
                prop: false,
                alg,
                from: Some(lo),
                to: Some(hi),
            };
            let cover = cover_for(&spec, &rows);
            assert!(cover.len() > 10);
            assert_eq!(cover_violation(&spec, &rows, &cover), None, "{alg:?}");
        }
        // One label, Scan: the cover is minimum, so no row is redundant.
        let spec = Spec {
            labels: vec![3],
            lambda: 2_000,
            prop: false,
            alg: Alg::Scan,
            from: Some(lo),
            to: None,
        };
        let cover = cover_for(&spec, &rows);
        assert_eq!(cover_violation(&spec, &rows, &cover), None);
        for drop in 0..cover.len() {
            let mut short = cover.clone();
            short.remove(drop);
            let v = cover_violation(&spec, &rows, &short);
            assert!(
                v.as_deref().is_some_and(|m| m.contains("has no cover")),
                "{drop}: {v:?}"
            );
        }
    }

    #[test]
    fn checker_rejects_rows_that_are_not_the_stored_post() {
        let rows = corpus();
        let spec = Spec {
            labels: vec![0, 1],
            lambda: 5_000,
            prop: false,
            alg: Alg::Scan,
            from: None,
            to: None,
        };
        let cover = cover_for(&spec, &rows);
        let mut moved = cover.clone();
        moved[0].value += 1;
        assert!(cover_violation(&spec, &rows, &moved).is_some());
        let mut relabeled = cover.clone();
        relabeled[0].labels = vec![9];
        assert!(cover_violation(&spec, &rows, &relabeled).is_some());
        let mut foreign = cover;
        foreign[0].id = rows.len() as u64 + 5;
        assert!(cover_violation(&spec, &rows, &foreign).is_some());
    }

    #[test]
    fn parse_rows_round_trips_the_wire_form() {
        let rows = parse_rows(b"7\t-3\t0,11\n8\t40\t2\n").unwrap();
        assert_eq!(
            rows[0],
            Row {
                id: 7,
                value: -3,
                labels: vec![0, 11]
            }
        );
        assert_eq!(
            rows[1],
            Row {
                id: 8,
                value: 40,
                labels: vec![2]
            }
        );
        assert!(parse_rows(b"7\tx\t0\n").is_err());
        assert_eq!(parse_rows(b"").unwrap(), vec![]);
    }
}
