//! A segment keeps each row's labels only as offsets in its posting lists,
//! so [`Store::segment_rows`] rebuilds its rows from them. The rebuilt
//! rows must be the input rows with their labels normalized (sorted,
//! deduped), row for row, at every segment target from one row to the
//! largest, and what the durable layer seals from them must be the block
//! the input rows encode to. A full 65 535-row segment is the edge case:
//! its last row sits at offset 65 534, the largest a `u16` posting holds.

use mqd_core::record::{Record, Rows};
use mqd_store::Store;
use mqd_wal::encode_segment;

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// `n` rows the store accepts: values non-decreasing with ties, labels
/// unsorted and repeated (`0` and `u16::MAX` often), one row in 16 with
/// 12 to 20 labels, and row `wide` with about 300.
fn rows(rng: &mut Lcg, n: usize, wide: usize) -> Vec<Record> {
    let mut value = -1_000i64;
    (0..n)
        .map(|i| {
            value += [0, 0, 1, 7, 100][rng.below(5) as usize];
            let k = match (i == wide, rng.below(16)) {
                (true, _) => 300,
                (false, 0) => 12 + rng.below(9),
                _ => 1 + rng.below(4),
            };
            let labels = (0..k)
                .map(|_| match rng.below(8) {
                    0 => u16::MAX,
                    1 => 0,
                    _ => rng.below(400) as u16,
                })
                .collect();
            Record {
                id: rng.below(1 << 40),
                value,
                labels,
            }
        })
        .collect()
}

/// `r` with its labels as the store keeps them.
fn normalized(r: &Record) -> Record {
    let mut labels = r.labels.clone();
    labels.sort_unstable();
    labels.dedup();
    Record {
        labels,
        ..r.clone()
    }
}

#[test]
fn rebuilt_segment_rows_are_the_normalized_input_rows() {
    let mut rng = Lcg(0x5e9_0f05);
    // (segment target, rows): partial and full segments at every target,
    // and one full segment of the largest.
    let cases = [
        (1, 40),
        (7, 7 * 12 + 3),
        (4096, 2 * 4096 + 5),
        (65_535, 65_600),
    ];
    for (target, n) in cases {
        let last_of_first = target.min(n) - 1;
        let input = rows(&mut rng, n, last_of_first);
        let mut store = Store::with_segment_target(target);
        assert_eq!(store.segment_target(), target);
        for r in &input {
            store.append(r.clone()).unwrap();
        }
        let want: Vec<Record> = input.iter().map(normalized).collect();
        let mut segments = 0;
        for (k, chunk) in want.chunks(target).enumerate() {
            let what = format!("target {target}, segment {k}");
            let rebuilt = store.segment_rows(k).unwrap();
            assert_eq!(rebuilt, chunk.iter().collect::<Rows>(), "{what}");
            let first_seq = (k * target) as u64;
            assert_eq!(
                encode_segment(first_seq, rebuilt.iter()),
                encode_segment(first_seq, chunk),
                "{what}"
            );
            segments += 1;
        }
        assert!(store.segment_rows(segments).is_none(), "target {target}");

        // The first segment's last row, found by its own labels and value.
        let last = &want[last_of_first];
        assert!(last.labels.len() > 100, "the wide row is the last one");
        let slice = store.slice(&last.labels, last.value, last.value);
        assert!(
            (0..slice.instance.len() as u32).any(|i| slice.record_for(i) == *last),
            "target {target}: row {last_of_first} not in its slice"
        );
    }
}

#[test]
fn the_segment_target_is_clamped_to_what_u16_offsets_address() {
    assert_eq!(
        Store::with_segment_target(usize::MAX).segment_target(),
        65_535
    );
    assert_eq!(Store::with_segment_target(0).segment_target(), 1);
}
