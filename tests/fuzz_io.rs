//! Seeded fuzz tests for the I/O substrates: TSV and binary-log round
//! trips over randomized rows, and the windowed timeline invariants
//! (ported from the former proptest suite to plain loops over `mqd_rng`
//! seeds).

use mqd_core::record::{
    decode_records, encode_records, read_tsv_records, write_tsv_records, Record,
};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqdiv::stream::WindowedTimeline;

fn random_rows(rng: &mut StdRng) -> Vec<Record> {
    let n = rng.random_range(0..50usize);
    (0..n)
        .map(|_| {
            let id: u64 = rng.random();
            let value = rng.random::<u64>() as i64;
            let k = rng.random_range(0..4usize);
            let labels: Vec<u16> = (0..k).map(|_| rng.random::<u32>() as u16).collect();
            Record { id, value, labels }
        })
        .collect()
}

const CASES: u64 = 64;

#[test]
fn binlog_round_trips_arbitrary_rows() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng);
        let data = encode_records(&rows);
        assert_eq!(decode_records(&data).unwrap(), rows, "seed {seed}");
    }
}

#[test]
fn binlog_rejects_any_single_byte_flip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng);
        let mut data = encode_records(&rows);
        let pos = rng.random_range(0..data.len());
        data[pos] ^= 0x5a;
        // Either an error, or (vanishingly unlikely with a 64-bit FNV
        // checksum) a detected-equal decode; never a silent wrong answer.
        if let Ok(decoded) = decode_records(&data) {
            assert_eq!(decoded, rows, "seed {seed}");
        }
    }
}

#[test]
fn tsv_round_trips() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng);
        let mut buf = Vec::new();
        write_tsv_records(&mut buf, &rows).unwrap();
        assert_eq!(
            read_tsv_records(buf.as_slice()).unwrap(),
            rows,
            "seed {seed}"
        );
    }
}

#[test]
fn timeline_digest_always_covers_window() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..60usize);
        let mut sorted: Vec<i64> = (0..n).map(|_| rng.random_range(0..10_000i64)).collect();
        sorted.sort_unstable();
        let window = rng.random_range(100..5_000i64);
        let lambda = rng.random_range(1..500i64);
        let mut tl = WindowedTimeline::new(2, window, lambda);
        for (i, &t) in sorted.iter().enumerate() {
            tl.on_post(i as u64, t, vec![(i % 2) as u16]);
        }
        let digest = tl.digest();
        // Every live post must have a same-label digest member within lambda.
        let now = *sorted.last().unwrap();
        for (i, &t) in sorted.iter().enumerate() {
            if t < now - window {
                continue; // expired
            }
            let label = (i % 2) as u16;
            let covered = digest
                .iter()
                .any(|p| p.labels.contains(&label) && (p.time - t).abs() <= lambda);
            assert!(
                covered,
                "post at t={t} label {label} unrepresented (seed {seed})"
            );
        }
        // Digest members are live posts.
        for p in &digest {
            assert!(p.time >= now - window, "seed {seed}");
        }
    }
}
