//! Seeded corruption fuzzing for the binary decoders: every mutation of a
//! valid binlog or checkpoint blob must produce a typed `Err` (or, behind
//! a vanishingly unlikely FNV collision, a value equal to the original) —
//! never a panic and never silent garbage. Each assertion carries its seed
//! so a failure is reproducible with a one-line filter.

use mqd_cli::commands::read_text;
use mqd_core::record::{decode_records, encode_records, read_tsv_records, to_instance, Record};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_stream::{encode_checkpoint, resume_supervised, FaultPlan, ShardEngineKind, SupervisedRun};
use mqdiv::core::{Instance, MqdError};

const CASES: u64 = 64;

fn random_rows(rng: &mut StdRng) -> Vec<Record> {
    let n = rng.random_range(1..40usize);
    let mut t = 0i64;
    (0..n)
        .map(|i| {
            t += rng.random_range(0..1_000i64);
            let k = rng.random_range(1..4usize);
            Record {
                id: i as u64,
                value: t,
                labels: (0..k).map(|_| rng.random_range(0..6u32) as u16).collect(),
            }
        })
        .collect()
}

fn stream_instance(rng: &mut StdRng) -> Instance {
    let rows = random_rows(rng);
    to_instance(&rows).expect("generated rows are valid")
}

#[test]
fn binlog_corruption_is_always_a_typed_error() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng);
        let data = encode_records(&rows);
        // Byte flips at several positions.
        for _ in 0..8 {
            let mut bad = data.clone();
            let pos = rng.random_range(0..bad.len());
            bad[pos] ^= 1 << rng.random_range(0..8u32);
            match decode_records(&bad) {
                Err(MqdError::Corrupt { .. }) => {}
                Err(other) => panic!("seed {seed}: non-Corrupt error {other:?}"),
                Ok(decoded) => assert_eq!(decoded, rows, "seed {seed}: silent corruption"),
            }
        }
        // Truncation at every possible length shorter than the original.
        let cut = rng.random_range(0..data.len());
        match decode_records(&data[..cut]) {
            Err(MqdError::Corrupt { .. }) => {}
            Err(other) => panic!("seed {seed}: non-Corrupt error {other:?}"),
            Ok(_) => panic!("seed {seed}: truncated log decoded"),
        }
    }
}

#[test]
fn tsv_garbage_never_panics() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..n)
            .map(|_| {
                // Bias toward structure-relevant bytes so parsing gets past
                // the first field often enough to exercise deeper paths.
                match rng.random_range(0..4u32) {
                    0 => b'\t',
                    1 => b'\n',
                    2 => b'0' + (rng.random_range(0..10u32) as u8),
                    _ => rng.random_range(0..128u32) as u8,
                }
            })
            .collect();
        // Any outcome is fine except a panic.
        let _ = read_tsv_records(bytes.as_slice());
        let _ = read_text(bytes.as_slice());
    }
}

#[test]
fn checkpoint_corruption_is_always_a_typed_error() {
    for seed in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(0x43_4b_50_54 ^ seed);
        let inst = stream_instance(&mut rng);
        let (lambda, tau, shards) = (1_500i64, 700i64, 3usize);
        let kind = ShardEngineKind::ScanPlus;
        let plan = FaultPlan::for_instance(&inst, shards, seed, tau);
        let mut run = SupervisedRun::new(&inst, lambda, tau, shards, kind, &plan);
        let stop = rng.random_range(0..inst.len().max(1) as u32 + 1);
        while run.position() < stop && run.step().expect("chaos run failed") {}
        let bytes = encode_checkpoint(&mut run);
        drop(run);

        for _ in 0..8 {
            let mut bad = bytes.clone();
            let pos = rng.random_range(0..bad.len());
            bad[pos] ^= 1 << rng.random_range(0..8u32);
            match resume_supervised(&inst, lambda, tau, shards, kind, &plan, &bad) {
                Err(MqdError::Corrupt { .. }) | Err(MqdError::CheckpointMismatch { .. }) => {}
                Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
                Ok(mut resumed) => {
                    // FNV collision or a flip the checksum absorbed — the
                    // resumed run must still complete without panicking.
                    resumed.run_all().unwrap_or(());
                }
            }
        }
        let cut = rng.random_range(0..bytes.len());
        match resume_supervised(&inst, lambda, tau, shards, kind, &plan, &bytes[..cut]) {
            Err(MqdError::Corrupt { .. }) => {}
            Err(other) => panic!("seed {seed}: non-Corrupt error {other:?}"),
            Ok(_) => panic!("seed {seed}: truncated checkpoint resumed"),
        }
    }
}
