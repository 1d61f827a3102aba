//! Checkpoint/recovery for supervised streaming runs.
//!
//! [`encode_checkpoint`] serializes a [`SupervisedRun`] at a delivery
//! boundary — stream parameters, the chaos seed, an input digest, and per
//! shard the supervisor scalars plus the engine's [`EngineSnapshot`] —
//! using the same binlog-style wire primitives (varints + FNV-1a framing)
//! as the CLI's post store. [`resume_supervised`] rebuilds a run from those
//! bytes, refusing with [`MqdError::CheckpointMismatch`] when the
//! checkpoint was taken against different parameters, another chaos seed
//! or a different input stream. The format is version 2; a blob of any
//! other version is refused as [`MqdError::Corrupt`] before any field is
//! read.
//!
//! Recovery guarantee: a run killed at any point and resumed from its last
//! checkpoint re-delivers the arrivals after the checkpoint position, and —
//! because the checkpoint carries each shard's emission log — the resumed
//! run's final output is byte-identical to the uninterrupted run's
//! (engines are deterministic). In particular every unflagged emission
//! still honors `delay <= tau`, and a post arriving between the checkpoint
//! and the kill is released within `tau + checkpoint interval` of its
//! timestamp.

use mqd_core::wire::{check_framed, put_varint, put_varint_i64, seal_framed, Cursor};
use mqd_core::{Instance, MqdError};

use crate::chaos::{FaultPlan, ShardCounters};
use crate::engine::EngineSnapshot;
use crate::shard::ShardEngineKind;
use crate::supervisor::{SupSnapshot, SupervisedEmission, SupervisedRun};

/// File magic of a checkpoint blob — aliased from the sanctioned wire
/// module so the constant can never drift from the decoder's copy.
pub const MAGIC: [u8; 4] = *mqd_core::wire::CHECKPOINT_MAGIC;
/// Footer magic sealing the FNV-1a checksum (the shared frame footer).
const FOOTER: [u8; 4] = *mqd_core::wire::FRAME_FOOTER;
/// Format version.
const VERSION: u64 = 2;

/// Serializes `run` at its current delivery boundary. Forces a supervisor
/// snapshot on every shard first so the replay buffers are empty and the
/// engine snapshots capture the complete state.
pub fn encode_checkpoint(run: &mut SupervisedRun) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&MAGIC);
    put_varint(&mut buf, VERSION);
    put_varint_i64(&mut buf, run.lambda);
    put_varint_i64(&mut buf, run.tau);
    put_varint(&mut buf, run.sups.len() as u64);
    buf.push(run.kind.to_tag());
    put_varint(&mut buf, run.digest);
    put_varint(&mut buf, run.seed);
    put_varint(&mut buf, run.next_post as u64);
    for sup in &mut run.sups {
        sup.take_snapshot();
        put_varint(&mut buf, sup.seq());
        put_varint(&mut buf, sup.next_expected as u64);
        put_varint_i64(&mut buf, sup.clock);
        put_varint_i64(&mut buf, sup.stall_until);
        buf.push(sup.degraded as u8);
        encode_counters(&mut buf, &sup.counters);
        encode_flags(&mut buf, &sup.fired);
        let emitted: Vec<u32> = bitset_to_indices(sup.emitted_local_bits());
        put_varint(&mut buf, emitted.len() as u64);
        for p in emitted {
            put_varint(&mut buf, p as u64);
        }
        encode_engine_snapshot(&mut buf, &sup.engine_state());
        let log = sup.emissions_so_far();
        put_varint(&mut buf, log.len() as u64);
        for e in log {
            put_varint(&mut buf, e.post as u64);
            put_varint_i64(&mut buf, e.emit_time);
            buf.push(e.degraded as u8);
        }
        let restarts = sup.restarts_so_far();
        put_varint(&mut buf, restarts.len() as u64);
        for r in restarts {
            put_varint(&mut buf, r.seq);
            put_varint(&mut buf, r.attempt as u64);
        }
    }
    seal_framed(&mut buf, &FOOTER);
    buf
}

/// Rebuilds a [`SupervisedRun`] from checkpoint bytes, validating that the
/// stream parameters, the plan's seed and the input digest match. The
/// returned run continues from the checkpointed position; drive it with
/// [`SupervisedRun::step`] and [`SupervisedRun::finish`] as usual.
pub fn resume_supervised(
    inst: &Instance,
    lambda: i64,
    tau: i64,
    shards: usize,
    kind: ShardEngineKind,
    plan: &FaultPlan,
    bytes: &[u8],
) -> Result<SupervisedRun, MqdError> {
    let body = check_framed(bytes, &FOOTER, MAGIC.len() + 1)?;
    let mut c = Cursor::new(body);
    let magic: [u8; 4] = c.get_array()?;
    if magic != MAGIC {
        return Err(c.corrupt("not a checkpoint file (bad magic)"));
    }
    let version = c.get_varint()?;
    if version != VERSION {
        return Err(c.corrupt(format!("unsupported checkpoint version {version}")));
    }
    let ck_lambda = c.get_varint_i64()?;
    let ck_tau = c.get_varint_i64()?;
    let ck_shards = c.get_varint()? as usize;
    let ck_kind = c.get_u8()?;
    let ck_digest = c.get_varint()?;
    let ck_seed = c.get_varint()?;
    let next_post = get_u32(&mut c, "position")?;

    let mut run = SupervisedRun::new(inst, lambda, tau, shards, kind, plan);
    if ck_lambda != lambda {
        return Err(mismatch(format!("lambda {ck_lambda} != {lambda}")));
    }
    if ck_tau != tau {
        return Err(mismatch(format!("tau {ck_tau} != {tau}")));
    }
    if ck_shards != run.sups.len() {
        return Err(mismatch(format!(
            "shard count {ck_shards} != {}",
            run.sups.len()
        )));
    }
    if ShardEngineKind::from_tag(ck_kind) != Some(kind) {
        return Err(mismatch(format!("engine kind tag {ck_kind}")));
    }
    if ck_seed != plan.seed {
        return Err(mismatch(format!("chaos seed {ck_seed} != {}", plan.seed)));
    }
    if ck_digest != run.digest {
        return Err(mismatch("input stream digest".to_string()));
    }
    if next_post as usize > inst.len() {
        return Err(mismatch(format!(
            "position {next_post} beyond stream length {}",
            inst.len()
        )));
    }

    for s in 0..ck_shards {
        let seq = c.get_varint()?;
        let next_expected = get_u32(&mut c, "next expected index")?;
        let clock = c.get_varint_i64()?;
        let stall_until = c.get_varint_i64()?;
        let degraded = c.get_u8()? != 0;
        let counters = decode_counters(&mut c)?;
        let fired = decode_flags(&mut c, run.sups[s].fired.len())?;
        let sup = &mut run.sups[s];
        let local_len = sup.shard.inst.len();
        let emitted_n = c.get_varint()? as usize;
        if emitted_n > local_len {
            return Err(c.corrupt("emitted set larger than shard"));
        }
        let mut emitted_local = vec![false; local_len];
        for _ in 0..emitted_n {
            let p = c.get_varint()? as usize;
            if p >= local_len {
                return Err(c.corrupt("emitted post index out of range"));
            }
            emitted_local[p] = true;
        }
        let engine = decode_engine_snapshot(&mut c, sup.shard.inst.num_labels(), local_len)?;
        let n_emissions = c.get_varint()?;
        if n_emissions as usize > local_len {
            return Err(c.corrupt("emission log larger than shard"));
        }
        // Each emission encodes at least 3 bytes (post + time + flag).
        let n_emissions = c.plausible_len(n_emissions, 3, "emission")?;
        let mut emissions = Vec::with_capacity(n_emissions);
        for _ in 0..n_emissions {
            let post = get_u32(&mut c, "emission post index")?;
            if post as usize >= inst.len() {
                return Err(c.corrupt("emission post index out of range"));
            }
            let emit_time = c.get_varint_i64()?;
            let degraded = c.get_u8()? != 0;
            emissions.push(SupervisedEmission {
                post,
                emit_time,
                degraded,
            });
        }
        let n_restarts = c.get_varint()?;
        // Each restart record encodes at least 2 bytes (seq + attempt).
        let n_restarts = c.plausible_len(n_restarts, 2, "restart")?;
        let mut restarts = Vec::with_capacity(n_restarts);
        for _ in 0..n_restarts {
            restarts.push(crate::chaos::RestartRecord {
                shard: s,
                seq: c.get_varint()?,
                attempt: c.get_varint()? as usize,
            });
        }
        let snap = SupSnapshot {
            seq,
            next_expected,
            clock,
            stall_until,
            degraded,
            counters,
            engine,
            emitted_local,
            emission_mark: emissions.len(),
        };
        run.sups[s].restore_checkpoint(snap, fired, emissions, restarts);
    }
    if c.has_remaining() {
        return Err(c.corrupt("trailing bytes after checkpoint payload"));
    }
    run.next_post = next_post;
    Ok(run)
}

/// Reads a varint that must fit a `u32`: a wider value is corrupt, never
/// truncated into range.
fn get_u32(c: &mut Cursor<'_>, what: &str) -> Result<u32, MqdError> {
    let v = c.get_varint()?;
    u32::try_from(v).map_err(|_| c.corrupt(format!("{what} {v} out of range")))
}

fn mismatch(what: String) -> MqdError {
    MqdError::CheckpointMismatch { what }
}

fn encode_counters(buf: &mut Vec<u8>, ct: &ShardCounters) {
    for v in [
        ct.stalls_applied,
        ct.degraded_emissions,
        ct.stall_rewrites,
        ct.mode_switches,
    ] {
        put_varint(buf, v);
    }
}

fn decode_counters(c: &mut Cursor<'_>) -> Result<ShardCounters, MqdError> {
    Ok(ShardCounters {
        stalls_applied: c.get_varint()?,
        degraded_emissions: c.get_varint()?,
        stall_rewrites: c.get_varint()?,
        mode_switches: c.get_varint()?,
    })
}

fn encode_flags(buf: &mut Vec<u8>, flags: &[bool]) {
    put_varint(buf, flags.len() as u64);
    let set: Vec<u64> = flags
        .iter()
        .enumerate()
        .filter(|(_, &f)| f)
        .map(|(i, _)| i as u64)
        .collect();
    put_varint(buf, set.len() as u64);
    for i in set {
        put_varint(buf, i);
    }
}

fn decode_flags(c: &mut Cursor<'_>, expect_len: usize) -> Result<Vec<bool>, MqdError> {
    let len = c.get_varint()? as usize;
    if len != expect_len {
        return Err(c.corrupt(format!("flag vector length {len} != expected {expect_len}")));
    }
    // Allocate from the caller's trusted length, not the wire's claim.
    let mut flags = vec![false; expect_len];
    let set = c.get_varint()? as usize;
    if set > len {
        return Err(c.corrupt("more set flags than flags"));
    }
    for _ in 0..set {
        let i = c.get_varint()? as usize;
        if i >= len {
            return Err(c.corrupt("flag index out of range"));
        }
        flags[i] = true;
    }
    Ok(flags)
}

fn encode_engine_snapshot(buf: &mut Vec<u8>, snap: &EngineSnapshot) {
    put_varint(buf, snap.emitted_per_label.len() as u64);
    for list in &snap.emitted_per_label {
        put_varint(buf, list.len() as u64);
        for &p in list {
            put_varint(buf, p as u64);
        }
    }
    put_varint(buf, snap.pending.len() as u64);
    for (post, labels) in &snap.pending {
        put_varint(buf, *post as u64);
        put_varint(buf, labels.len() as u64);
        for &a in labels {
            put_varint(buf, a as u64);
        }
    }
    put_varint(buf, snap.emitted.len() as u64);
    for &p in &snap.emitted {
        put_varint(buf, p as u64);
    }
}

fn decode_engine_snapshot(
    c: &mut Cursor<'_>,
    num_labels: usize,
    num_posts: usize,
) -> Result<EngineSnapshot, MqdError> {
    let nl = c.get_varint()? as usize;
    if nl != num_labels {
        return Err(c.corrupt(format!("snapshot label count {nl} != shard's {num_labels}")));
    }
    let mut emitted_per_label = Vec::with_capacity(num_labels);
    for _ in 0..nl {
        let n = c.get_varint()?;
        if n as usize > num_posts {
            return Err(c.corrupt("per-label emitted list larger than shard"));
        }
        let n = c.plausible_len(n, 1, "per-label emitted list")?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let p = get_u32(c, "emitted post index")?;
            if p as usize >= num_posts {
                return Err(c.corrupt("emitted post index out of range"));
            }
            list.push(p);
        }
        emitted_per_label.push(list);
    }
    let np = c.get_varint()?;
    if np as usize > num_posts {
        return Err(c.corrupt("pending list larger than shard"));
    }
    // Each pending entry encodes at least 2 bytes (post + label count).
    let np = c.plausible_len(np, 2, "pending list")?;
    let mut pending = Vec::with_capacity(np);
    for _ in 0..np {
        let post = get_u32(c, "pending post index")?;
        if post as usize >= num_posts {
            return Err(c.corrupt("pending post index out of range"));
        }
        let n = c.get_varint()?;
        if n as usize > num_labels {
            return Err(c.corrupt("pending label set larger than label space"));
        }
        let n = c.plausible_len(n, 1, "pending label set")?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = c.get_varint()?;
            let a = u16::try_from(a)
                .map_err(|_| c.corrupt(format!("pending label {a} out of range")))?;
            if (a as usize) >= num_labels {
                return Err(c.corrupt("pending label out of range"));
            }
            labels.push(a);
        }
        pending.push((post, labels));
    }
    let ne = c.get_varint()?;
    if ne as usize > num_posts {
        return Err(c.corrupt("emitted set larger than shard"));
    }
    let ne = c.plausible_len(ne, 1, "emitted set")?;
    let mut emitted = Vec::with_capacity(ne);
    for _ in 0..ne {
        let p = get_u32(c, "emitted post index")?;
        if p as usize >= num_posts {
            return Err(c.corrupt("emitted post index out of range"));
        }
        emitted.push(p);
    }
    Ok(EngineSnapshot {
        emitted_per_label,
        pending,
        emitted,
    })
}

fn bitset_to_indices(bits: &[bool]) -> Vec<u32> {
    bits.iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::supervisor::{run_supervised_reference, SupervisedEmission};
    use mqd_core::{coverage, FixedLambda};

    fn instance(seed: u64, n: usize, labels: usize) -> Instance {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = 0i64;
        let items: Vec<(i64, Vec<u16>)> = (0..n)
            .map(|_| {
                t += (next() % 40) as i64;
                (t, vec![(next() % labels as u64) as u16])
            })
            .collect();
        Instance::from_values(items, labels).unwrap()
    }

    /// Re-encodes the varint at `at` (which holds `old`) as `new` and
    /// re-seals the checksum, so only the decoder's range checks stand
    /// between the forged value and a resumed run.
    fn forge(bytes: &[u8], at: usize, old: u64, new: u64) -> Vec<u8> {
        let body = &bytes[..bytes.len() - FOOTER.len() - 8];
        let mut old_enc = Vec::new();
        put_varint(&mut old_enc, old);
        assert_eq!(&body[at..at + old_enc.len()], &old_enc[..]);
        let mut out = body[..at].to_vec();
        put_varint(&mut out, new);
        out.extend_from_slice(&body[at + old_enc.len()..]);
        seal_framed(&mut out, &FOOTER);
        out
    }

    #[test]
    fn out_of_range_wire_integers_are_corrupt_not_truncated() {
        let inst = instance(21, 80, 2);
        let (lambda, tau, kind) = (60, 35, ShardEngineKind::Scan);
        let plan = FaultPlan::none();
        let mut run = SupervisedRun::new(&inst, lambda, tau, 1, kind, &plan);
        // A boundary where the shard has released a post and buffers one.
        while run.sups[0].emissions_so_far().is_empty()
            || run.sups[0].engine_state().pending.is_empty()
        {
            assert!(
                run.step().unwrap(),
                "no boundary with an emission and a pending post"
            );
        }
        let bytes = encode_checkpoint(&mut run);
        assert!(resume_supervised(&inst, lambda, tau, 1, kind, &plan, &bytes).is_ok());

        // Offsets of the three forged fields, in the encoder's layout.
        let sup = &run.sups[0];
        let mut at = MAGIC.to_vec();
        put_varint(&mut at, VERSION);
        put_varint_i64(&mut at, lambda);
        put_varint_i64(&mut at, tau);
        put_varint(&mut at, 1);
        at.push(kind.to_tag());
        put_varint(&mut at, run.digest);
        put_varint(&mut at, run.seed);
        let next_post_at = at.len();
        put_varint(&mut at, run.next_post as u64);
        put_varint(&mut at, sup.seq());
        put_varint(&mut at, sup.next_expected as u64);
        put_varint_i64(&mut at, sup.clock);
        put_varint_i64(&mut at, sup.stall_until);
        at.push(sup.degraded as u8);
        encode_counters(&mut at, &sup.counters);
        encode_flags(&mut at, &sup.fired);
        let emitted = bitset_to_indices(sup.emitted_local_bits());
        put_varint(&mut at, emitted.len() as u64);
        for p in emitted {
            put_varint(&mut at, p as u64);
        }
        let snap = sup.engine_state();
        let mut label_at = at.clone();
        put_varint(&mut label_at, snap.emitted_per_label.len() as u64);
        for list in &snap.emitted_per_label {
            put_varint(&mut label_at, list.len() as u64);
            for &p in list {
                put_varint(&mut label_at, p as u64);
            }
        }
        let (pending_post, pending_labels) = &snap.pending[0];
        put_varint(&mut label_at, snap.pending.len() as u64);
        put_varint(&mut label_at, *pending_post as u64);
        put_varint(&mut label_at, pending_labels.len() as u64);
        encode_engine_snapshot(&mut at, &snap);
        put_varint(&mut at, sup.emissions_so_far().len() as u64);
        assert_eq!(&bytes[..label_at.len()], &label_at[..], "layout drifted");
        assert_eq!(&bytes[..at.len()], &at[..], "layout drifted");

        // Each wide value truncates to the valid one it replaces.
        let post = sup.emissions_so_far()[0].post as u64;
        let label = pending_labels[0] as u64;
        let next_post = run.next_post as u64;
        for (offset, old, wide) in [
            (next_post_at, next_post, next_post + (1 << 32)),
            (at.len(), post, post + (1 << 32)),
            (label_at.len(), label, label + (1 << 16)),
        ] {
            let forged = forge(&bytes, offset, old, wide);
            match resume_supervised(&inst, lambda, tau, 1, kind, &plan, &forged) {
                Err(MqdError::Corrupt { .. }) => {}
                other => panic!("{wide} at byte {offset} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        let inst = instance(13, 120, 4);
        let (lambda, tau, shards) = (60, 35, 4);
        let kind = ShardEngineKind::ScanPlus;
        let plan = FaultPlan::for_instance(&inst, shards, 4242, tau);

        let full = run_supervised_reference(&inst, lambda, tau, shards, kind, &plan).unwrap();

        for kill_at in [1u32, 30, 60, 119, 120] {
            // Phase 1: run to the kill point, checkpointing there.
            let mut run = SupervisedRun::new(&inst, lambda, tau, shards, kind, &plan);
            while run.position() < kill_at && run.step().unwrap() {}
            let bytes = encode_checkpoint(&mut run);
            // What a process killed here has durably published (no flush)
            // must be a subset of the uninterrupted run's emissions.
            let pre: Vec<SupervisedEmission> = run.released_emissions();
            for e in &pre {
                assert!(
                    full.emissions.contains(e),
                    "kill at {kill_at}: pre-kill emission {e:?} not in full run"
                );
            }
            drop(run);
            // Phase 2: the process dies; a fresh one resumes from the blob.
            // The checkpoint carries the emission log, so the resumed run's
            // final output is the complete stream, byte-identical.
            let mut resumed =
                resume_supervised(&inst, lambda, tau, shards, kind, &plan, &bytes).unwrap();
            assert_eq!(resumed.position(), kill_at.min(inst.len() as u32));
            resumed.run_all().unwrap();
            let post = resumed.finish().unwrap();

            assert_eq!(
                post.emissions, full.emissions,
                "kill at {kill_at}: resumed output differs from uninterrupted run"
            );
            assert_eq!(post.report.to_json(), full.report.to_json());
            let selected: Vec<u32> = {
                let mut s: Vec<u32> = post.emissions.iter().map(|e| e.post).collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            assert!(coverage::is_cover(&inst, &FixedLambda(lambda), &selected));
        }
    }

    #[test]
    fn mismatched_parameters_are_refused() {
        let inst = instance(5, 50, 3);
        let plan = FaultPlan::none();
        let kind = ShardEngineKind::Scan;
        let mut run = SupervisedRun::new(&inst, 40, 20, 3, kind, &plan);
        run.step().unwrap();
        let bytes = encode_checkpoint(&mut run);

        let err = resume_supervised(&inst, 41, 20, 3, kind, &plan, &bytes).unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
        let err = resume_supervised(&inst, 40, 21, 3, kind, &plan, &bytes).unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
        let err = resume_supervised(&inst, 40, 20, 2, kind, &plan, &bytes).unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
        let err = resume_supervised(&inst, 40, 20, 3, ShardEngineKind::Greedy, &plan, &bytes)
            .unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
        let other = instance(6, 50, 3);
        let err = resume_supervised(&other, 40, 20, 3, kind, &plan, &bytes).unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
    }

    #[test]
    fn resume_under_another_seed_is_a_mismatch() {
        let inst = instance(9, 90, 3);
        let (lambda, tau, shards, kind) = (50, 25, 3, ShardEngineKind::Greedy);
        let plan = FaultPlan::for_instance(&inst, shards, 7, tau);
        let mut run = SupervisedRun::new(&inst, lambda, tau, shards, kind, &plan);
        while run.position() < 40 && run.step().unwrap() {}
        let bytes = encode_checkpoint(&mut run);

        // Same faults, another seed: the plan is not the one checkpointed.
        let other = FaultPlan::from_faults(8, plan.faults.clone());
        let err = resume_supervised(&inst, lambda, tau, shards, kind, &other, &bytes).unwrap_err();
        assert!(matches!(err, MqdError::CheckpointMismatch { .. }), "{err}");
        assert!(resume_supervised(&inst, lambda, tau, shards, kind, &plan, &bytes).is_ok());
    }

    #[test]
    fn corrupted_bytes_are_typed_errors() {
        let inst = instance(7, 40, 2);
        let plan = FaultPlan::none();
        let mut run = SupervisedRun::new(&inst, 30, 15, 2, ShardEngineKind::Scan, &plan);
        for _ in 0..10 {
            run.step().unwrap();
        }
        let bytes = encode_checkpoint(&mut run);
        // Body flip: checksum catches it.
        let mut bad = bytes.clone();
        bad[8] ^= 0xff;
        let err =
            resume_supervised(&inst, 30, 15, 2, ShardEngineKind::Scan, &plan, &bad).unwrap_err();
        assert!(matches!(err, MqdError::Corrupt { .. }), "{err}");
        // Truncation: footer check catches it.
        let err = resume_supervised(
            &inst,
            30,
            15,
            2,
            ShardEngineKind::Scan,
            &plan,
            &bytes[..bytes.len() - 5],
        )
        .unwrap_err();
        assert!(matches!(err, MqdError::Corrupt { .. }), "{err}");
        // A version-1 blob under a valid checksum is refused, not misread.
        let v1 = forge(&bytes, MAGIC.len(), VERSION, 1);
        let err =
            resume_supervised(&inst, 30, 15, 2, ShardEngineKind::Scan, &plan, &v1).unwrap_err();
        assert!(
            matches!(err, MqdError::Corrupt { .. }) && err.to_string().contains("version 1"),
            "{err}"
        );
    }

    /// The format's framing as literal bytes. Encoder and decoder share
    /// `MAGIC` and `FOOTER`, so a stale copy of either still round-trips;
    /// only a comparison against the bytes themselves catches it.
    #[test]
    fn framing_is_the_literal_magic_and_footer() {
        let inst = instance(7, 40, 2);
        let plan = FaultPlan::none();
        let mut run = SupervisedRun::new(&inst, 30, 15, 2, ShardEngineKind::Scan, &plan);
        let bytes = encode_checkpoint(&mut run);
        assert_eq!(&bytes[..4], b"MQDC");
        assert_eq!(&bytes[bytes.len() - 12..bytes.len() - 8], b"END!");
    }
}
