//! Durable `SUBSCRIBE` sessions: the named-checkpoint file format and the
//! lease registry retention GC consults.
//!
//! A named subscription (`SUBSCRIBE ... NAME <id>`) is checkpointed after
//! every emission chunk into `<data-dir>/subs/<id>`, written atomically
//! through `mqd_wal::fsio`. The file wraps the engine checkpoint from
//! [`mqd_stream::checkpoint`] (which already carries the shard states,
//! emission log, and instance digest) with the subscription's own
//! parameters, so a resuming server can (a) reject a `SUBSCRIBE` whose
//! parameters drifted from the original session with a typed error, and
//! (b) know which store rows the session may still need — its GC lease —
//! without decoding the inner engine state.
//!
//! ```text
//! file   := body "END!" checksum:u64_be       (shared framed footer)
//! body   := "MQSB" version:varint
//!           lambda:zigzag tau:zigzag shards:varint engine:u8
//!           from:zigzag to:zigzag
//!           nlabels:varint label:varint*
//!           inner_len:varint inner_bytes      (mqd_stream checkpoint blob)
//! ```

use std::collections::HashMap;

use mqd_core::wire::{check_framed, put_varint, put_varint_i64, seal_framed, Cursor};
use mqd_core::MqdError;
use mqd_stream::ShardEngineKind;

use crate::protocol::SubscribeSpec;

/// File magic — aliased from the sanctioned wire module.
pub const MAGIC: [u8; 4] = *mqd_core::wire::SUBSCRIPTION_MAGIC;
/// Shared framed footer magic.
const FOOTER: [u8; 4] = *mqd_core::wire::FRAME_FOOTER;
/// Format version.
const VERSION: u64 = 1;
/// Sanity bound on the wrapped engine checkpoint.
const MAX_INNER_BYTES: u64 = 256 * 1024 * 1024;

/// The parameters a checkpoint wrapper pins (everything in the spec except
/// the client-side `after` skip, which does not affect the run).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubParams {
    /// Subscribed label ids (sorted, deduped).
    pub labels: Vec<u16>,
    /// Coverage threshold.
    pub lambda: i64,
    /// Delay budget.
    pub tau: i64,
    /// Streaming engine.
    pub engine: ShardEngineKind,
    /// Slice lower bound.
    pub from: i64,
    /// Slice upper bound.
    pub to: i64,
    /// Shard count.
    pub shards: usize,
}

impl SubParams {
    /// The wrapper-relevant projection of a `SUBSCRIBE` spec. Labels are
    /// normalized the same way the store slices them, so token order on
    /// the wire does not break resumption.
    pub fn of(spec: &SubscribeSpec) -> SubParams {
        let mut labels = spec.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        SubParams {
            labels,
            lambda: spec.lambda,
            tau: spec.tau,
            engine: spec.engine,
            from: spec.from,
            to: spec.to,
            shards: spec.shards,
        }
    }

    /// Smallest store value this session may still need: the slice start,
    /// widened by λ (repair and coverage decisions look back at most one
    /// window). Full-range sessions lease everything.
    pub fn lease_floor(&self) -> i64 {
        self.from.saturating_sub(self.lambda)
    }
}

/// Wraps an engine checkpoint blob with the session parameters.
pub fn encode_wrapper(params: &SubParams, inner: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + inner.len());
    buf.extend_from_slice(&MAGIC);
    put_varint(&mut buf, VERSION);
    put_varint_i64(&mut buf, params.lambda);
    put_varint_i64(&mut buf, params.tau);
    put_varint(&mut buf, params.shards as u64);
    buf.push(params.engine.to_tag());
    put_varint_i64(&mut buf, params.from);
    put_varint_i64(&mut buf, params.to);
    put_varint(&mut buf, params.labels.len() as u64);
    for &l in &params.labels {
        put_varint(&mut buf, l as u64);
    }
    put_varint(&mut buf, inner.len() as u64);
    buf.extend_from_slice(inner);
    seal_framed(&mut buf, &FOOTER);
    buf
}

/// Decodes a checkpoint wrapper into its parameters and the inner engine
/// blob. All corruption is a typed [`MqdError::Corrupt`].
pub fn decode_wrapper(data: &[u8]) -> Result<(SubParams, Vec<u8>), MqdError> {
    let body = check_framed(data, &FOOTER, MAGIC.len() + 1)?;
    let mut c = Cursor::new(body);
    let magic: [u8; 4] = c.get_array()?;
    if magic != MAGIC {
        return Err(c.corrupt("not a subscription checkpoint (bad magic)"));
    }
    let version = c.get_varint()?;
    if version != VERSION {
        return Err(c.corrupt(format!("unsupported subscription version {version}")));
    }
    let lambda = c.get_varint_i64()?;
    let tau = c.get_varint_i64()?;
    let shards = c.get_varint()?;
    if shards == 0 || shards > 64 {
        return Err(c.corrupt(format!("implausible shard count {shards}")));
    }
    let shards = shards as usize;
    let tag = c.get_u8()?;
    let engine = ShardEngineKind::from_tag(tag)
        .ok_or_else(|| c.corrupt(format!("unknown engine tag {tag}")))?;
    let from = c.get_varint_i64()?;
    let to = c.get_varint_i64()?;
    let nlabels = c.get_varint()?;
    if nlabels == 0 || nlabels > u16::MAX as u64 + 1 {
        return Err(c.corrupt(format!("implausible label count {nlabels}")));
    }
    let mut labels = Vec::with_capacity(c.plausible_len(nlabels, 1, "label")?);
    let mut prev: Option<u16> = None;
    for _ in 0..nlabels {
        let l = c.get_varint()?;
        let l = u16::try_from(l).map_err(|_| c.corrupt("label out of range"))?;
        if prev.is_some_and(|p| l <= p) {
            return Err(c.corrupt("labels not sorted/deduped"));
        }
        prev = Some(l);
        labels.push(l);
    }
    let inner_len = c.get_varint()?;
    if inner_len > MAX_INNER_BYTES {
        return Err(c.corrupt(format!("implausible inner checkpoint size {inner_len}")));
    }
    // The inner blob is raw bytes: a claimed length beyond what remains is
    // corrupt, and preallocating for it first would hand a hostile frame a
    // 256 MiB allocation before validation. Clamp, then bulk-copy.
    let inner_len = c.plausible_len(inner_len, 1, "inner checkpoint byte")?;
    let mut inner = Vec::with_capacity(inner_len);
    for _ in 0..inner_len {
        inner.push(c.get_u8()?);
    }
    if c.has_remaining() {
        return Err(c.corrupt("trailing bytes after subscription checkpoint"));
    }
    Ok((
        SubParams {
            labels,
            lambda,
            tau,
            engine,
            from,
            to,
            shards,
        },
        inner,
    ))
}

/// Live GC leases: named durable subscriptions that may resume and re-read
/// old rows. Keyed by session name; a lease survives server restarts
/// because [`scan_leases`] re-registers every checkpoint file at boot.
#[derive(Default)]
pub struct LeaseRegistry {
    floors: HashMap<String, i64>,
}

impl LeaseRegistry {
    /// Registers (or refreshes) the lease for `name`.
    pub fn register(&mut self, name: &str, params: &SubParams) {
        self.floors.insert(name.to_string(), params.lease_floor());
    }

    /// Drops the lease once the session completed and its checkpoint file
    /// is gone.
    pub fn release(&mut self, name: &str) {
        self.floors.remove(name);
    }

    /// The smallest value any live lease may still need (`i64::MAX` when
    /// no lease exists — nothing constrains GC).
    pub fn floor(&self) -> i64 {
        self.floors.values().copied().min().unwrap_or(i64::MAX)
    }
}

/// Re-registers the lease of every checkpoint file under `subs_dir`.
/// Unreadable or corrupt files are conservative, not fatal: they register
/// an `i64::MIN` floor (blocking GC) rather than silently losing a lease —
/// a corrupt checkpoint still answers its eventual `SUBSCRIBE` with a
/// typed error instead of a hole in the store.
pub fn scan_leases(subs_dir: &std::path::Path, registry: &mut LeaseRegistry) {
    let Ok(entries) = std::fs::read_dir(subs_dir) else {
        return; // no subs dir yet: nothing to lease
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            continue;
        }
        match std::fs::read(entry.path())
            .map_err(MqdError::from)
            .and_then(|b| decode_wrapper(&b))
        {
            Ok((params, _)) => registry.register(&name, &params),
            Err(_) => {
                registry.floors.insert(name, i64::MIN);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SubParams {
        SubParams {
            labels: vec![0, 3, 9],
            lambda: 50,
            tau: 20,
            engine: ShardEngineKind::GreedyPlus,
            from: -100,
            to: 1_000_000,
            shards: 4,
        }
    }

    #[test]
    fn wrapper_round_trips() {
        let inner = vec![7u8; 133];
        let blob = encode_wrapper(&params(), &inner);
        let (p, i) = decode_wrapper(&blob).unwrap();
        assert_eq!(p, params());
        assert_eq!(i, inner);
    }

    /// The format's framing as literal bytes. Encoder and decoder share
    /// `MAGIC` and `FOOTER`, so a stale copy of either still round-trips;
    /// only a comparison against the bytes themselves catches it.
    #[test]
    fn framing_is_the_literal_magic_and_footer() {
        let blob = encode_wrapper(&params(), &[1, 2, 3]);
        assert_eq!(&blob[..4], b"MQSB");
        assert_eq!(&blob[blob.len() - 12..blob.len() - 8], b"END!");
    }

    #[test]
    fn wrapper_corruption_is_typed() {
        let blob = encode_wrapper(&params(), &[1, 2, 3]);
        for at in 0..blob.len() {
            let mut bad = blob.clone();
            bad[at] ^= 0x01;
            match decode_wrapper(&bad) {
                Err(MqdError::Corrupt { .. }) => {}
                Err(other) => panic!("flip at {at}: unexpected error kind {other:?}"),
                Ok((p, i)) => {
                    // A flip that round-trips must be a no-op on content
                    // (impossible with a checksum over every byte).
                    panic!("flip at {at} accepted: {p:?} {}b", i.len());
                }
            }
        }
        for keep in 0..blob.len() {
            assert!(
                decode_wrapper(&blob[..keep]).is_err(),
                "truncated to {keep}"
            );
        }
    }

    #[test]
    fn huge_claimed_lengths_fail_before_allocating() {
        // Rewrite a valid wrapper's inner_len to claim MAX_INNER_BYTES and
        // reseal the checksum, so only the length validation stands
        // between the decoder and a 256 MiB preallocation.
        let blob = encode_wrapper(&params(), &[1, 2, 3]);
        let footer = FOOTER.len() + 8;
        let mut body = blob[..blob.len() - footer].to_vec();
        // inner_len is the varint right before the 3 inner bytes.
        let at = body.len() - 4;
        assert_eq!(body[at], 3);
        body.truncate(at);
        put_varint(&mut body, MAX_INNER_BYTES);
        body.extend_from_slice(&[1, 2, 3]);
        seal_framed(&mut body, &FOOTER);
        match decode_wrapper(&body) {
            Err(MqdError::Corrupt { reason, .. }) => {
                assert!(reason.contains("count"), "got: {reason}")
            }
            other => panic!("huge inner_len accepted: {other:?}"),
        }

        // Same attack on nlabels: claim 65536 labels in a tiny body. The
        // label list starts right after from/to; rebuild the prefix by
        // hand and reseal.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        put_varint(&mut body, VERSION);
        put_varint_i64(&mut body, 50); // lambda
        put_varint_i64(&mut body, 20); // tau
        put_varint(&mut body, 4); // shards
        body.push(ShardEngineKind::Scan.to_tag());
        put_varint_i64(&mut body, 0); // from
        put_varint_i64(&mut body, 100); // to
        put_varint(&mut body, u16::MAX as u64 + 1); // nlabels, passes the u16 bound
        put_varint(&mut body, 0); // one actual label
        seal_framed(&mut body, &FOOTER);
        match decode_wrapper(&body) {
            Err(MqdError::Corrupt { reason, .. }) => {
                assert!(reason.contains("count"), "got: {reason}")
            }
            other => panic!("huge nlabels accepted: {other:?}"),
        }
    }

    #[test]
    fn scan_leases_restores_floors_and_blocks_gc_on_unreadable_files() {
        let dir = std::env::temp_dir().join(format!("mqd-scan-leases-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("valid"), encode_wrapper(&params(), &[1, 2, 3])).unwrap();
        std::fs::write(dir.join("corrupt"), b"MQSB not a checkpoint").unwrap();
        // An atomic write's leftover, whose floor would block GC were it
        // leased: swept at boot, never a lease.
        let mut tmp = params();
        tmp.from = i64::MIN + 1;
        std::fs::write(dir.join("gone.tmp"), encode_wrapper(&tmp, &[])).unwrap();

        let mut reg = LeaseRegistry::default();
        scan_leases(&dir, &mut reg);
        assert_eq!(reg.floors.len(), 2, "{:?}", reg.floors);
        // The corrupt file blocks GC outright.
        assert_eq!(reg.floor(), i64::MIN);
        reg.release("corrupt");
        // The valid wrapper's floor is its `from - lambda`.
        assert_eq!(reg.floor(), params().from - params().lambda);

        // A missing directory leases nothing.
        let mut empty = LeaseRegistry::default();
        scan_leases(&dir.join("absent"), &mut empty);
        assert_eq!(empty.floor(), i64::MAX);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_floor_widens_by_lambda_and_saturates() {
        let mut p = params();
        assert_eq!(p.lease_floor(), -150);
        p.from = i64::MIN;
        assert_eq!(p.lease_floor(), i64::MIN, "full-range lease blocks GC");
        let mut reg = LeaseRegistry::default();
        assert_eq!(reg.floor(), i64::MAX);
        reg.register("a", &params());
        reg.register("b", &p);
        assert_eq!(reg.floor(), i64::MIN);
        reg.release("b");
        assert_eq!(reg.floor(), -150);
        reg.release("a");
        assert_eq!(reg.floor(), i64::MAX);
    }
}
