//! Shared binary wire primitives for the workspace's on-disk formats.
//!
//! The CLI's binlog and the streaming checkpoint format both store integers
//! as LEB128 varints (signed values zigzag-mapped first) and detect
//! truncation or bit rot with a trailing FNV-1a checksum. This module is
//! the single home of those primitives so every codec shares one
//! bounds-checked reader and reports failures as typed
//! [`MqdError::Corrupt`] errors carrying the byte offset.

use crate::error::MqdError;

/// Footer magic sealing every framed blob (binlog, store segment,
/// checkpoint) ahead of its FNV-1a checksum. This module and
/// `mqd_core::record` are the only places wire magic is minted;
/// everywhere else aliases these constants. A copy that drifts still
/// round-trips through its own module, so each format's bytes are
/// pinned by a named test:
/// - `WAL!`, `MQDS` and the segment's `END!`: `mqd-wal`'s
///   `tests/seal_bytes.rs`, which opens a data dir written with them
///   (`tests/golden/`);
/// - the binlog's `END!`: `mqd-server`'s `tests/ingest_columns.rs`;
/// - `MQDC` and `MQSB`, each with its `END!`:
///   `framing_is_the_literal_magic_and_footer` in
///   `mqd_stream::checkpoint` and in `mqd_server::subs`;
/// - `MQRT` and its `END!`: `hello_frame_round_trips_and_rejects_bad_maps`
///   below (encoder and decoder both live in this module).
pub const FRAME_FOOTER: &[u8; 4] = b"END!";

/// File magic of a streaming checkpoint blob (`mqd-stream::checkpoint`).
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"MQDC";

/// File magic of the durable store's write-ahead log (`mqd-wal::wal`).
pub const WAL_MAGIC: &[u8; 4] = b"WAL!";

/// File magic of a sealed on-disk store segment (`mqd-wal::segment`).
pub const SEGMENT_MAGIC: &[u8; 4] = b"MQDS";

/// File magic of a durable `SUBSCRIBE` checkpoint wrapper (the server's
/// named-subscription files; the inner payload is a [`CHECKPOINT_MAGIC`]
/// blob).
pub const SUBSCRIPTION_MAGIC: &[u8; 4] = b"MQSB";

/// Frame magic of the router/backend `HELLO` handshake (`mqd-router`).
pub const ROUTER_MAGIC: &[u8; 4] = b"MQRT";

/// Version byte of the router handshake frame.
pub const ROUTER_VERSION: u8 = 1;

/// Upper bound on cluster shard count — matches the `SHARDS` clamp the
/// serving protocol already applies to per-query label sharding.
pub const MAX_SHARD_COUNT: u32 = 64;

/// The canonical shard map: a label is owned by exactly one shard, and
/// every node (router, backends, oracle) derives ownership from this one
/// function so the map can never drift.
pub fn shard_of_label(label: u16, shard_count: u32) -> u32 {
    (label as u32) % shard_count.max(1)
}

/// A backend's position in the cluster shard map, exchanged in the
/// router handshake and pinned by `mqdiv serve --shard-id/--shard-count`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardIdentity {
    /// Which shard this backend serves (`0..shard_count`).
    pub shard_id: u32,
    /// Total shards in the cluster map.
    pub shard_count: u32,
}

/// Encodes the router handshake frame: magic, version, and the shard map
/// coordinates the router expects the backend to hold.
pub fn encode_hello(identity: &ShardIdentity) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(ROUTER_MAGIC);
    buf.push(ROUTER_VERSION);
    put_varint(&mut buf, identity.shard_id as u64);
    put_varint(&mut buf, identity.shard_count as u64);
    seal_framed(&mut buf, FRAME_FOOTER);
    buf
}

/// Decodes and validates a router handshake frame.
pub fn decode_hello(data: &[u8]) -> Result<ShardIdentity, MqdError> {
    let body = check_framed(data, FRAME_FOOTER, 7)?;
    let mut c = Cursor::new(body);
    let magic = c.get_array::<4>()?;
    if &magic != ROUTER_MAGIC {
        return Err(c.corrupt("not a router hello frame"));
    }
    let version = c.get_u8()?;
    if version != ROUTER_VERSION {
        return Err(c.corrupt(format!("unsupported router frame version {version}")));
    }
    let shard_id = c.get_varint()?;
    let shard_count = c.get_varint()?;
    if shard_count == 0 || shard_count > MAX_SHARD_COUNT as u64 {
        return Err(c.corrupt(format!("shard count {shard_count} out of range")));
    }
    if shard_id >= shard_count {
        return Err(c.corrupt(format!(
            "shard id {shard_id} outside shard count {shard_count}"
        )));
    }
    if c.has_remaining() {
        return Err(c.corrupt("trailing bytes after hello frame"));
    }
    Ok(ShardIdentity {
        shard_id: shard_id as u32,
        shard_count: shard_count as u32,
    })
}

/// FNV-1a over a byte slice — the workspace's integrity checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a signed value as a zigzag-mapped varint.
pub fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Maps a signed value onto the unsigned varint domain.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked forward reader over a byte slice. Every failure is a
/// [`MqdError::Corrupt`] naming the byte offset where decoding stopped.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether any bytes remain.
    pub fn has_remaining(&self) -> bool {
        self.pos < self.data.len()
    }

    /// Unread bytes left in the buffer.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Validates an untrusted element count against the bytes actually
    /// left: each element occupies at least `min_encoded_size` bytes, so a
    /// count beyond `remaining / min_encoded_size` cannot be satisfied by
    /// any suffix of the input and is reported as [`MqdError::Corrupt`]
    /// before a single byte is allocated for it. Returns the count as a
    /// capacity safe to pass to `Vec::with_capacity`.
    pub fn plausible_len(
        &self,
        n: u64,
        min_encoded_size: usize,
        what: &str,
    ) -> Result<usize, MqdError> {
        let cap = (self.remaining() / min_encoded_size.max(1)) as u64;
        if n > cap {
            return Err(self.corrupt(format!(
                "{what} count {n} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Builds the typed error for a failure at the current offset.
    pub fn corrupt(&self, reason: impl Into<String>) -> MqdError {
        MqdError::Corrupt {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, MqdError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a fixed-size array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], MqdError> {
        let end = self.pos.checked_add(N).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(self.corrupt("unexpected end of input"));
        };
        let out: [u8; N] = self.data[self.pos..end].try_into().expect("N bytes");
        self.pos = end;
        Ok(out)
    }

    /// Reads an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, MqdError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            if !self.has_remaining() {
                return Err(self.corrupt("truncated varint"));
            }
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(self.corrupt("varint overflow"));
            }
            out |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-mapped signed varint.
    pub fn get_varint_i64(&mut self) -> Result<i64, MqdError> {
        Ok(unzigzag(self.get_varint()?))
    }
}

/// Splits a framed buffer `body ++ footer_magic ++ u64 checksum` and
/// verifies the checksum over the body. Returns the body.
pub fn check_framed<'a>(
    data: &'a [u8],
    footer_magic: &[u8; 4],
    min_body: usize,
) -> Result<&'a [u8], MqdError> {
    let frame = footer_magic.len() + 8;
    if data.len() < min_body + frame {
        return Err(MqdError::Corrupt {
            offset: data.len(),
            reason: "file too short for this format".into(),
        });
    }
    let (body, tail) = data.split_at(data.len() - frame);
    if &tail[..4] != footer_magic {
        return Err(MqdError::Corrupt {
            offset: body.len(),
            reason: "missing end marker (truncated file?)".into(),
        });
    }
    let stored = u64::from_be_bytes(tail[4..].try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(MqdError::Corrupt {
            offset: 0,
            reason: "checksum mismatch (corrupted file)".into(),
        });
    }
    Ok(body)
}

/// Appends the footer `footer_magic ++ FNV-1a(body)` to `buf`.
pub fn seal_framed(buf: &mut Vec<u8>, footer_magic: &[u8; 4]) {
    let checksum = fnv1a(buf);
    buf.extend_from_slice(footer_magic);
    buf.extend_from_slice(&checksum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            put_varint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(c.get_varint().unwrap(), v);
        }
        assert!(!c.has_remaining());
    }

    #[test]
    fn truncated_varint_reports_offset() {
        let buf = [0x80u8, 0x80]; // continuation bits with no terminator
        let mut c = Cursor::new(&buf);
        let err = c.get_varint().unwrap_err();
        match err {
            MqdError::Corrupt { offset, reason } => {
                assert_eq!(offset, 2);
                assert!(reason.contains("varint"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        // 10 continuation bytes push shift past 64.
        let buf = [0xffu8; 11];
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.get_varint().unwrap_err(),
            MqdError::Corrupt { .. }
        ));
    }

    #[test]
    fn plausible_len_rejects_impossible_counts() {
        let buf = [0u8; 16];
        let mut c = Cursor::new(&buf);
        c.get_u8().unwrap();
        assert_eq!(c.remaining(), 15);
        // 15 one-byte elements fit; 16 cannot.
        assert_eq!(c.plausible_len(15, 1, "labels").unwrap(), 15);
        assert!(matches!(
            c.plausible_len(16, 1, "labels").unwrap_err(),
            MqdError::Corrupt { .. }
        ));
        // 5 three-byte elements fit; 6 cannot; u64::MAX certainly cannot.
        assert_eq!(c.plausible_len(5, 3, "rows").unwrap(), 5);
        assert!(c.plausible_len(6, 3, "rows").is_err());
        assert!(c.plausible_len(u64::MAX, 3, "rows").is_err());
    }

    #[test]
    fn hello_frame_round_trips_and_rejects_bad_maps() {
        let id = ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        };
        let frame = encode_hello(&id);
        assert_eq!(decode_hello(&frame).unwrap(), id);
        // Corruption is caught by the checksum.
        let mut bad = frame.clone();
        bad[5] ^= 0x01;
        assert!(decode_hello(&bad).is_err());
        // Out-of-range maps are rejected even when correctly framed.
        for (sid, count) in [(0u32, 0u32), (2, 2), (0, MAX_SHARD_COUNT + 1)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(ROUTER_MAGIC);
            buf.push(ROUTER_VERSION);
            put_varint(&mut buf, sid as u64);
            put_varint(&mut buf, count as u64);
            seal_framed(&mut buf, FRAME_FOOTER);
            assert!(decode_hello(&buf).is_err(), "accepted {sid}/{count}");
        }
    }

    #[test]
    fn shard_map_is_total_and_stable() {
        for label in 0..u16::MAX {
            let s = shard_of_label(label, 4);
            assert!(s < 4);
            assert_eq!(s, (label % 4) as u32);
        }
        // A single-shard map owns everything; zero is clamped, not a panic.
        assert_eq!(shard_of_label(123, 1), 0);
        assert_eq!(shard_of_label(123, 0), 0);
    }

    #[test]
    fn framed_seal_and_check() {
        let mut buf = b"payload".to_vec();
        seal_framed(&mut buf, b"END!");
        assert_eq!(check_framed(&buf, b"END!", 0).unwrap(), b"payload");
        // Flip a body byte: checksum failure.
        let mut bad = buf.clone();
        bad[2] ^= 0xff;
        assert!(check_framed(&bad, b"END!", 0).is_err());
        // Truncate: end-marker failure.
        assert!(check_framed(&buf[..buf.len() - 3], b"END!", 0).is_err());
        // Too short entirely.
        assert!(check_framed(b"x", b"END!", 0).is_err());
    }
}
