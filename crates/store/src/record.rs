//! Record frames: the unit of appending, checksumming and recovery.
//!
//! Current (v2) frame layout, little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       1     record magic 0xCD
//! 1       1     schema version (2)
//! 2       1     keyspace
//! 3       1     flags (bit 0 = tombstone)
//! 4       8     seqno (u64 LE)
//! 12      4     key_len (u32 LE)
//! 16      4     val_len (u32 LE)
//! 20      K     key bytes
//! 20+K    V     value bytes
//! 20+K+V  8     checksum: FNV-1a 64 over bytes [0, 20+K+V) (u64 LE)
//! ```
//!
//! The legacy v1 frame (read-only; rewritten as v2 by compaction) is
//! identical except the header has **no seqno field** — 12 header
//! bytes, checksum over `[0, 12+K+V)`. The scanner assigns migrated v1
//! records synthetic seqnos in scan order, which preserves their
//! last-writer-wins semantics because v1 stores were single-writer
//! append-only logs. See `docs/STORAGE.md` §3 for the normative rules.
//!
//! The checksum covers the *entire* frame before it, header included,
//! so a bit flip anywhere — kind, lengths, key, value, even the flags
//! byte that distinguishes a write from a delete — is detected before
//! any field is trusted.

use crate::{fnv64, StoreError};

/// First byte of every record frame.
pub const RECORD_MAGIC: u8 = 0xCD;

/// Legacy schema: 12-byte header without a seqno field.
pub const SCHEMA_V1: u8 = 1;

/// Current schema: 20-byte header carrying the record seqno.
pub const SCHEMA_V2: u8 = 2;

/// Header length of a v2 frame, bytes.
pub const HEADER_V2_BYTES: usize = 20;

/// Header length of a legacy v1 frame, bytes.
pub const HEADER_V1_BYTES: usize = 12;

/// Checksum trailer length, bytes.
pub const CHECKSUM_BYTES: usize = 8;

/// Hard cap on key length (1 MiB). A larger length field is corruption.
pub const MAX_KEY_BYTES: usize = 1 << 20;

/// Hard cap on value length (4 MiB), mirroring the wire codec's frame
/// cap: anything longer is a corrupt length field, and reading it would
/// let one bad frame pin the process's memory.
pub const MAX_VALUE_BYTES: usize = 1 << 22;

/// Flags bit 0: this record is a tombstone (the key is deleted; the
/// value must be empty).
pub const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// A namespace for keys, so one store serves several caches without
/// key collisions. The byte value is part of the on-disk format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Keyspace(pub u8);

impl Keyspace {
    /// Legacy: Theorem 1.1 bound packages (`BoundsReport` wire bytes),
    /// migrated into [`Keyspace::VERDICT`] on first open.
    pub const BOUNDS: Keyspace = Keyspace(1);
    /// Legacy: exact `CC(f)` search verdicts (`Response::CcSearch` wire
    /// bytes), migrated into [`Keyspace::VERDICT`] on first open.
    pub const CC: Keyspace = Keyspace(2);
    /// Legacy: singularity verdicts keyed on a matrix fingerprint;
    /// dropped unread on first open.
    pub const CRT: Keyspace = Keyspace(3);
    /// Idempotent protocol-run replays (`RetryClient` ledger).
    pub const RUN: Keyspace = Keyspace(4);
    /// Durable enumeration cursors ([`crate::cursor`]).
    pub const CURSOR: Keyspace = Keyspace(5);
    /// Spilled search-memo entries (canonical rectangle brackets).
    pub const MEMO: Keyspace = Keyspace(6);
    /// Certified server verdicts keyed on the exact request (its wire
    /// bytes, then the backend id); values are `Response` wire bytes.
    pub const VERDICT: Keyspace = Keyspace(7);

    /// Human-readable name for stat output; unknown bytes print as
    /// `ks-<n>` (the store is generic over application keyspaces).
    pub fn name(self) -> String {
        match self {
            Keyspace::BOUNDS => "bounds".into(),
            Keyspace::CC => "cc".into(),
            Keyspace::CRT => "crt".into(),
            Keyspace::RUN => "run".into(),
            Keyspace::CURSOR => "cursor".into(),
            Keyspace::MEMO => "memo".into(),
            Keyspace::VERDICT => "verdict".into(),
            Keyspace(other) => format!("ks-{other}"),
        }
    }
}

/// A decoded record frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Schema version the frame was read with (write path is always
    /// [`SCHEMA_V2`]).
    pub schema: u8,
    /// Key namespace.
    pub keyspace: Keyspace,
    /// Monotonic sequence number; for v1 frames, assigned by the
    /// scanner in scan order.
    pub seqno: u64,
    /// True when this frame deletes its key.
    pub tombstone: bool,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Total encoded frame length of this record at schema v2.
    pub fn frame_len(&self) -> usize {
        HEADER_V2_BYTES + self.key.len() + self.value.len() + CHECKSUM_BYTES
    }
}

/// Encode a v2 frame. Callers must respect the key/value caps; the
/// store's `put` validates them before reaching here.
pub fn encode(rec: &Record) -> Vec<u8> {
    debug_assert!(rec.key.len() <= MAX_KEY_BYTES);
    debug_assert!(rec.value.len() <= MAX_VALUE_BYTES);
    let mut out = Vec::with_capacity(rec.frame_len());
    out.push(RECORD_MAGIC);
    out.push(SCHEMA_V2);
    out.push(rec.keyspace.0);
    out.push(if rec.tombstone { FLAG_TOMBSTONE } else { 0 });
    out.extend_from_slice(&rec.seqno.to_le_bytes());
    out.extend_from_slice(&(rec.key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rec.value.len() as u32).to_le_bytes());
    out.extend_from_slice(&rec.key);
    out.extend_from_slice(&rec.value);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Encode a *legacy v1* frame. Only the migration tests and the chaos
/// harness write these; the store's write path never does.
#[doc(hidden)]
pub fn encode_v1(keyspace: Keyspace, tombstone: bool, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_V1_BYTES + key.len() + value.len() + CHECKSUM_BYTES);
    out.push(RECORD_MAGIC);
    out.push(SCHEMA_V1);
    out.push(keyspace.0);
    out.push(if tombstone { FLAG_TOMBSTONE } else { 0 });
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Outcome of decoding one frame from a buffer position.
#[derive(Debug)]
pub enum Decoded {
    /// A whole, checksum-valid frame: the record and its total encoded
    /// length (header + key + value + checksum) at its *on-disk*
    /// schema.
    Frame(Record, usize),
    /// The buffer ends before the frame does — a torn write. Recovery
    /// truncates here when this is the log's tail.
    Torn,
}

/// Decode the frame starting at `buf[0]`. `next_seqno` supplies the
/// synthetic seqno for a legacy v1 frame.
///
/// Errors are *typed corruption*: bad magic, an unsupported (newer)
/// schema, impossible lengths, or a checksum mismatch. A frame that
/// simply runs past the end of `buf` is not an error but [`Decoded::Torn`].
pub fn decode(buf: &[u8], next_seqno: u64) -> Result<Decoded, StoreError> {
    if buf.is_empty() {
        return Ok(Decoded::Torn);
    }
    if buf[0] != RECORD_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "bad record magic {:#04x} (expected {RECORD_MAGIC:#04x})",
            buf[0]
        )));
    }
    if buf.len() < 2 {
        return Ok(Decoded::Torn);
    }
    let schema = buf[1];
    let header_len = match schema {
        SCHEMA_V1 => HEADER_V1_BYTES,
        SCHEMA_V2 => HEADER_V2_BYTES,
        newer => {
            return Err(StoreError::Unsupported(format!(
                "record schema {newer} is newer than this build understands (max {SCHEMA_V2})"
            )))
        }
    };
    if buf.len() < header_len {
        return Ok(Decoded::Torn);
    }
    let keyspace = Keyspace(buf[2]);
    let flags = buf[3];
    if flags & !FLAG_TOMBSTONE != 0 {
        return Err(StoreError::Corrupt(format!(
            "unknown record flags {flags:#04x}"
        )));
    }
    let (seqno, lens_at) = if schema == SCHEMA_V2 {
        let mut s = [0u8; 8];
        s.copy_from_slice(&buf[4..12]);
        (u64::from_le_bytes(s), 12)
    } else {
        (next_seqno, 4)
    };
    let key_len = u32::from_le_bytes([
        buf[lens_at],
        buf[lens_at + 1],
        buf[lens_at + 2],
        buf[lens_at + 3],
    ]) as usize;
    let val_len = u32::from_le_bytes([
        buf[lens_at + 4],
        buf[lens_at + 5],
        buf[lens_at + 6],
        buf[lens_at + 7],
    ]) as usize;
    if key_len > MAX_KEY_BYTES {
        return Err(StoreError::Corrupt(format!(
            "record claims a {key_len}-byte key, cap is {MAX_KEY_BYTES}"
        )));
    }
    if val_len > MAX_VALUE_BYTES {
        return Err(StoreError::Corrupt(format!(
            "record claims a {val_len}-byte value, cap is {MAX_VALUE_BYTES}"
        )));
    }
    let total = header_len + key_len + val_len + CHECKSUM_BYTES;
    if buf.len() < total {
        return Ok(Decoded::Torn);
    }
    let body_end = total - CHECKSUM_BYTES;
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&buf[body_end..total]);
    let stored = u64::from_le_bytes(sum);
    let computed = fnv64(&buf[..body_end]);
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let tombstone = flags & FLAG_TOMBSTONE != 0;
    if tombstone && val_len != 0 {
        return Err(StoreError::Corrupt(format!(
            "tombstone carries a {val_len}-byte value"
        )));
    }
    let key = buf[header_len..header_len + key_len].to_vec();
    let value = buf[header_len + key_len..body_end].to_vec();
    Ok(Decoded::Frame(
        Record {
            schema,
            keyspace,
            seqno,
            tombstone,
            key,
            value,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            schema: SCHEMA_V2,
            keyspace: Keyspace::BOUNDS,
            seqno: 42,
            tombstone: false,
            key: b"key-bytes".to_vec(),
            value: b"value-bytes".to_vec(),
        }
    }

    #[test]
    fn v2_round_trip() {
        let rec = sample();
        let bytes = encode(&rec);
        assert_eq!(bytes.len(), rec.frame_len());
        match decode(&bytes, 0).unwrap() {
            Decoded::Frame(back, len) => {
                assert_eq!(back, rec);
                assert_eq!(len, bytes.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn v1_decodes_with_synthetic_seqno() {
        let bytes = encode_v1(Keyspace::CC, false, b"k", b"v");
        match decode(&bytes, 7).unwrap() {
            Decoded::Frame(rec, len) => {
                assert_eq!(rec.schema, SCHEMA_V1);
                assert_eq!(rec.seqno, 7, "v1 seqno is scanner-assigned");
                assert_eq!(rec.key, b"k");
                assert_eq!(rec.value, b"v");
                assert_eq!(len, bytes.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn every_prefix_is_torn_not_error() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut], 0) {
                Ok(Decoded::Torn) => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = sample();
        let bytes = encode(&rec);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                match decode(&bad, 0) {
                    Err(_) => {}
                    // A flip in a length field can make the frame claim
                    // to extend past the buffer: that reads as torn,
                    // which recovery treats as "stop here" — still never
                    // a silently accepted wrong record.
                    Ok(Decoded::Torn) => {}
                    Ok(Decoded::Frame(got, _)) => {
                        panic!("flip at byte {byte} bit {bit} silently accepted: {got:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn newer_schema_is_unsupported_not_corrupt() {
        let mut bytes = encode(&sample());
        bytes[1] = 3;
        assert!(matches!(decode(&bytes, 0), Err(StoreError::Unsupported(_))));
    }

    #[test]
    fn tombstone_with_value_rejected() {
        let mut rec = sample();
        rec.tombstone = true;
        // encode() would assert in debug; build the bad frame by hand.
        let mut bytes = encode(&rec);
        // set the tombstone flag post-encode and re-checksum
        bytes[3] = FLAG_TOMBSTONE;
        let body_end = bytes.len() - CHECKSUM_BYTES;
        let sum = crate::fnv64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes, 0), Err(StoreError::Corrupt(_))));
    }
}
