//! Bit-accurate framed wire codec for protocol traffic.
//!
//! Every value that crosses a socket is encoded by [`WireCodec`] and
//! carried inside a *frame*:
//!
//! ```text
//! +-------+------+-------------+--------------+
//! | magic | kind | len (u32 LE)| payload[len] |
//! +-------+------+-------------+--------------+
//! ```
//!
//! The codec is hand-rolled rather than serde-derived: the build runs
//! fully offline and serde (a proc-macro crate) cannot be vendored as a
//! minimal path shim, so `Transcript`, `Message`, `MeterReport` and
//! `RunResult` get explicit, versionable byte layouts here instead.
//!
//! Bit accuracy is the design constraint that matters: a
//! [`WireMsg::Bits`] payload encodes the *exact* bit count of the
//! protocol message (LSB-first packing, zero padding enforced on
//! decode), so [`payload_bits`] metered over a connection equals the
//! sequential runner's `Transcript::total_bits()` — the wire never
//! inflates or deflates the communication-complexity cost it carries.

use ccmx_comm::protocol::{Message, RunResult, Transcript, Turn, WireMsg};
use ccmx_comm::BitString;
use std::io::{Read, Write};

use crate::error::NetError;

/// First byte of every frame; rejects non-ccmx peers immediately.
pub const MAGIC: u8 = 0xCC;

/// Hard payload ceiling (4 MiB). Anything longer is a corrupt length
/// field or a hostile peer; reading it would let one connection pin the
/// worker's memory.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 22;

/// Frame header length in bytes: magic + kind + u32 payload length.
pub const HEADER_BYTES: usize = 6;

/// Deepest `Batch` nesting a request or response may carry: a batch
/// whose members are batches. Decoding recurses once per level, so
/// without a cap a frame far below [`MAX_PAYLOAD_BYTES`] (five bytes a
/// level) could overflow the decoding thread's stack.
pub const MAX_BATCH_DEPTH: u32 = 2;

/// Frame kind: a single protocol message between two running agents.
pub const KIND_WIRE_MSG: u8 = 1;
/// Frame kind: a client request to the protocol-lab server.
pub const KIND_REQUEST: u8 = 2;
/// Frame kind: a server response.
pub const KIND_RESPONSE: u8 = 3;
/// Frame kind: setup header that switches the connection into an
/// interactive agent-vs-agent protocol run.
pub const KIND_INTERACTIVE: u8 = 4;
/// Frame kind: a chaos-layer envelope (sequenced, checksummed protocol
/// message or a retransmission request) — see [`crate::fault`].
pub const KIND_CHAOS: u8 = 5;

// ----------------------------------------------------------------------
// Decoder cursor
// ----------------------------------------------------------------------

/// Cursor over a received payload; every `take_*` bounds-checks so a
/// truncated or trailing-garbage payload is a decode error, never a
/// panic.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// `Batch` levels currently open.
    depth: u32,
}

impl<'a> Dec<'a> {
    /// Start decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Decode the members of a `Batch` one level deeper, refusing more
    /// than [`MAX_BATCH_DEPTH`] levels.
    pub fn take_batch<T: WireCodec>(&mut self) -> Result<Vec<T>, NetError> {
        if self.depth >= MAX_BATCH_DEPTH {
            return Err(NetError::Frame(format!(
                "batch nested deeper than {MAX_BATCH_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let members = Vec::<T>::take(self);
        self.depth -= 1;
        members
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Frame(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    pub fn take_u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Take a little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, NetError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, NetError> {
        let b = self.take_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Require that the whole payload was consumed.
    pub fn finish(self) -> Result<(), NetError> {
        if self.remaining() != 0 {
            return Err(NetError::Frame(format!(
                "{} trailing bytes after a complete value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// WireCodec
// ----------------------------------------------------------------------

/// Symmetric byte codec: `put` appends the encoding, `take` parses it
/// back. Round-tripping is the law this crate's proptest suite enforces.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Parse one value off the cursor.
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError>;

    /// Encode into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a full buffer, rejecting trailing garbage.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, NetError> {
        let mut d = Dec::new(bytes);
        let v = Self::take(&mut d)?;
        d.finish()?;
        Ok(v)
    }
}

impl WireCodec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(NetError::Frame(format!("bool byte must be 0/1, got {v}"))),
        }
    }
}

impl WireCodec for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        d.take_u8()
    }
}

impl WireCodec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        d.take_u32()
    }
}

impl WireCodec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        d.take_u64()
    }
}

impl WireCodec for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let v = d.take_u64()?;
        usize::try_from(v).map_err(|_| NetError::Frame(format!("usize overflow: {v}")))
    }
}

impl WireCodec for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        Ok(f64::from_bits(d.take_u64()?))
    }
}

impl WireCodec for String {
    fn put(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        (bytes.len() as u32).put(out);
        out.extend_from_slice(bytes);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let len = d.take_u32()? as usize;
        let bytes = d.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Frame("string is not valid UTF-8".into()))
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let len = d.take_u32()? as usize;
        // A length field larger than the bytes behind it is corruption;
        // cap before allocating so a bad frame cannot force a huge Vec.
        if len > d.remaining() {
            return Err(NetError::Frame(format!(
                "sequence claims {len} elements but only {} bytes remain",
                d.remaining()
            )));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::take(d)?);
        }
        Ok(v)
    }
}

impl WireCodec for BitString {
    /// `u32` exact bit count, then `ceil(len/8)` bytes packed LSB-first.
    /// Unused high bits of the last byte must be zero — enforced on
    /// decode so every bit string has exactly one wire form.
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        let mut byte = 0u8;
        for (i, &bit) in self.as_slice().iter().enumerate() {
            if bit {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !self.len().is_multiple_of(8) {
            out.push(byte);
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let nbits = d.take_u32()? as usize;
        let nbytes = nbits.div_ceil(8);
        let packed = d.take_bytes(nbytes)?;
        let bits: Vec<bool> = (0..nbits)
            .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        if !nbits.is_multiple_of(8) {
            let pad = packed[nbytes - 1] >> (nbits % 8);
            if pad != 0 {
                return Err(NetError::Frame(
                    "nonzero padding bits in final byte of bit string".into(),
                ));
            }
        }
        Ok(BitString::from_bits(bits))
    }
}

impl WireCodec for Turn {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Turn::A => 0,
            Turn::B => 1,
        });
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(Turn::A),
            1 => Ok(Turn::B),
            v => Err(NetError::Frame(format!("turn byte must be 0/1, got {v}"))),
        }
    }
}

impl WireCodec for Message {
    fn put(&self, out: &mut Vec<u8>) {
        self.from.put(out);
        self.bits.put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let from = Turn::take(d)?;
        let bits = BitString::take(d)?;
        Ok(Message { from, bits })
    }
}

impl WireCodec for Transcript {
    fn put(&self, out: &mut Vec<u8>) {
        self.messages().to_vec().put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        Ok(Transcript::from_messages(Vec::<Message>::take(d)?))
    }
}

impl WireCodec for RunResult {
    fn put(&self, out: &mut Vec<u8>) {
        self.output.put(out);
        self.announced_by.put(out);
        self.transcript.put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let output = bool::take(d)?;
        let announced_by = Turn::take(d)?;
        let transcript = Transcript::take(d)?;
        Ok(RunResult {
            output,
            announced_by,
            transcript,
        })
    }
}

impl WireCodec for ccmx_comm::meter::MeterReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.protocol.to_string().put(out);
        self.trials.put(out);
        self.max_bits.put(out);
        self.min_bits.put(out);
        self.mean_bits.put(out);
        self.max_rounds.put(out);
        self.errors.put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        let protocol = intern_protocol_name(String::take(d)?);
        Ok(ccmx_comm::meter::MeterReport {
            protocol,
            trials: usize::take(d)?,
            max_bits: usize::take(d)?,
            min_bits: usize::take(d)?,
            mean_bits: f64::take(d)?,
            max_rounds: usize::take(d)?,
            errors: usize::take(d)?,
        })
    }
}

/// `MeterReport::protocol` is `&'static str`; a decoded report needs one
/// too. Protocol names form a tiny closed set, so intern them: leak each
/// distinct name once and reuse it forever after.
fn intern_protocol_name(name: String) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut table = TABLE.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(&existing) = table.iter().find(|&&s| s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    table.push(leaked);
    leaked
}

impl WireCodec for WireMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Bits(bits) => {
                out.push(0);
                bits.put(out);
            }
            WireMsg::Final(output) => {
                out.push(1);
                output.put(out);
            }
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(WireMsg::Bits(BitString::take(d)?)),
            1 => Ok(WireMsg::Final(bool::take(d)?)),
            v => Err(NetError::Frame(format!("unknown WireMsg tag {v}"))),
        }
    }
}

/// The metered cost of a protocol message: the exact number of protocol
/// bits it carries. `Final` announces the output and costs nothing, in
/// agreement with `RunResult::cost_bits()` counting transcript bits only.
pub fn payload_bits(msg: &WireMsg) -> usize {
    match msg {
        WireMsg::Bits(bits) => bits.len(),
        WireMsg::Final(_) => 0,
    }
}

// ----------------------------------------------------------------------
// Frame I/O
// ----------------------------------------------------------------------

/// Build the full frame (header + payload) for a kind/payload pair.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    if payload.len() > MAX_PAYLOAD_BYTES {
        return Err(NetError::Frame(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte frame cap",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.push(MAGIC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one frame and flush it.
pub fn write_frame(w: &mut dyn Write, kind: u8, payload: &[u8]) -> Result<(), NetError> {
    let frame = encode_frame(kind, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Distinguishes a clean close (EOF on the frame
/// boundary → [`NetError::Disconnected`]) from a truncated frame (EOF
/// mid-header or mid-payload → [`NetError::Frame`]).
pub fn read_frame(r: &mut dyn Read) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(NetError::Disconnected);
                }
                return Err(NetError::Frame(format!(
                    "stream ended after {got} of {HEADER_BYTES} header bytes"
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io(e)),
        }
    }
    if header[0] != MAGIC {
        return Err(NetError::Frame(format!(
            "bad magic byte {:#04x} (expected {MAGIC:#04x})",
            header[0]
        )));
    }
    let kind = header[1];
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(NetError::Frame(format!(
            "frame declares {len}-byte payload, cap is {MAX_PAYLOAD_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Frame(format!("stream ended inside a {len}-byte payload"))
        } else {
            NetError::from_io(e)
        }
    })?;
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_round_trip_exact_bits() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let bits = BitString::from_bits((0..len).map(|i| i % 3 == 0).collect());
            let bytes = bits.to_wire_bytes();
            assert_eq!(bytes.len(), 4 + len.div_ceil(8));
            assert_eq!(BitString::from_wire_bytes(&bytes).unwrap(), bits);
        }
    }

    #[test]
    fn nonzero_padding_rejected() {
        let bits = BitString::from_bits(vec![true, false, true]);
        let mut bytes = bits.to_wire_bytes();
        *bytes.last_mut().unwrap() |= 0b1000_0000;
        assert!(matches!(
            BitString::from_wire_bytes(&bytes),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn transcript_round_trip() {
        let mut t = Transcript::new();
        t.push(Turn::A, BitString::from_u64(0b1011, 4));
        t.push(Turn::B, BitString::from_u64(0b1, 1));
        let back = Transcript::from_wire_bytes(&t.to_wire_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.total_bits(), 5);
    }

    #[test]
    fn run_result_round_trip() {
        let mut t = Transcript::new();
        t.push(Turn::A, BitString::from_u64(0x2a, 6));
        let r = RunResult {
            output: true,
            announced_by: Turn::B,
            transcript: t,
        };
        assert_eq!(RunResult::from_wire_bytes(&r.to_wire_bytes()).unwrap(), r);
    }

    #[test]
    fn meter_report_round_trip() {
        let rep = ccmx_comm::meter::MeterReport {
            protocol: "send-all",
            trials: 256,
            max_bits: 4,
            min_bits: 4,
            mean_bits: 4.0,
            max_rounds: 1,
            errors: 0,
        };
        let back = ccmx_comm::meter::MeterReport::from_wire_bytes(&rep.to_wire_bytes()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn frame_round_trip() {
        let payload = WireMsg::Bits(BitString::from_u64(0b110, 3)).to_wire_bytes();
        let frame = encode_frame(KIND_WIRE_MSG, &payload).unwrap();
        let (kind, got) = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(kind, KIND_WIRE_MSG);
        assert_eq!(got, payload);
    }

    #[test]
    fn truncated_frame_rejected() {
        let payload = WireMsg::Final(true).to_wire_bytes();
        let frame = encode_frame(KIND_WIRE_MSG, &payload).unwrap();
        for cut in 1..frame.len() {
            let err = read_frame(&mut frame[..cut].as_ref()).unwrap_err();
            assert!(matches!(err, NetError::Frame(_)), "cut at {cut} gave {err}");
        }
    }

    #[test]
    fn clean_eof_is_disconnect() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut header = vec![MAGIC, KIND_REQUEST];
        header.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut header.as_slice()),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let frame = encode_frame(KIND_WIRE_MSG, &[]).unwrap();
        let mut bad = frame.clone();
        bad[0] = 0x00;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn final_frames_cost_zero_bits() {
        assert_eq!(payload_bits(&WireMsg::Final(false)), 0);
        assert_eq!(payload_bits(&WireMsg::Bits(BitString::from_u64(0, 9))), 9);
    }
}
