//! Byte-stream transports for protocol messages.
//!
//! A [`Transport`] moves framed [`WireMsg`]s between two agents and
//! meters *exactly* the protocol bits it carries. Two implementations:
//!
//! * [`MemFrameLink`] — frames travel over in-process channels; same
//!   codec work as TCP, zero syscalls. The baseline for measuring what
//!   the network itself costs.
//! * [`TcpTransport`] — frames travel over a `std::net::TcpStream` with
//!   read/write timeouts and bounded retry-with-backoff on transient
//!   I/O errors.
//!
//! Both are also raw [`crate::fault::FrameLink`]s, the medium under the
//! fault-injecting [`crate::fault::FaultTransport`], and both plug into
//! the `ccmx-comm` agent state machine through
//! [`AsChannel`], so a protocol run over either transport replays the
//! identical `run_agent` logic as the in-process runners — which is why
//! transcripts (and therefore costs) agree bit for bit.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ccmx_comm::protocol::{ChannelError, MsgChannel, WireMsg};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::error::NetError;
use crate::wire::{self, payload_bits, WireCodec, KIND_WIRE_MSG};

/// Per-direction traffic counters for one endpoint of a transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Protocol messages sent from this endpoint.
    pub msgs_sent: usize,
    /// Protocol messages received at this endpoint.
    pub msgs_received: usize,
    /// Metered protocol bits sent (`Final` frames count zero, matching
    /// the sequential runner's cost accounting).
    pub bits_sent: usize,
    /// Metered protocol bits received.
    pub bits_received: usize,
    /// Raw framed bytes sent, headers included.
    pub raw_bytes_sent: usize,
    /// Raw framed bytes received, headers included.
    pub raw_bytes_received: usize,
}

impl TransportStats {
    /// Total metered protocol bits seen at this endpoint; for a
    /// completed two-agent run this equals `Transcript::total_bits()`.
    pub fn bits_total(&self) -> usize {
        self.bits_sent + self.bits_received
    }
}

/// A bidirectional channel of protocol messages with bit-exact metering.
pub trait Transport {
    /// Send one protocol message.
    fn send_wire(&mut self, msg: &WireMsg) -> Result<(), NetError>;
    /// Receive the next protocol message.
    fn recv_wire(&mut self) -> Result<WireMsg, NetError>;
    /// Traffic counters so far.
    fn stats(&self) -> TransportStats;
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn send_wire(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        (**self).send_wire(msg)
    }
    fn recv_wire(&mut self) -> Result<WireMsg, NetError> {
        (**self).recv_wire()
    }
    fn stats(&self) -> TransportStats {
        (**self).stats()
    }
}

/// Adapter: any [`Transport`] is a `ccmx-comm` [`MsgChannel`], so
/// `run_agent` can drive a protocol over it unchanged.
pub struct AsChannel<T: Transport>(pub T);

impl<T: Transport> AsChannel<T> {
    /// Unwrap the transport (e.g. to read final stats).
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T: Transport> MsgChannel for AsChannel<T> {
    fn send_msg(&mut self, msg: WireMsg) -> Result<(), ChannelError> {
        self.0
            .send_wire(&msg)
            .map_err(|e| ChannelError(e.to_string()))
    }
    fn recv_msg(&mut self) -> Result<WireMsg, ChannelError> {
        self.0.recv_wire().map_err(|e| ChannelError(e.to_string()))
    }
}

/// Meter one outgoing protocol message.
fn meter_sent(stats: &mut TransportStats, msg: &WireMsg) {
    stats.msgs_sent += 1;
    stats.bits_sent += payload_bits(msg);
}

/// Decode and meter one received frame, which must carry a protocol
/// message.
fn decode_received(
    stats: &mut TransportStats,
    (kind, payload): (u8, Vec<u8>),
) -> Result<WireMsg, NetError> {
    if kind != KIND_WIRE_MSG {
        return Err(NetError::Protocol(format!(
            "expected protocol frame, got kind {kind}"
        )));
    }
    let msg = WireMsg::from_wire_bytes(&payload)?;
    stats.msgs_received += 1;
    stats.bits_received += payload_bits(&msg);
    Ok(msg)
}

// ----------------------------------------------------------------------
// In-memory link
// ----------------------------------------------------------------------

/// In-process link: encoded frames over channels. Runs the full codec
/// path (encode → frame → decode) without any socket.
pub struct MemFrameLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    recv_timeout: Option<Duration>,
    stats: TransportStats,
}

/// Two connected [`MemFrameLink`] endpoints. `recv_timeout` bounds how
/// long a receive waits for the peer before [`NetError::Timeout`]:
/// [`crate::fault::fault_mem_pair`] passes its NACK clock, the plain
/// runners pass `None` and wait until the peer sends or hangs up.
pub fn mem_link_pair(recv_timeout: Option<Duration>) -> (MemFrameLink, MemFrameLink) {
    let (tx_ab, rx_ab) = crossbeam::channel::unbounded();
    let (tx_ba, rx_ba) = crossbeam::channel::unbounded();
    let mk = |tx, rx| MemFrameLink {
        tx,
        rx,
        recv_timeout,
        stats: TransportStats::default(),
    };
    (mk(tx_ab, rx_ba), mk(tx_ba, rx_ab))
}

impl MemFrameLink {
    /// Send one frame of any kind.
    pub fn send_frame(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError> {
        let frame = wire::encode_frame(kind, payload)?;
        self.stats.raw_bytes_sent += frame.len();
        self.tx.send(frame).map_err(|_| NetError::Disconnected)
    }

    /// Receive the next frame of any kind.
    pub fn recv_frame(&mut self) -> Result<(u8, Vec<u8>), NetError> {
        let frame = match self.recv_timeout {
            None => self.rx.recv().map_err(|_| NetError::Disconnected)?,
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => NetError::Timeout,
                RecvTimeoutError::Disconnected => NetError::Disconnected,
            })?,
        };
        self.stats.raw_bytes_received += frame.len();
        wire::read_frame(&mut frame.as_slice())
    }
}

impl Transport for MemFrameLink {
    fn send_wire(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        self.send_frame(KIND_WIRE_MSG, &msg.to_wire_bytes())?;
        meter_sent(&mut self.stats, msg);
        Ok(())
    }

    fn recv_wire(&mut self) -> Result<WireMsg, NetError> {
        let frame = self.recv_frame()?;
        decode_received(&mut self.stats, frame)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ----------------------------------------------------------------------
// TCP transport
// ----------------------------------------------------------------------

/// Timeouts and retry policy for a TCP endpoint.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// How long a blocking read may wait before the peer counts as
    /// stalled. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a blocking write may wait.
    pub write_timeout: Option<Duration>,
    /// Bounded retries for transient send failures.
    pub max_retries: u32,
    /// Initial backoff between retries; doubles per attempt.
    pub retry_backoff: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_retries: 3,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// A `TcpStream` reader that first replays bytes handed over by a
/// previous owner of the connection — e.g. the readiness event loop,
/// which may have buffered past the frame that triggered a promotion —
/// before reading from the socket itself.
pub(crate) struct PrefixedStream {
    prefix: Vec<u8>,
    pos: usize,
    stream: TcpStream,
}

impl Read for PrefixedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (self.prefix.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos == self.prefix.len() {
                self.prefix = Vec::new();
                self.pos = 0;
            }
            return Ok(n);
        }
        self.stream.read(buf)
    }
}

/// One endpoint of a TCP connection carrying framed protocol messages.
pub struct TcpTransport {
    reader: BufReader<PrefixedStream>,
    writer: BufWriter<TcpStream>,
    config: TransportConfig,
    stats: TransportStats,
}

impl TcpTransport {
    /// Connect to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: TransportConfig) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, config)
    }

    /// Wrap an accepted stream (server side).
    pub fn from_stream(stream: TcpStream, config: TransportConfig) -> Result<Self, NetError> {
        Self::from_stream_with_prefix(stream, config, Vec::new())
    }

    /// Wrap a stream that already had `prefix` bytes read off it; the
    /// reader consumes those first, so no data is lost when a
    /// connection migrates between engines.
    pub fn from_stream_with_prefix(
        stream: TcpStream,
        config: TransportConfig,
        prefix: Vec<u8>,
    ) -> Result<Self, NetError> {
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(PrefixedStream {
            prefix,
            pos: 0,
            stream: stream.try_clone()?,
        });
        Ok(TcpTransport {
            reader,
            writer: BufWriter::new(stream),
            config,
            stats: TransportStats::default(),
        })
    }

    /// Local socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.writer.get_ref().local_addr()?)
    }

    /// Send an arbitrary frame (requests/responses, not just protocol
    /// messages), with bounded retry-with-backoff on transient errors.
    pub fn send_frame(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError> {
        let mut backoff = self.config.retry_backoff;
        let mut attempts = 0u32;
        loop {
            match wire::write_frame(&mut self.writer, kind, payload) {
                Ok(()) => {
                    self.stats.raw_bytes_sent += wire::HEADER_BYTES + payload.len();
                    return Ok(());
                }
                Err(e @ (NetError::Timeout | NetError::Io(_)))
                    if attempts < self.config.max_retries =>
                {
                    if !matches!(e, NetError::Timeout) && !e.is_transient() {
                        return Err(e);
                    }
                    attempts += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Receive the next frame of any kind.
    pub fn recv_frame(&mut self) -> Result<(u8, Vec<u8>), NetError> {
        let (kind, payload) = wire::read_frame(&mut self.reader)?;
        self.stats.raw_bytes_received += wire::HEADER_BYTES + payload.len();
        Ok((kind, payload))
    }

    /// Flush and shut down the write side, signalling a clean close.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send_wire(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        self.send_frame(KIND_WIRE_MSG, &msg.to_wire_bytes())?;
        meter_sent(&mut self.stats, msg);
        Ok(())
    }

    fn recv_wire(&mut self) -> Result<WireMsg, NetError> {
        let frame = self.recv_frame()?;
        decode_received(&mut self.stats, frame)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_comm::BitString;
    use std::net::TcpListener;

    #[test]
    fn mem_link_meters_exact_bits() {
        let (mut a, mut b) = mem_link_pair(None);
        a.send_wire(&WireMsg::Bits(BitString::from_u64(0b101, 3)))
            .unwrap();
        a.send_wire(&WireMsg::Final(true)).unwrap();
        assert_eq!(
            b.recv_wire().unwrap(),
            WireMsg::Bits(BitString::from_u64(0b101, 3))
        );
        assert_eq!(b.recv_wire().unwrap(), WireMsg::Final(true));
        assert_eq!(a.stats().bits_sent, 3);
        assert_eq!(b.stats().bits_received, 3);
        assert_eq!(b.stats().msgs_received, 2);
    }

    #[test]
    fn mem_link_recv_timeout_fires() {
        let (_a, mut b) = mem_link_pair(Some(Duration::from_millis(20)));
        assert!(matches!(b.recv_wire(), Err(NetError::Timeout)));
    }

    #[test]
    fn mem_link_disconnect_detected() {
        let (a, mut b) = mem_link_pair(None);
        drop(a);
        assert!(matches!(b.recv_wire(), Err(NetError::Disconnected)));
    }

    #[test]
    fn tcp_transport_round_trips_and_meters() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream, TransportConfig::default()).unwrap();
            let msg = t.recv_wire().unwrap();
            t.send_wire(&msg).unwrap();
            t.stats()
        });

        let mut client = TcpTransport::connect(addr, TransportConfig::default()).unwrap();
        let sent = WireMsg::Bits(BitString::from_u64(0x5a, 7));
        client.send_wire(&sent).unwrap();
        assert_eq!(client.recv_wire().unwrap(), sent);

        let server_stats = server.join().unwrap();
        assert_eq!(client.stats().bits_sent, 7);
        assert_eq!(client.stats().bits_received, 7);
        assert_eq!(server_stats.bits_received, 7);
        assert_eq!(server_stats.bits_sent, 7);
    }

    #[test]
    fn tcp_read_timeout_drops_stalled_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Connect but never send: the reader must give up, not hang.
        let _stalled = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let cfg = TransportConfig {
            read_timeout: Some(Duration::from_millis(30)),
            ..TransportConfig::default()
        };
        let mut t = TcpTransport::from_stream(stream, cfg).unwrap();
        assert!(matches!(t.recv_wire(), Err(NetError::Timeout)));
    }
}
