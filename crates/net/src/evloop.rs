//! Readiness-based event-loop engine: nonblocking TCP + `poll(2)`.
//!
//! A thread per live connection would cap concurrency at the pool size:
//! ten thousand idle clients would need ten thousand stacks. This
//! engine, which every [`crate::server`] runs, takes the classic
//! single-reactor shape instead:
//!
//! * **one loop thread** owns the nonblocking listener and every
//!   connection; `poll(2)` (via the vendored `polling` shim — the build
//!   is offline, so no tokio/mio) reports which sockets are readable or
//!   writable, and the loop moves bytes and parses frames incrementally;
//! * **a small compute pool** executes request dispatch off the loop;
//!   completed responses come back over a channel and a loopback UDP
//!   wake datagram nudges the loop out of `poll`;
//! * connections are *state*, not *threads*: a read buffer accumulating
//!   the next frame, a write queue of encoded responses, an idle clock
//!   for strike-based eviction, and a per-connection request queue so a
//!   pipelining client still gets its responses in order.
//!
//! **Backpressure / load-shedding**: the loop tracks outstanding
//! requests in the `ccmx_server_queue_depth` gauge; past
//! [`crate::ServerConfig::max_pending_requests`] it answers overload
//! errors immediately instead of queueing (`ccmx_server_shed_total`).
//!
//! **Graceful drain**: on shutdown the listener closes first, reading
//! stops, and the loop keeps polling until every queued request has been
//! answered and every write buffer flushed (bounded by
//! [`crate::ServerConfig::drain_timeout`]) — a stop mid-batch can no
//! longer silently drop queued batch members.
//!
//! **Interactive runs** cannot run on the loop (they are a blocking
//! two-agent exchange), so a `KIND_INTERACTIVE` frame *promotes* its
//! connection: the socket flips back to blocking mode and is handed —
//! together with any bytes already buffered past the frame — to the
//! [`EventHandler`], which may continue it on a dedicated thread with
//! the identical `run_agent` state machine.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use polling::{poll_fds, PollFd, POLLIN, POLLOUT};

use crate::api::Response;
use crate::server::{queue_depth_gauge, request_bytes, ServerState};
use crate::wire::{
    self, WireCodec, HEADER_BYTES, KIND_INTERACTIVE, KIND_REQUEST, KIND_RESPONSE, MAGIC,
    MAX_PAYLOAD_BYTES,
};

/// How the engine behaves between readiness events: the poll timeout is
/// also the resolution of the idle/eviction clock.
const TICK_MS: i32 = 25;

/// A connection handed out of the event loop for a blocking interactive
/// run (or refusal). The socket is back in blocking mode; `leftover`
/// holds any bytes that had already been read past the interactive
/// frame and must be consumed before the socket itself.
pub struct PromotedConn {
    /// The connection, in blocking mode, with no timeouts set.
    pub stream: TcpStream,
    /// Payload of the `KIND_INTERACTIVE` frame that triggered promotion.
    pub setup: Vec<u8>,
    /// Bytes buffered beyond the interactive frame, in arrival order.
    pub leftover: Vec<u8>,
}

impl PromotedConn {
    /// Refuse the promotion: answer with an error response and drop the
    /// connection.
    pub fn refuse(mut self, msg: &str) {
        let payload = Response::Error(msg.to_string()).to_wire_bytes();
        let _ = wire::write_frame(&mut self.stream, KIND_RESPONSE, &payload);
    }
}

/// What the event loop delegates: request dispatch (on the compute
/// pool) and interactive promotion (ownership of the socket).
pub trait EventHandler: Send + Sync + 'static {
    /// Serve one `KIND_REQUEST` payload; returns the encoded response
    /// payload. `received` is when the frame was fully parsed — the
    /// request-deadline clock starts there, not when a busy pool gets
    /// around to the job.
    fn handle_request(&self, payload: &[u8], received: Instant) -> Vec<u8>;

    /// Take over a connection that sent `KIND_INTERACTIVE`.
    fn interactive(&self, conn: PromotedConn);
}

struct Job {
    conn_id: u64,
    payload: Vec<u8>,
    received: Instant,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_queue: VecDeque<Vec<u8>>,
    write_pos: usize,
    /// Requests parsed but not yet submitted (per-connection FIFO keeps
    /// pipelined responses in request order).
    pending: VecDeque<(Vec<u8>, Instant)>,
    /// A request from this connection is on the compute pool.
    busy: bool,
    last_activity: Instant,
    strikes: u32,
    /// Peer sent EOF; flush what we owe, then close.
    read_closed: bool,
    /// Close as soon as the write queue drains (fatal protocol error).
    close_after_flush: bool,
}

impl Conn {
    fn idle(&self) -> bool {
        !self.busy && self.pending.is_empty() && self.write_queue.is_empty()
    }
}

/// Spawn the loop thread and compute pool for an evented server. The
/// returned threads (loop first) exit after `stop` is set and the drain
/// completes; `state.config` supplies every knob.
pub(crate) fn spawn_engine(
    listener: TcpListener,
    state: Arc<ServerState>,
    handler: Arc<dyn EventHandler>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    // The accept drain loops until `WouldBlock`; a blocking listener
    // would wedge the whole loop inside `accept` instead.
    listener.set_nonblocking(true)?;

    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<(u64, Vec<u8>)>();

    // Loopback UDP pair: workers nudge the loop out of `poll` the
    // instant a response is ready, instead of waiting out the tick.
    let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
    wake_rx.set_nonblocking(true)?;
    let wake_addr = wake_rx.local_addr()?;
    let wake_tx = UdpSocket::bind("127.0.0.1:0")?;
    wake_tx.connect(wake_addr)?;

    let mut threads = Vec::new();
    {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let handler = Arc::clone(&handler);
        threads.push(std::thread::spawn(move || {
            let mut el = EventLoop {
                listener: Some(listener),
                state,
                handler,
                stop,
                job_tx,
                done_rx,
                wake_rx,
                conns: HashMap::new(),
                next_id: 0,
                outstanding: 0,
                scratch: vec![0u8; 64 * 1024],
            };
            el.run();
        }));
    }

    for _ in 0..state.config.workers.max(1) {
        let rx = job_rx.clone();
        let tx = done_tx.clone();
        let wake = wake_tx.try_clone()?;
        let state = Arc::clone(&state);
        let handler = Arc::clone(&handler);
        threads.push(std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let payload = handler.handle_request(&job.payload, job.received);
                let frame = match wire::encode_frame(KIND_RESPONSE, &payload) {
                    Ok(f) => f,
                    Err(_) => {
                        let fallback =
                            Response::Error("response exceeded the frame cap".to_string())
                                .to_wire_bytes();
                        wire::encode_frame(KIND_RESPONSE, &fallback)
                            .expect("fallback error response fits any frame cap")
                    }
                };
                if tx.send((job.conn_id, frame)).is_err() {
                    break;
                }
                let _ = wake.send(&[1]);
            }
            drop(state);
        }));
    }
    Ok(threads)
}

struct EventLoop {
    listener: Option<TcpListener>,
    state: Arc<ServerState>,
    handler: Arc<dyn EventHandler>,
    stop: Arc<AtomicBool>,
    job_tx: crossbeam::channel::Sender<Job>,
    done_rx: crossbeam::channel::Receiver<(u64, Vec<u8>)>,
    wake_rx: UdpSocket,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Requests parsed but not yet answered, across all connections —
    /// the load-shedding signal, mirrored into the queue-depth gauge.
    outstanding: usize,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut draining_since: Option<Instant> = None;
        loop {
            if self.stop.load(Ordering::SeqCst) && draining_since.is_none() {
                // Drain phase: no new connections, no new reads; finish
                // what was accepted and flush what is owed.
                self.listener = None;
                draining_since = Some(Instant::now());
            }
            if let Some(since) = draining_since {
                let drained =
                    self.outstanding == 0 && self.conns.values().all(|c| c.write_queue.is_empty());
                if drained || since.elapsed() >= self.state.config.drain_timeout {
                    break;
                }
            }

            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            let mut tokens: Vec<Token> = Vec::with_capacity(self.conns.len() + 2);
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            tokens.push(Token::Wake);
            if let Some(l) = &self.listener {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !conn.read_closed && draining_since.is_none() {
                    events |= POLLIN;
                }
                if !conn.write_queue.is_empty() {
                    events |= POLLOUT;
                }
                if events == 0 {
                    continue;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(Token::Conn(id));
            }

            if poll_fds(&mut fds, TICK_MS).is_err() {
                // EINVAL/ENOMEM from poll is unrecoverable for the loop;
                // bail out rather than spin.
                break;
            }

            for (fd, token) in fds.iter().zip(&tokens) {
                match token {
                    Token::Wake => {
                        if fd.readable() {
                            let mut buf = [0u8; 64];
                            while self.wake_rx.recv(&mut buf).is_ok() {}
                        }
                    }
                    Token::Listener => {
                        if fd.readable() {
                            self.accept_ready();
                        }
                    }
                    Token::Conn(id) => {
                        let id = *id;
                        if fd.readable() && !self.read_ready(id) {
                            continue;
                        }
                        if fd.writable() {
                            self.write_ready(id);
                        }
                    }
                }
            }

            self.drain_completions();
            self.reap_idle(draining_since.is_some());
        }
        queue_depth_gauge().set(0);
    }

    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.state.counters.inc_accepted();
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            write_queue: VecDeque::new(),
                            write_pos: 0,
                            pending: VecDeque::new(),
                            busy: false,
                            last_activity: Instant::now(),
                            strikes: 0,
                            read_closed: false,
                            close_after_flush: false,
                        },
                    );
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Pull everything currently readable off connection `id` and parse
    /// complete frames. Returns false if the connection was removed.
    fn read_ready(&mut self, id: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = Instant::now();
                    conn.strikes = 0;
                    if !self.parse_frames(id) {
                        return false;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return false;
                }
            }
        }
        // EOF with nothing owed: close now; otherwise the responses
        // still in flight are flushed first (drain semantics).
        if let Some(conn) = self.conns.get(&id) {
            if conn.read_closed && conn.idle() {
                self.remove_conn(id);
            }
        }
        true
    }

    /// Parse complete frames out of `id`'s read buffer. Returns false
    /// if the connection was promoted or dropped.
    fn parse_frames(&mut self, id: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            if conn.read_buf.len() < HEADER_BYTES {
                return true;
            }
            let header: [u8; HEADER_BYTES] = conn.read_buf[..HEADER_BYTES]
                .try_into()
                .expect("sliced exactly HEADER_BYTES");
            let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
            if header[0] != MAGIC || len > MAX_PAYLOAD_BYTES {
                self.protocol_error(id, "bad magic byte or oversized frame");
                return false;
            }
            if conn.read_buf.len() < HEADER_BYTES + len {
                return true;
            }
            let kind = header[1];
            let payload = conn.read_buf[HEADER_BYTES..HEADER_BYTES + len].to_vec();
            conn.read_buf.drain(..HEADER_BYTES + len);
            match kind {
                KIND_REQUEST => {
                    request_bytes().record(payload.len() as u64);
                    if self.outstanding >= self.state.config.max_pending_requests.max(1) {
                        self.state.counters.inc_shed();
                        let resp = Response::Error(
                            "server overloaded: request queue is full, retry later".to_string(),
                        );
                        self.enqueue_response(id, &resp.to_wire_bytes());
                        continue;
                    }
                    self.outstanding += 1;
                    queue_depth_gauge().add(1);
                    let conn = self.conns.get_mut(&id).expect("conn checked above");
                    conn.pending.push_back((payload, Instant::now()));
                    self.submit_next(id);
                }
                KIND_INTERACTIVE => {
                    let conn = self.conns.get(&id).expect("conn checked above");
                    if conn.busy || !conn.pending.is_empty() || !conn.write_queue.is_empty() {
                        self.protocol_error(id, "interactive setup while requests are in flight");
                        return false;
                    }
                    let mut conn = self.conns.remove(&id).expect("conn checked above");
                    if conn.stream.set_nonblocking(false).is_err() {
                        self.state.counters.inc_dropped();
                        return false;
                    }
                    let leftover = std::mem::take(&mut conn.read_buf);
                    self.handler.interactive(PromotedConn {
                        stream: conn.stream,
                        setup: payload,
                        leftover,
                    });
                    return false;
                }
                other => {
                    self.protocol_error(id, &format!("unexpected frame kind {other}"));
                    return false;
                }
            }
        }
    }

    /// Submit `id`'s next pending request to the pool, if it is free.
    fn submit_next(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.busy {
            return;
        }
        if let Some((payload, received)) = conn.pending.pop_front() {
            conn.busy = true;
            let _ = self.job_tx.send(Job {
                conn_id: id,
                payload,
                received,
            });
        }
    }

    /// Answer with an error frame, then close once it is flushed: the
    /// connection is dropped, but only after the bytes already queued
    /// for it.
    fn protocol_error(&mut self, id: u64, msg: &str) {
        let resp = Response::Error(msg.to_string());
        self.enqueue_response(id, &resp.to_wire_bytes());
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.close_after_flush = true;
        }
        self.state.counters.inc_dropped();
    }

    fn enqueue_response(&mut self, id: u64, payload: &[u8]) {
        let Ok(frame) = wire::encode_frame(KIND_RESPONSE, payload) else {
            self.drop_conn(id);
            return;
        };
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.write_queue.push_back(frame);
        }
        self.write_ready(id);
    }

    /// Flush as much of `id`'s write queue as the socket accepts.
    fn write_ready(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            // Disjoint field borrows: the queue front is read while the
            // stream is written.
            let Conn {
                stream,
                write_queue,
                write_pos,
                ..
            } = conn;
            let Some(front) = write_queue.front() else {
                if conn.close_after_flush || (conn.read_closed && conn.idle()) {
                    self.remove_conn(id);
                }
                return;
            };
            match stream.write(&front[*write_pos..]) {
                Ok(0) => {
                    self.drop_conn(id);
                    return;
                }
                Ok(n) => {
                    *write_pos += n;
                    if *write_pos == front.len() {
                        write_queue.pop_front();
                        *write_pos = 0;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return;
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok((id, frame)) = self.done_rx.try_recv() {
            self.outstanding = self.outstanding.saturating_sub(1);
            queue_depth_gauge().add(-1);
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.busy = false;
                conn.write_queue.push_back(frame);
                self.write_ready(id);
                self.submit_next(id);
            }
        }
    }

    /// Strike-based eviction, the same policy as the blocking loop of
    /// promoted connections: a connection silent past the read timeout
    /// earns a strike per window, and is evicted once `eviction_strikes`
    /// are exhausted. A connection we owe work or bytes to is never
    /// idle.
    fn reap_idle(&mut self, draining: bool) {
        if draining {
            return;
        }
        let timeout = self.state.config.read_timeout;
        let max_strikes = self.state.config.eviction_strikes.max(1);
        let mut evict = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            if !conn.idle() || conn.read_closed {
                continue;
            }
            if conn.last_activity.elapsed() >= timeout {
                conn.strikes += 1;
                conn.last_activity = Instant::now();
                if conn.strikes >= max_strikes {
                    evict.push(id);
                }
            }
        }
        for id in evict {
            self.state.counters.inc_evicted();
            self.drop_conn(id);
        }
    }

    /// Remove a connection cleanly (no drop counter): EOF after all
    /// owed bytes were flushed, or close-after-flush. Requests still
    /// queued (never to be answered) leave the outstanding count.
    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let abandoned = conn.pending.len();
            self.outstanding = self.outstanding.saturating_sub(abandoned);
            queue_depth_gauge().add(-(abandoned as i64));
        }
    }

    /// Remove a connection for cause (I/O failure, eviction).
    fn drop_conn(&mut self, id: u64) {
        if self.conns.contains_key(&id) {
            self.remove_conn(id);
            self.state.counters.inc_dropped();
        }
    }
}

enum Token {
    Wake,
    Listener,
    Conn(u64),
}
