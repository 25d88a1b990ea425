//! The protocol-lab server: a TCP service answering bound, singularity,
//! and protocol-run requests for many concurrent clients.
//!
//! Connections are served by the readiness-based event loop in
//! [`crate::evloop`]: one loop thread owns every connection through
//! nonblocking sockets and `poll(2)`, and a compute pool of
//! [`ServerConfig::workers`] threads runs dispatch. A connection is
//! state rather than a thread, which is what lets one process hold ten
//! thousand concurrent clients. Above the socket sit the dispatch
//! table, one single-flight [`VerdictCache`] of certified answers,
//! per-request deadlines, strike-based slow-client eviction, and
//! **graceful shutdown that drains in-flight work** — a stop closes the
//! listener first and answers what was already queued (batch members
//! are never silently dropped) before joining every thread.
//!
//! Interactive runs: a client may switch its connection into a live
//! two-agent protocol run (client = agent A, server = agent B). The
//! server replays the identical `run_agent` state machine as the
//! in-process runners, so the transcript both sides assemble — and
//! therefore the metered bit cost — is byte-for-byte the same as
//! `run_sequential` on one machine. Such a connection is *promoted* off
//! the loop onto a dedicated thread, since the exchange is blocking by
//! nature, and that thread keeps serving it with a blocking loop.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ccmx_comm::bits::Share;
use ccmx_comm::functions::{BooleanFunction, Singularity};
use ccmx_comm::partition::Owner;
use ccmx_comm::protocol::{round_limit, run_agent, run_sequential, Turn};
use ccmx_core::counting;
use ccmx_core::params::Params;
use parking_lot::Mutex;

use crate::api::{BoundsReport, InteractiveSetup, Request, Response};
use crate::batch;
use crate::cache::{verdict_key, CacheStats, VerdictCache};
use crate::error::NetError;
use crate::evloop::{self, EventHandler, PromotedConn};
use crate::persist;
use crate::transport::{AsChannel, TcpTransport, TransportConfig};
use crate::wire::{WireCodec, KIND_INTERACTIVE, KIND_REQUEST, KIND_RESPONSE};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Size of the compute pool that runs request dispatch off the
    /// event loop.
    pub workers: usize,
    /// Per-connection read window; a client silent for longer earns a
    /// strike (see [`Self::eviction_strikes`]).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Bounded retries for transient I/O errors.
    pub max_io_retries: u32,
    /// Initial retry backoff; doubles per attempt.
    pub retry_backoff: Duration,
    /// Capacity of the verdict cache: certified bounds, singularity
    /// and CC answers together.
    pub cache_capacity: usize,
    /// Per-request compute budget. A request whose dispatch overruns it
    /// is answered with an error (the connection survives); batch
    /// members past the deadline are refused without executing.
    /// `None` means unbounded.
    pub request_deadline: Option<Duration>,
    /// Consecutive read-timeout strikes before a slow client is
    /// evicted. `1` reproduces the old drop-on-first-timeout behavior;
    /// higher values give bursty-but-alive clients extra read windows.
    pub eviction_strikes: u32,
    /// Requests parsed but not yet answered before the event loop
    /// starts shedding load with immediate overload errors.
    pub max_pending_requests: usize,
    /// How long a shutdown waits for in-flight requests to finish and
    /// their responses to flush before giving up.
    pub drain_timeout: Duration,
    /// Data directory for the persistent certified-result store
    /// (`ccmx-store`). `Some(dir)` warm-starts the verdict cache from
    /// disk on boot and persists every fresh verdict; `None` (the
    /// default) serves purely in-memory. An unopenable store degrades
    /// to cold serving, never a refusal to start.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_io_retries: 3,
            retry_backoff: Duration::from_millis(10),
            cache_capacity: 192,
            request_deadline: None,
            eviction_strikes: 1,
            max_pending_requests: 16 * 1024,
            drain_timeout: Duration::from_secs(5),
            store_dir: None,
        }
    }
}

impl ServerConfig {
    fn transport_config(&self) -> TransportConfig {
        TransportConfig {
            read_timeout: Some(self.read_timeout),
            write_timeout: Some(self.write_timeout),
            max_retries: self.max_io_retries,
            retry_backoff: self.retry_backoff,
        }
    }
}

/// Monotonic counters, readable while the server runs.
///
/// Per-`ServerHandle` instance values (what [`ServerHandle::stats`]
/// reports) live in the atomics; every increment is mirrored into the
/// process-wide [`ccmx_obs`] registry (`ccmx_server_*_total`), where the
/// totals survive this server being dropped and aggregate across
/// servers in the process.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    connections_accepted: AtomicU64,
    requests_served: AtomicU64,
    interactive_runs: AtomicU64,
    connections_dropped: AtomicU64,
    connections_evicted: AtomicU64,
    deadlines_exceeded: AtomicU64,
    requests_shed: AtomicU64,
}

impl Counters {
    pub(crate) fn inc_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_connections_total").inc();
    }
    fn inc_served(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_requests_total").inc();
    }
    fn inc_interactive(&self) {
        self.interactive_runs.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_interactive_runs_total").inc();
    }
    pub(crate) fn inc_dropped(&self) {
        self.connections_dropped.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_connections_dropped_total").inc();
    }
    pub(crate) fn inc_evicted(&self) {
        self.connections_evicted.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_evicted_total").inc();
    }
    fn inc_deadline(&self) {
        self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_deadline_exceeded_total").inc();
    }
    pub(crate) fn inc_shed(&self) {
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
        ccmx_obs::counter!("ccmx_server_shed_total").inc();
    }
}

/// Requests the event loop has parsed but not yet answered: its
/// load-shedding signal.
pub(crate) fn queue_depth_gauge() -> &'static ccmx_obs::Gauge {
    ccmx_obs::gauge!("ccmx_server_queue_depth")
}

/// A point-in-time copy of the server counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections the event loop accepted.
    pub connections_accepted: u64,
    /// Requests answered (batch members count individually).
    pub requests_served: u64,
    /// Interactive agent-vs-agent runs completed.
    pub interactive_runs: u64,
    /// Connections dropped for timeouts, garbage, or I/O failure.
    pub connections_dropped: u64,
    /// Slow clients evicted after exhausting their read-timeout
    /// strikes (also counted in `connections_dropped`).
    pub connections_evicted: u64,
    /// Requests that overran [`ServerConfig::request_deadline`].
    pub deadlines_exceeded: u64,
    /// Requests answered with an immediate overload error because the
    /// event loop's pending queue was full.
    pub requests_shed: u64,
}

pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) counters: Counters,
    cache: VerdictCache,
    /// Persistent certified-result tier, when the config names a data
    /// directory. Never locked under the cache lock: a fresh verdict is
    /// appended after the cache has published it.
    store: Option<Mutex<ccmx_store::Store>>,
    /// Connections promoted off the event loop for interactive runs;
    /// joined at shutdown so no agent thread outlives the handle.
    promoted: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerState {
    /// Build the shared state: the verdict cache, counters, and — when
    /// configured — the persistent store, opened (with crash recovery)
    /// and drained into the cache so the server boots warm.
    fn new(config: ServerConfig) -> ServerState {
        let store = config
            .store_dir
            .as_deref()
            .and_then(|dir| persist::open_store(dir, "server"));
        let state = ServerState {
            cache: VerdictCache::new(config.cache_capacity),
            config,
            counters: Counters::default(),
            store: store.map(Mutex::new),
            promoted: Mutex::new(Vec::new()),
        };
        if let Some(store) = &state.store {
            let mut store = store.lock();
            persist::migrate_legacy(&mut store);
            persist::warm_seed(&store, &state.cache);
        }
        state
    }

    /// Answer a certified-verdict request from the cache, computing a
    /// miss outside every lock and appending it to the store. Errors are
    /// cached (a hostile client cannot re-trigger a failing search for
    /// free) but never persisted: they are not certified results.
    fn verdict(&self, req: &Request, compute: impl FnOnce() -> Response) -> Response {
        let key = verdict_key(req);
        let (resp, fresh) = self.cache.resolve(&key, compute);
        if fresh && !matches!(resp, Response::Error(_)) {
            if let Some(store) = &self.store {
                let mut store = store.lock();
                let value = resp.to_wire_bytes();
                let put = store.put(ccmx_store::Keyspace::VERDICT, &key, &value);
                if let Err(e) = put.and_then(|()| store.sync()) {
                    persist::write_failed(e);
                }
            }
        }
        resp
    }
}

/// Handle to a running server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the server gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let c = &self.state.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
            interactive_runs: c.interactive_runs.load(Ordering::Relaxed),
            connections_dropped: c.connections_dropped.load(Ordering::Relaxed),
            connections_evicted: c.connections_evicted.load(Ordering::Relaxed),
            deadlines_exceeded: c.deadlines_exceeded.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
        }
    }

    /// Verdict-cache counters (all request kinds together).
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Snapshot of the persistent store, or `None` when the server
    /// runs without one (no [`ServerConfig::store_dir`], or the open
    /// failed and the server degraded to cold serving).
    pub fn store_stat(&self) -> Option<ccmx_store::StoreStat> {
        self.state.store.as_ref().map(|s| s.lock().stat())
    }

    /// Stop accepting, answer the requests already queued, and join
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // A throwaway self-connection makes the listener readable, which
        // wakes the loop's `poll` so it sees the flag now rather than at
        // its next tick.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let promoted = std::mem::take(&mut *self.state.promoted.lock());
        for t in promoted {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the lab's dispatch
/// table on the event loop.
pub fn serve(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Pre-register the robustness series so a metrics scrape of a
    // healthy server shows them at zero instead of omitting them.
    ccmx_obs::counter!("ccmx_server_evicted_total").add(0);
    ccmx_obs::counter!("ccmx_server_deadline_exceeded_total").add(0);
    ccmx_obs::counter!("ccmx_server_shed_total").add(0);
    start(addr, config, |state| Arc::new(LabHandler { state }))
}

/// Bind `addr` and run the event loop with a *custom* dispatch — the
/// building block for services that speak the lab's wire protocol but
/// answer requests their own way (the cluster coordinator routes them
/// to shards instead of computing locally). The handler runs on the
/// loop's compute pool; `config` supplies the pool size, drain and
/// backpressure knobs exactly as for [`serve`].
pub fn serve_with_handler(
    addr: &str,
    config: ServerConfig,
    handler: Arc<dyn EventHandler>,
) -> std::io::Result<ServerHandle> {
    start(addr, config, |_| handler)
}

/// The start path both front doors share: bind, build the shared state,
/// and spawn the event loop and its pool around the handler that
/// `make_handler` builds over that state.
fn start(
    addr: &str,
    config: ServerConfig,
    make_handler: impl FnOnce(Arc<ServerState>) -> Arc<dyn EventHandler>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let state = Arc::new(ServerState::new(config));
    let stop = Arc::new(AtomicBool::new(false));
    let handler = make_handler(Arc::clone(&state));
    let threads = evloop::spawn_engine(listener, Arc::clone(&state), handler, Arc::clone(&stop))?;
    Ok(ServerHandle {
        addr: local,
        stop,
        threads,
        state,
    })
}

/// The event loop's bridge into the lab dispatch table.
struct LabHandler {
    state: Arc<ServerState>,
}

impl EventHandler for LabHandler {
    fn handle_request(&self, payload: &[u8], received: std::time::Instant) -> Vec<u8> {
        answer_request(&self.state, payload, received).to_wire_bytes()
    }

    fn interactive(&self, conn: PromotedConn) {
        // The blocking two-agent exchange gets its own thread; the
        // handle is kept so shutdown joins it.
        let state = Arc::clone(&self.state);
        let handle = std::thread::spawn(move || serve_promoted(&state, conn));
        self.state.promoted.lock().push(handle);
    }
}

/// Continue a connection promoted off the event loop: replay the
/// interactive frame it was promoted for (any bytes already buffered
/// come first via the transport's prefix), then keep serving the same
/// connection with the ordinary blocking loop.
fn serve_promoted(state: &ServerState, conn: PromotedConn) {
    let mut transport = match TcpTransport::from_stream_with_prefix(
        conn.stream,
        state.config.transport_config(),
        conn.leftover,
    ) {
        Ok(t) => t,
        Err(_) => {
            state.counters.inc_dropped();
            return;
        }
    };
    serve_transport(state, &mut transport, (KIND_INTERACTIVE, conn.setup));
}

/// The blocking per-connection serve loop of a promoted connection,
/// starting from the frame the event loop already read on its behalf.
/// Serves until the connection closes, exhausts its read-timeout
/// strikes, or errors; never panics out to its thread.
fn serve_transport(state: &ServerState, transport: &mut TcpTransport, first: (u8, Vec<u8>)) {
    let mut pending = Some(first);
    let mut strikes = 0u32;
    loop {
        let frame = match pending.take() {
            Some(f) => Ok(f),
            None => transport.recv_frame(),
        };
        match frame {
            Ok((KIND_REQUEST, payload)) => {
                strikes = 0;
                // The event loop counts the requests it parses; this
                // loop counts its own.
                request_bytes().record(payload.len() as u64);
                let response = answer_request(state, &payload, std::time::Instant::now());
                if transport
                    .send_frame(KIND_RESPONSE, &response.to_wire_bytes())
                    .is_err()
                {
                    state.counters.inc_dropped();
                    return;
                }
            }
            Ok((KIND_INTERACTIVE, payload)) => {
                strikes = 0;
                let response = match InteractiveSetup::from_wire_bytes(&payload) {
                    Ok(setup) => match interactive_run(state, transport, &setup) {
                        Ok(resp) => resp,
                        Err(_) => {
                            // The protocol exchange itself broke; the
                            // connection is out of sync — drop it.
                            state.counters.inc_dropped();
                            return;
                        }
                    },
                    Err(e) => Response::Error(format!("bad interactive setup: {e}")),
                };
                if transport
                    .send_frame(KIND_RESPONSE, &response.to_wire_bytes())
                    .is_err()
                {
                    state.counters.inc_dropped();
                    return;
                }
            }
            Ok((kind, _)) => {
                let resp = Response::Error(format!("unexpected frame kind {kind}"));
                let _ = transport.send_frame(KIND_RESPONSE, &resp.to_wire_bytes());
                state.counters.inc_dropped();
                return;
            }
            Err(NetError::Disconnected) => return, // clean close
            Err(NetError::Timeout) => {
                // A slow client earns a strike per silent read window;
                // it is evicted only once the configured strikes are
                // exhausted.
                strikes += 1;
                if strikes >= state.config.eviction_strikes.max(1) {
                    state.counters.inc_evicted();
                    state.counters.inc_dropped();
                    return;
                }
            }
            Err(_) => {
                // Garbage or I/O failure: drop the connection.
                state.counters.inc_dropped();
                return;
            }
        }
    }
}

/// Size histogram of request payloads, recorded once per request by
/// whichever loop read the frame.
pub(crate) fn request_bytes() -> &'static ccmx_obs::Histogram {
    ccmx_obs::histogram!("ccmx_server_request_bytes", &ccmx_obs::buckets::SIZE_BYTES)
}

/// Decode and dispatch one request payload, with latency metering, the
/// panic shield, and post-hoc deadline enforcement. Shared by the event
/// loop's compute pool and the blocking loop of promoted connections;
/// `received` anchors the deadline clock at frame arrival.
fn answer_request(state: &ServerState, payload: &[u8], received: std::time::Instant) -> Response {
    let deadline = state.config.request_deadline.map(|d| received + d);
    let mut response = {
        let _sp = ccmx_obs::span("server.request");
        match Request::from_wire_bytes(payload) {
            Ok(req) => dispatch_guarded(state, &req, deadline),
            Err(e) => Response::Error(format!("bad request: {e}")),
        }
    };
    // Post-hoc enforcement for the top-level request: a dispatch cannot
    // be preempted mid-computation, but an overrun answer is replaced
    // by an error so the client never mistakes a blown budget for a
    // timely result. Batches are exempt — their members were enforced
    // individually and the partial answers are kept.
    if let Some(d) = deadline {
        if std::time::Instant::now() > d
            && !matches!(response, Response::Error(_) | Response::Batch(_))
        {
            state.counters.inc_deadline();
            response = Response::Error(format!(
                "request deadline of {:?} exceeded",
                state.config.request_deadline.unwrap_or_default()
            ));
        }
    }
    ccmx_obs::histogram!(
        "ccmx_server_request_latency_ns",
        &ccmx_obs::buckets::LATENCY_NS
    )
    .record(received.elapsed().as_nanos() as u64);
    response
}

/// Dispatch with a panic shield: a request that trips an internal
/// assertion produces `Response::Error`, not a dead worker.
fn dispatch_guarded(
    state: &ServerState,
    req: &Request,
    deadline: Option<std::time::Instant>,
) -> Response {
    catch_unwind(AssertUnwindSafe(|| dispatch(state, req, deadline)))
        .unwrap_or_else(|_| Response::Error("internal error while serving the request".into()))
}

/// Refuse work whose budget is already spent: checked between batch
/// members so one slow item cannot drag every later item past the
/// deadline "for free".
fn past_deadline(state: &ServerState, deadline: Option<std::time::Instant>) -> Option<Response> {
    match deadline {
        Some(d) if std::time::Instant::now() > d => {
            state.counters.inc_deadline();
            Some(Response::Error(format!(
                "request deadline of {:?} exceeded",
                state.config.request_deadline.unwrap_or_default()
            )))
        }
        _ => None,
    }
}

fn dispatch(state: &ServerState, req: &Request, deadline: Option<std::time::Instant>) -> Response {
    state.counters.inc_served();
    match req {
        Request::Ping => Response::Pong,
        &Request::Bounds { n, k, security } => {
            if n < 5 || n.is_multiple_of(2) || !(2..=63).contains(&k) {
                return Response::Error(format!(
                    "bounds need odd n >= 5 and k in 2..=63, got n={n} k={k}"
                ));
            }
            state.verdict(req, || {
                let p = Params::new(n, k);
                Response::Bounds(BoundsReport {
                    n,
                    k,
                    security,
                    lower_bound_bits: counting::theorem_bound(p).lower_bound_bits,
                    deterministic_upper_bits: counting::deterministic_upper_bound_bits(p),
                    randomized_upper_bits: counting::probabilistic_upper_bound_bits(p, security),
                })
            })
        }
        Request::Run { spec, input, seed } => {
            let setup = spec.build();
            if input.len() != setup.input_bits {
                return Response::Error(format!(
                    "input is {} bits, {} expects {}",
                    input.len(),
                    spec.name(),
                    setup.input_bits
                ));
            }
            Response::Run(run_sequential(
                setup.proto.as_ref(),
                &setup.partition,
                input,
                *seed,
            ))
        }
        Request::Singularity { dim, k, input } => {
            let f = Singularity::new(*dim, *k);
            if input.len() != f.num_bits() {
                return Response::Error(format!(
                    "encoded matrix is {} bits, dim={dim} k={k} expects {}",
                    input.len(),
                    f.num_bits()
                ));
            }
            // Decide via the certified CRT rank path (same verdict as
            // `f.eval`'s Bareiss elimination — a square matrix is
            // singular iff its rank is deficient) so server traffic
            // exercises, and is counted by, the exact-linalg fast path.
            // A hit — possibly disk-seeded — answers from the request
            // bytes alone: no matrix decode, no elimination, observable
            // as the CRT certification counters standing still.
            state.verdict(req, || Response::Singularity {
                singular: ccmx_linalg::crt::rank_int(&f.enc.decode(input)) < *dim,
            })
        }
        Request::Batch(reqs) => batch_response(state, reqs, deadline),
        Request::Metrics => Response::Metrics(ccmx_obs::registry().render()),
        Request::CcSearch {
            rows,
            cols,
            bits,
            depth_limit,
        } => cc_search_response(state, req, *rows, *cols, bits, *depth_limit),
    }
}

fn cc_search_response(
    state: &ServerState,
    req: &Request,
    rows: usize,
    cols: usize,
    bits: &ccmx_comm::BitString,
    depth_limit: u32,
) -> Response {
    let max = ccmx_search::MAX_SEARCH_DIM;
    if rows == 0 || cols == 0 || rows > max || cols > max {
        return Response::Error(format!(
            "cc-search needs dims in 1..={max}, got {rows}x{cols}"
        ));
    }
    if bits.len() != rows * cols {
        return Response::Error(format!(
            "truth matrix is {} bits, {rows}x{cols} expects {}",
            bits.len(),
            rows * cols
        ));
    }
    state.verdict(req, || {
        let t = ccmx_comm::truth::TruthMatrix::from_fn(rows, cols, |x, y| bits.get(x * cols + y));
        let cfg = ccmx_search::SearchConfig {
            depth_limit,
            ..ccmx_search::SearchConfig::default()
        };
        match ccmx_search::solve(&t, &cfg) {
            Ok(r) => Response::CcSearch {
                cc: r.cc,
                exact: r.exact,
                nodes: r.stats.nodes,
                certificate: r.certificate.map(|c| c.to_bytes()).unwrap_or_default(),
            },
            Err(e) => Response::Error(format!("cc-search failed: {e}")),
        }
    })
}

/// Execute a batch: `Run` requests grouped by spec so each distinct
/// protocol setup is constructed once, everything else served in place.
/// Responses come back in request order.
fn batch_response(
    state: &ServerState,
    reqs: &[Request],
    deadline: Option<std::time::Instant>,
) -> Response {
    let plan = batch::plan(reqs);
    let mut responses: Vec<Option<Response>> = vec![None; reqs.len()];
    // Distinct-spec groups fan out over the shared ccmx-linalg worker
    // pool: each pool task builds its own protocol setup, so only the
    // (Sync) server state crosses threads. Singles and the final merge
    // stay on the connection thread. Floor of two lanes: batches arrive
    // over the wire, so overlapping group setup with execution pays even
    // when `default_threads()` reports one core, and the persistent pool
    // makes the extra lane a parked worker rather than a spawn.
    let threads = ccmx_linalg::parallel::default_threads().max(2);
    let group_outs: Vec<Vec<(usize, Response)>> =
        ccmx_linalg::parallel::par_map(plan.groups.len(), threads, |g| {
            let group = &plan.groups[g];
            let setup = group.spec.build();
            group
                .indices
                .iter()
                .map(|&i| {
                    let Request::Run { input, seed, .. } = &reqs[i] else {
                        unreachable!()
                    };
                    let resp = if let Some(refused) = past_deadline(state, deadline) {
                        refused
                    } else if input.len() != setup.input_bits {
                        Response::Error(format!(
                            "input is {} bits, {} expects {}",
                            input.len(),
                            group.spec.name(),
                            setup.input_bits
                        ))
                    } else {
                        state.counters.inc_served();
                        Response::Run(run_sequential(
                            setup.proto.as_ref(),
                            &setup.partition,
                            input,
                            *seed,
                        ))
                    };
                    (i, resp)
                })
                .collect()
        });
    for (i, r) in group_outs.into_iter().flatten() {
        responses[i] = Some(r);
    }
    for &i in &plan.singles {
        responses[i] = Some(match &reqs[i] {
            Request::Batch(_) => Response::Error("nested batches are not allowed".into()),
            other => match past_deadline(state, deadline) {
                Some(refused) => refused,
                None => dispatch_guarded(state, other, deadline),
            },
        });
    }
    Response::Batch(
        responses
            .into_iter()
            .map(|r| r.expect("batch plan covered every index"))
            .collect(),
    )
}

/// Play agent B of an interactive run on this connection. `Err` means
/// the wire itself failed mid-run (connection must drop); a bad setup
/// is reported as a normal `Response::Error`.
fn interactive_run(
    state: &ServerState,
    transport: &mut TcpTransport,
    setup: &InteractiveSetup,
) -> Result<Response, NetError> {
    let lab = setup.spec.build();
    let expected_positions = lab.partition.positions_of(Owner::B);
    if setup.b_positions != expected_positions {
        return Ok(Response::Error(format!(
            "share positions do not match {}'s canonical partition",
            setup.spec.name()
        )));
    }
    if setup.b_values.len() != expected_positions.len() {
        return Ok(Response::Error(format!(
            "share has {} values for {} positions",
            setup.b_values.len(),
            expected_positions.len()
        )));
    }
    let share = Share::new(
        setup.b_positions.clone(),
        setup.b_values.as_slice().to_vec(),
    );
    let limit = round_limit(lab.partition.len());

    let result = {
        let mut chan = AsChannel(&mut *transport);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_agent(
                lab.proto.as_ref(),
                &lab.partition,
                &share,
                Turn::B,
                setup.seed,
                limit,
                &mut chan,
            )
        }));
        match run {
            Ok(Ok(result)) => result,
            Ok(Err(e)) => return Err(NetError::Protocol(e.to_string())),
            Err(_) => {
                return Ok(Response::Error(
                    "protocol run failed on the server (round limit or internal assertion)".into(),
                ))
            }
        }
    };
    state.counters.inc_interactive();
    Ok(Response::Run(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProtoSpec;
    use ccmx_comm::BitString;

    fn small_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                read_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .expect("bind test server")
    }

    fn connect(h: &ServerHandle) -> TcpTransport {
        TcpTransport::connect(h.addr(), TransportConfig::default()).expect("connect to test server")
    }

    fn roundtrip(t: &mut TcpTransport, req: &Request) -> Response {
        t.send_frame(KIND_REQUEST, &req.to_wire_bytes()).unwrap();
        let (kind, payload) = t.recv_frame().unwrap();
        assert_eq!(kind, KIND_RESPONSE);
        Response::from_wire_bytes(&payload).unwrap()
    }

    #[test]
    fn ping_pong() {
        let server = small_server();
        let mut t = connect(&server);
        assert_eq!(roundtrip(&mut t, &Request::Ping), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn bounds_are_cached() {
        let server = small_server();
        let mut t = connect(&server);
        let req = Request::Bounds {
            n: 5,
            k: 3,
            security: 20,
        };
        let first = roundtrip(&mut t, &req);
        let second = roundtrip(&mut t, &req);
        assert_eq!(first, second);
        assert!(matches!(
            first,
            Response::Bounds(b) if b.lower_bound_bits >= 0.0 && b.deterministic_upper_bits > 0.0
        ));
        let cache = server.cache_stats();
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.hits, 1);
        server.shutdown();
    }

    #[test]
    fn metrics_request_serves_live_exposition_text() {
        let server = small_server();
        let mut t = connect(&server);
        assert_eq!(roundtrip(&mut t, &Request::Ping), Response::Pong);
        // Exercise the CRT path so its counter is live in the scrape.
        let f = ccmx_comm::functions::Singularity::new(2, 2);
        let m = ccmx_linalg::Matrix::from_fn(2, 2, |i, j| {
            ccmx_bigint::Integer::from(if i == j { 1i64 } else { 0 })
        });
        let resp = roundtrip(
            &mut t,
            &Request::Singularity {
                dim: 2,
                k: 2,
                input: f.enc.encode(&m),
            },
        );
        assert_eq!(resp, Response::Singularity { singular: false });
        let Response::Metrics(text) = roundtrip(&mut t, &Request::Metrics) else {
            panic!("expected a metrics response")
        };
        for series in [
            "ccmx_server_requests_total",
            "ccmx_server_connections_total",
            "ccmx_server_request_latency_ns_bucket",
            "ccmx_server_request_latency_ns_count",
            "ccmx_server_request_bytes_sum",
            "ccmx_crt_certified_total",
        ] {
            assert!(
                text.contains(series),
                "metrics text lacks {series}:\n{text}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn cc_search_answers_and_certifies() {
        let server = small_server();
        let mut t = connect(&server);
        // Equality on 2 bits: the 4x4 identity, CC = 3.
        let bits = BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect());
        let req = Request::CcSearch {
            rows: 4,
            cols: 4,
            bits: bits.clone(),
            depth_limit: 32,
        };
        let Response::CcSearch {
            cc,
            exact,
            certificate,
            ..
        } = roundtrip(&mut t, &req)
        else {
            panic!("expected a cc-search response")
        };
        assert_eq!((cc, exact), (3, true));
        let cert = ccmx_search::CcCertificate::from_bytes(&certificate).unwrap();
        cert.verify().unwrap();
        assert_eq!(cert.cc, 3);
        // Same query again: a cache hit with the identical verdict.
        let again = roundtrip(&mut t, &req);
        assert!(matches!(
            again,
            Response::CcSearch {
                cc: 3,
                exact: true,
                ..
            }
        ));
        // Malformed dims are an error, not a crash.
        let bad = roundtrip(
            &mut t,
            &Request::CcSearch {
                rows: 2,
                cols: 3,
                bits: BitString::from_u64(0, 4),
                depth_limit: 32,
            },
        );
        assert!(matches!(bad, Response::Error(_)));
        server.shutdown();
    }

    #[test]
    fn cc_cache_key_includes_depth_limit() {
        // Regression: a depth-0 query certifies only "CC >= 1" for any
        // non-monochromatic matrix. If the cache key omitted the depth
        // limit, that shallow verdict would be replayed for the deep
        // query below and report cc=1, exact=false for a CC-3 matrix.
        let server = small_server();
        let mut t = connect(&server);
        let bits = BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect());
        let shallow = roundtrip(
            &mut t,
            &Request::CcSearch {
                rows: 4,
                cols: 4,
                bits: bits.clone(),
                depth_limit: 0,
            },
        );
        let Response::CcSearch {
            cc,
            exact,
            certificate,
            ..
        } = shallow
        else {
            panic!("expected a cc-search response")
        };
        assert_eq!((cc, exact), (1, false));
        assert!(certificate.is_empty());
        let deep = roundtrip(
            &mut t,
            &Request::CcSearch {
                rows: 4,
                cols: 4,
                bits,
                depth_limit: 32,
            },
        );
        assert!(
            matches!(
                deep,
                Response::CcSearch {
                    cc: 3,
                    exact: true,
                    ..
                }
            ),
            "deep query aliased the shallow cache entry: {deep:?}"
        );
        server.shutdown();
    }

    #[test]
    fn invalid_bounds_params_are_an_error_not_a_crash() {
        let server = small_server();
        let mut t = connect(&server);
        let resp = roundtrip(
            &mut t,
            &Request::Bounds {
                n: 4,
                k: 3,
                security: 20,
            },
        );
        assert!(matches!(resp, Response::Error(_)));
        // Worker survived; the same connection still serves.
        assert_eq!(roundtrip(&mut t, &Request::Ping), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn run_request_matches_local_sequential() {
        let server = small_server();
        let mut t = connect(&server);
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let input = BitString::from_u64(0b1011_0010, 8);
        let resp = roundtrip(
            &mut t,
            &Request::Run {
                spec,
                input: input.clone(),
                seed: 11,
            },
        );
        let setup = spec.build();
        let expected = run_sequential(setup.proto.as_ref(), &setup.partition, &input, 11);
        assert_eq!(resp, Response::Run(expected));
        server.shutdown();
    }

    #[test]
    fn batch_amortizes_and_preserves_order() {
        let server = small_server();
        let mut t = connect(&server);
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let mk = |v: u64| Request::Run {
            spec,
            input: BitString::from_u64(v, 8),
            seed: v,
        };
        let batch = Request::Batch(vec![mk(1), Request::Ping, mk(2), mk(3)]);
        let Response::Batch(resps) = roundtrip(&mut t, &batch) else {
            panic!("expected a batch response")
        };
        assert_eq!(resps.len(), 4);
        assert_eq!(resps[1], Response::Pong);
        for (i, v) in [(0usize, 1u64), (2, 2), (3, 3)] {
            let setup = spec.build();
            let expected = run_sequential(
                setup.proto.as_ref(),
                &setup.partition,
                &BitString::from_u64(v, 8),
                v,
            );
            assert_eq!(resps[i], Response::Run(expected), "batch slot {i}");
        }
        server.shutdown();
    }

    #[test]
    fn multi_group_batch_runs_on_shared_pool() {
        let server = small_server();
        let mut t = connect(&server);
        let spec_a = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let spec_b = ProtoSpec::SendAllSingularity { dim: 2, k: 1 };
        let (_, batches_before) = ccmx_linalg::pool::pool_stats();
        let batch = Request::Batch(vec![
            Request::Run {
                spec: spec_a,
                input: BitString::from_u64(0b1010_0110, 8),
                seed: 1,
            },
            Request::Run {
                spec: spec_b,
                input: BitString::from_u64(0b1001, 4),
                seed: 2,
            },
            Request::Run {
                spec: spec_a,
                input: BitString::from_u64(0b0011_0101, 8),
                seed: 3,
            },
        ]);
        let Response::Batch(resps) = roundtrip(&mut t, &batch) else {
            panic!("expected a batch response")
        };
        let (_, batches_after) = ccmx_linalg::pool::pool_stats();
        assert!(
            batches_after > batches_before,
            "group fan-out should submit a pool batch"
        );
        for (i, (spec, v, seed)) in [
            (spec_a, 0b1010_0110u64, 1u64),
            (spec_b, 0b1001, 2),
            (spec_a, 0b0011_0101, 3),
        ]
        .into_iter()
        .enumerate()
        {
            let setup = spec.build();
            let expected = run_sequential(
                setup.proto.as_ref(),
                &setup.partition,
                &BitString::from_u64(v, setup.input_bits),
                seed,
            );
            assert_eq!(resps[i], Response::Run(expected), "batch slot {i}");
        }
        server.shutdown();
    }

    #[test]
    fn nested_batch_rejected() {
        let server = small_server();
        let mut t = connect(&server);
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        let Response::Batch(resps) = roundtrip(&mut t, &nested) else {
            panic!("expected a batch response")
        };
        assert!(matches!(&resps[0], Response::Error(msg) if msg.contains("nested")));
        server.shutdown();
    }

    #[test]
    fn stalling_client_is_dropped_without_wedging_the_pool() {
        let server = small_server();
        // Occupy a worker with a silent connection…
        let stalled = TcpStream::connect(server.addr()).unwrap();
        // …wait for the server's read timeout to reap it…
        std::thread::sleep(Duration::from_millis(400));
        // …then verify a real client is still served promptly.
        let mut t = connect(&server);
        assert_eq!(roundtrip(&mut t, &Request::Ping), Response::Pong);
        assert!(server.stats().connections_dropped >= 1);
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn zero_deadline_rejects_requests_but_keeps_the_connection() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                request_deadline: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        )
        .expect("bind test server");
        let mut t = connect(&server);
        let resp = roundtrip(&mut t, &Request::Ping);
        assert!(
            matches!(&resp, Response::Error(msg) if msg.contains("deadline")),
            "zero budget must refuse even a ping, got {resp:?}"
        );
        // The connection survives a blown deadline.
        let again = roundtrip(&mut t, &Request::Ping);
        assert!(matches!(again, Response::Error(_)));
        assert!(server.stats().deadlines_exceeded >= 2);
        server.shutdown();
    }

    #[test]
    fn zero_deadline_refuses_batch_members_individually() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                request_deadline: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        )
        .expect("bind test server");
        let mut t = connect(&server);
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let batch = Request::Batch(vec![
            Request::Ping,
            Request::Run {
                spec,
                input: BitString::from_u64(0b1011_0010, 8),
                seed: 1,
            },
        ]);
        let Response::Batch(resps) = roundtrip(&mut t, &batch) else {
            panic!("expected a batch response")
        };
        for (i, r) in resps.iter().enumerate() {
            assert!(
                matches!(r, Response::Error(msg) if msg.contains("deadline")),
                "batch slot {i} should be refused, got {r:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn eviction_strikes_give_slow_clients_extra_windows() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                read_timeout: Duration::from_millis(80),
                eviction_strikes: 3,
                ..ServerConfig::default()
            },
        )
        .expect("bind test server");
        let mut t = connect(&server);
        // One silent window (one strike) must not cost the connection…
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(roundtrip(&mut t, &Request::Ping), Response::Pong);
        assert_eq!(server.stats().connections_evicted, 0);
        // …but exhausting all three strikes must.
        std::thread::sleep(Duration::from_millis(400));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.stats().connections_evicted == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.stats();
        assert_eq!(stats.connections_evicted, 1, "slow client not evicted");
        assert!(stats.connections_dropped >= 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_everything() {
        let server = small_server();
        let addr = server.addr();
        server.shutdown();
        // After shutdown the listener is gone: connecting either fails
        // outright or the connection is never served.
        let still_up = TcpTransport::connect(addr, TransportConfig::default())
            .and_then(|mut t| {
                t.send_frame(KIND_REQUEST, &Request::Ping.to_wire_bytes())?;
                t.recv_frame()
            })
            .is_ok();
        assert!(!still_up, "server still answering after shutdown");
    }

    #[test]
    fn evented_pipelining_preserves_response_order() {
        let server = small_server();
        let mut t = connect(&server);
        // Fire a burst of requests without reading a single response;
        // the per-connection FIFO must answer them in request order
        // even though dispatch happens off-loop.
        let ns = [5u16, 7, 9, 11, 5, 7];
        for &n in &ns {
            t.send_frame(
                KIND_REQUEST,
                &Request::Bounds {
                    n: n as usize,
                    k: 3,
                    security: 20,
                }
                .to_wire_bytes(),
            )
            .unwrap();
        }
        for &n in &ns {
            let (kind, payload) = t.recv_frame().unwrap();
            assert_eq!(kind, KIND_RESPONSE);
            let Response::Bounds(b) = Response::from_wire_bytes(&payload).unwrap() else {
                panic!("expected a bounds response for n={n}")
            };
            assert_eq!(b.n, n as usize, "responses out of request order");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_batch_group() {
        // Regression: a stop during batch fan-out used to close the
        // listener and drop queued batch members silently. The event
        // loop's drain phase must finish the batch and flush the full
        // response before the loop exits.
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind test server");
        let mut t = connect(&server);
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let members: Vec<Request> = (0..24)
            .map(|v| Request::Run {
                spec,
                input: BitString::from_u64(v, 8),
                seed: v,
            })
            .collect();
        let n_members = members.len();
        t.send_frame(KIND_REQUEST, &Request::Batch(members).to_wire_bytes())
            .unwrap();
        // Stop the server while the batch is (very likely) mid-flight.
        // `shutdown` blocks until the drain completes, so run it from a
        // second thread while this one waits for the response.
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            server.shutdown();
        });
        let (kind, payload) = t
            .recv_frame()
            .expect("batch response must survive shutdown");
        assert_eq!(kind, KIND_RESPONSE);
        let Response::Batch(resps) = Response::from_wire_bytes(&payload).unwrap() else {
            panic!("expected a batch response")
        };
        assert_eq!(resps.len(), n_members, "batch members dropped by shutdown");
        for (i, r) in resps.iter().enumerate() {
            assert!(
                matches!(r, Response::Run(_)),
                "batch slot {i} degraded to {r:?} during drain"
            );
        }
        stopper.join().unwrap();
    }

    #[test]
    fn overload_sheds_new_requests_with_an_error() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                max_pending_requests: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind test server");
        let mut t = connect(&server);
        // One slow batch occupies the single queue slot…
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
        let members: Vec<Request> = (0..32)
            .map(|v| Request::Run {
                spec,
                input: BitString::from_u64(v, 8),
                seed: v,
            })
            .collect();
        t.send_frame(KIND_REQUEST, &Request::Batch(members).to_wire_bytes())
            .unwrap();
        // …so a request arriving right behind it must be shed. Shed
        // errors jump the response queue (they are answered at parse
        // time), so read both and sort by shape.
        t.send_frame(KIND_REQUEST, &Request::Ping.to_wire_bytes())
            .unwrap();
        let mut saw_batch = false;
        let mut saw_shed = false;
        for _ in 0..2 {
            let (_, payload) = t.recv_frame().unwrap();
            match Response::from_wire_bytes(&payload).unwrap() {
                Response::Batch(resps) => {
                    assert_eq!(resps.len(), 32);
                    saw_batch = true;
                }
                Response::Error(msg) => {
                    assert!(msg.contains("overloaded"), "unexpected error: {msg}");
                    saw_shed = true;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(saw_batch, "the in-flight batch must still complete");
        assert!(saw_shed, "the second request should have been shed");
        assert!(server.stats().requests_shed >= 1);
        server.shutdown();
    }

    #[test]
    fn warm_restart_answers_from_disk_without_recompute() {
        let dir = std::env::temp_dir().join(format!("ccmx-server-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            workers: 2,
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let bounds_req = Request::Bounds {
            n: 7,
            k: 3,
            security: 24,
        };
        let f = ccmx_comm::functions::Singularity::new(2, 2);
        let m = ccmx_linalg::Matrix::from_fn(2, 2, |i, j| {
            ccmx_bigint::Integer::from(if i == j { 3i64 } else { 1 })
        });
        let sing_req = Request::Singularity {
            dim: 2,
            k: 2,
            input: f.enc.encode(&m),
        };
        let cc_bits = BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect());
        let cc_req = Request::CcSearch {
            rows: 4,
            cols: 4,
            bits: cc_bits,
            depth_limit: 32,
        };

        // Cold lifetime: compute and persist three kinds of verdict.
        let (cold_bounds, cold_sing, cold_cc) = {
            let server = serve("127.0.0.1:0", config.clone()).unwrap();
            let mut t = connect(&server);
            let out = (
                roundtrip(&mut t, &bounds_req),
                roundtrip(&mut t, &sing_req),
                roundtrip(&mut t, &cc_req),
            );
            let stat = server.store_stat().expect("server must have a store");
            assert_eq!(stat.live_records, 3, "three verdicts persisted");
            server.shutdown();
            out
        };
        assert!(matches!(
            cold_sing,
            Response::Singularity { singular: false }
        ));

        // Warm lifetime: a fresh server answers all three from the
        // disk-seeded caches — every request is a cache *hit*, so none
        // of the compute closures (theorem counting, elimination,
        // branch-and-bound) ran again.
        let server = serve("127.0.0.1:0", config).unwrap();
        let mut t = connect(&server);
        assert_eq!(roundtrip(&mut t, &bounds_req), cold_bounds);
        assert_eq!(roundtrip(&mut t, &sing_req), cold_sing);
        assert_eq!(roundtrip(&mut t, &cc_req), cold_cc);
        let cache = server.cache_stats();
        assert_eq!((cache.hits, cache.misses), (3, 0), "every kind warm-hit");
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
