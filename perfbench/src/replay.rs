//! The traced replay: the requests of a traced window, replayed
//! in-process after the servers stop, calling each layer's public
//! functions in the order the server's dispatch does. Every call is a
//! child span of its request's root span (the client-side record of
//! the wire phase); spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ccmx_comm::functions::Singularity;
use ccmx_comm::protocol::{run_sequential, RunResult};
use ccmx_comm::truth::TruthMatrix;
use ccmx_core::counting;
use ccmx_core::params::Params;
use ccmx_net::cache::LruCache;
use ccmx_net::{batch, BoundsReport, Request, Response, WireCodec};
use ccmx_search::SearchConfig;
use ccmx_store::{Keyspace, Store, StoreConfig};

use crate::gen::{Class, Item, Send};
use crate::load::Rec;

/// Server cache capacity (the shipped default).
const CACHE_CAP: usize = 64;
/// Requests replayed per run, and CC searches among them: enough for
/// stable per-call medians while keeping the replay to a few seconds.
const MAX_REPLAYED: usize = 4000;
const MAX_SEARCHES: usize = 24;
/// Searches also solved single-threaded for `search.solve_ms.serial`.
const MAX_SERIAL: usize = 6;

/// One span: a request's root (`parent == 0`) or one layer call.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

type SingKey = (usize, u32, u64, &'static str);
type CcKey = (usize, usize, Vec<bool>, u32);
type BoundsKey = (usize, u32, u32, &'static str);

/// Spans and per-call samples of the replay.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Per-call samples by metric name (µs unless the name says ms).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Replayed self time per layer, summed over replayed requests, ns.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Client latency minus replayed self times, µs, by request class.
    pub unattributed: BTreeMap<&'static str, Vec<f64>>,
    pub replayed: usize,
    next_id: u64,
    /// Current root span, and the self time its children add up to.
    root: u64,
    root_self_ns: u64,
    recording: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sample(&mut self, name: String, value: f64) {
        if self.recording {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Run `f`, returning its value, start and duration (ns).
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64, u64) {
        let start = self.now();
        let out = f();
        (out, start, self.now() - start)
    }

    /// Record one layer call as a child span of the current request.
    fn record(&mut self, name: String, start: u64, dur: u64) {
        if !self.recording {
            return;
        }
        *self.layer_ns.entry(layer_of(&name)).or_default() += dur;
        self.root_self_ns += dur;
        let value = if name.contains("_ms") {
            dur as f64 / 1e6
        } else {
            dur as f64 / 1e3
        };
        self.samples.entry(name.clone()).or_default().push(value);
        self.spans.push(Span {
            id: self.next_id,
            parent: self.root,
            name,
            start_ns: start,
            dur_ns: dur,
        });
        self.next_id += 1;
    }

    /// Exact transcript counts of one protocol run.
    fn run_counts(&mut self, spec: &str, r: &RunResult) {
        let (bits, msgs) = (r.transcript.total_bits(), r.transcript.messages().len());
        self.sample(format!("comm.bits_per_run.{spec}"), bits as f64);
        self.sample(format!("comm.msgs_per_run.{spec}"), msgs as f64);
    }

    /// Time one layer call.
    fn call<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let (out, start, dur) = self.timed(f);
        self.record(name.into(), start, dur);
        out
    }
}

pub struct Replay {
    sing: LruCache<SingKey, bool>,
    cc: LruCache<CcKey, Response>,
    bounds: LruCache<BoundsKey, BoundsReport>,
    store: Store,
    searches: usize,
    pub tracer: Tracer,
}

fn layer_of(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("comm") => "comm",
        Some("linalg") => "linalg",
        Some("search") => "search",
        Some("store") => "store",
        _ => "net",
    }
}

impl Replay {
    /// A replay whose store appends go to a fresh store in `dir`.
    pub fn new(dir: &Path) -> Result<Replay, String> {
        let store = Store::open(StoreConfig::new(dir).label("replay"))
            .map_err(|e| format!("replay store {}: {e}", dir.display()))?;
        Ok(Replay {
            sing: LruCache::new(CACHE_CAP),
            cc: LruCache::new(CACHE_CAP),
            bounds: LruCache::new(CACHE_CAP),
            store,
            searches: 0,
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
                samples: BTreeMap::new(),
                layer_ns: BTreeMap::new(),
                unattributed: BTreeMap::new(),
                replayed: 0,
                next_id: 1,
                root: 0,
                root_self_ns: 0,
                recording: false,
            },
        })
    }

    /// Replay a set-up request: it fills the caches as it did on the
    /// server, and records nothing.
    pub fn warm(&mut self, item: &Item) {
        if let Send::Wire(req) = &item.send {
            self.tracer.recording = false;
            self.dispatch(req);
        }
    }

    /// Whether the budget allows replaying `item`.
    pub fn wants(&self, item: &Item) -> bool {
        self.tracer.replayed < MAX_REPLAYED
            && !(item.class == Class::Search && self.searches >= MAX_SEARCHES)
    }

    /// Replay one request of the traced window under a root span that
    /// covers its client-side latency. Past the budget nothing is
    /// replayed: the caches then drift from the server's, but every
    /// later request goes unrecorded anyway.
    pub fn replay(&mut self, item: &Item, rec: &Rec) {
        if !self.wants(item) {
            return;
        }
        let t = &mut self.tracer;
        t.recording = true;
        t.replayed += 1;
        t.root = t.next_id;
        t.next_id += 1;
        t.root_self_ns = 0;
        t.spans.push(Span {
            id: t.root,
            parent: 0,
            name: format!("request.{}.{}", rec.class.name(), rec.label),
            start_ns: rec.due,
            dur_ns: rec.done.saturating_sub(rec.due),
        });
        match &item.send {
            Send::Wire(req) => {
                let bytes = req.to_wire_bytes();
                self.tracer
                    .sample("net.req_bytes".into(), bytes.len() as f64);
                let decoded = self
                    .tracer
                    .call("net.req_decode_us", || Request::from_wire_bytes(&bytes));
                let Ok(req) = decoded else {
                    self.tracer.recording = false;
                    return;
                };
                let resp = self.dispatch(&req);
                let out = self
                    .tracer
                    .call("net.resp_encode_us", || resp.to_wire_bytes());
                self.tracer
                    .sample("net.resp_bytes".into(), out.len() as f64);
            }
            Send::Interactive(run) => {
                let name = run.spec.name();
                let lab = self.tracer.call("comm.spec_build_us", || run.spec.build());
                let result = self.tracer.call(format!("comm.run_us.{name}"), || {
                    run_sequential(lab.proto.as_ref(), &lab.partition, &run.input, run.seed)
                });
                self.tracer.run_counts(name, &result);
            }
        }
        let t = &mut self.tracer;
        let client_ns = rec.done.saturating_sub(rec.due);
        let self_ns = t.root_self_ns;
        t.unattributed
            .entry(rec.class.name())
            .or_default()
            .push(client_ns.saturating_sub(self_ns) as f64 / 1e3);
        t.recording = false;
    }

    /// The server's dispatch, one layer call at a time.
    fn dispatch(&mut self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics(String::new()),
            Request::Bounds { n, k, security } => {
                let (n, k, security) = (*n, *k, *security);
                let key = (n, k, security, ccmx_linalg::crt::active_backend().id());
                let cached = self
                    .tracer
                    .call("net.cache_get_us", || self.bounds.get(&key));
                let report = match cached {
                    Some(r) => r,
                    None => {
                        let p = Params::new(n, k);
                        let report = self.tracer.call("comm.bounds_us", || BoundsReport {
                            n,
                            k,
                            security,
                            lower_bound_bits: counting::theorem_bound(p).lower_bound_bits,
                            deterministic_upper_bits: counting::deterministic_upper_bound_bits(p),
                            randomized_upper_bits: counting::probabilistic_upper_bound_bits(
                                p, security,
                            ),
                        });
                        self.tracer
                            .call("net.cache_put_us", || self.bounds.put(key, report));
                        report
                    }
                };
                Response::Bounds(report)
            }
            Request::Run { spec, input, seed } => {
                let lab = self.tracer.call("comm.spec_build_us", || spec.build());
                let result = self
                    .tracer
                    .call(format!("comm.run_us.{}", spec.name()), || {
                        run_sequential(lab.proto.as_ref(), &lab.partition, input, *seed)
                    });
                self.tracer.run_counts(spec.name(), &result);
                Response::Run(result)
            }
            Request::Singularity { dim, k, input } => {
                let (dim, k) = (*dim, *k);
                let m = self
                    .tracer
                    .call(format!("comm.matrix_decode_us.{dim}"), || {
                        Singularity::new(dim, k).enc.decode(input)
                    });
                let fp = self
                    .tracer
                    .call(format!("linalg.fingerprint_us.{dim}"), || {
                        ccmx_linalg::crt::matrix_fingerprint(&m)
                    });
                let backend = ccmx_linalg::crt::active_backend().id();
                let key = (dim, k, fp, backend);
                let cached = self.tracer.call("net.cache_get_us", || self.sing.get(&key));
                let singular = match cached {
                    Some(s) => s,
                    None => {
                        // Named after the call: the class (full or
                        // deficient) is known only from its answer.
                        let (rank, start, dur) =
                            self.tracer.timed(|| ccmx_linalg::crt::rank_int(&m));
                        let class = if rank < dim { "deficient" } else { "full" };
                        self.tracer
                            .record(format!("linalg.rank_us.{dim}.{class}"), start, dur);
                        let s = rank < dim;
                        self.tracer
                            .call("net.cache_put_us", || self.sing.put(key, s));
                        let mut skey = Vec::with_capacity(32);
                        skey.extend((dim as u64).to_le_bytes());
                        skey.extend(u64::from(k).to_le_bytes());
                        skey.extend(fp.to_le_bytes());
                        skey.extend(backend.as_bytes());
                        let store = &mut self.store;
                        let ok = self.tracer.call("store.append_us", || {
                            store
                                .put(Keyspace::CRT, &skey, &[u8::from(s)])
                                .and_then(|()| store.sync())
                        });
                        if let Err(e) = ok {
                            eprintln!("perfbench: replay store append failed: {e}");
                        }
                        s
                    }
                };
                Response::Singularity { singular }
            }
            Request::CcSearch {
                rows,
                cols,
                bits,
                depth_limit,
            } => {
                let (rows, cols, depth_limit) = (*rows, *cols, *depth_limit);
                let key = (rows, cols, bits.as_slice().to_vec(), depth_limit);
                let cached = self.tracer.call("net.cache_get_us", || self.cc.get(&key));
                match cached {
                    Some(resp) => resp,
                    None => {
                        let t = TruthMatrix::from_fn(rows, cols, |x, y| bits.get(x * cols + y));
                        let cfg = SearchConfig {
                            depth_limit,
                            ..SearchConfig::default()
                        };
                        if self.tracer.recording {
                            self.searches += 1;
                        }
                        let solved = self
                            .tracer
                            .call("search.solve_ms", || ccmx_search::solve(&t, &cfg));
                        let resp = match solved {
                            Ok(r) => {
                                if self.tracer.recording {
                                    let hits = r.stats.memo_hits as f64;
                                    let total =
                                        (r.stats.memo_hits + r.stats.memo_misses).max(1) as f64;
                                    self.tracer.sample(
                                        "search.nodes_per_solve".into(),
                                        r.stats.nodes as f64,
                                    );
                                    self.tracer
                                        .sample("search.memo_hit_ratio".into(), hits / total);
                                }
                                Response::CcSearch {
                                    cc: r.cc,
                                    exact: r.exact,
                                    nodes: r.stats.nodes,
                                    certificate: r
                                        .certificate
                                        .map(|c| c.to_bytes())
                                        .unwrap_or_default(),
                                }
                            }
                            Err(e) => Response::Error(format!("cc-search failed: {e}")),
                        };
                        if self.tracer.recording && self.searches <= MAX_SERIAL {
                            let serial = SearchConfig { threads: 1, ..cfg };
                            let start = Instant::now();
                            let _ = ccmx_search::solve(&t, &serial);
                            self.tracer.sample(
                                "search.solve_ms.serial".into(),
                                start.elapsed().as_secs_f64() * 1e3,
                            );
                        }
                        self.tracer
                            .call("net.cache_put_us", || self.cc.put(key, resp.clone()));
                        resp
                    }
                }
            }
            Request::Batch(reqs) => {
                let plan = self.tracer.call("net.batch_plan_us", || batch::plan(reqs));
                let mut responses: Vec<Option<Response>> = vec![None; reqs.len()];
                for group in &plan.groups {
                    let lab = self
                        .tracer
                        .call("comm.spec_build_us", || group.spec.build());
                    for &i in &group.indices {
                        let Request::Run { input, seed, .. } = &reqs[i] else {
                            continue;
                        };
                        let result = self
                            .tracer
                            .call(format!("comm.run_us.{}", group.spec.name()), || {
                                run_sequential(lab.proto.as_ref(), &lab.partition, input, *seed)
                            });
                        self.tracer.run_counts(group.spec.name(), &result);
                        responses[i] = Some(Response::Run(result));
                    }
                }
                for &i in &plan.singles {
                    responses[i] = Some(self.dispatch(&reqs[i]));
                }
                Response::Batch(
                    responses
                        .into_iter()
                        .map(|r| r.unwrap_or(Response::Pong))
                        .collect(),
                )
            }
        }
    }
}

/// `store.open_ms`, `store.seed_scan_ms` and `store.bytes_per_record`:
/// open a copy of the populated store and scan every keyspace the
/// server warm-seeds from.
pub fn store_boot(copy: &Path) -> Result<Vec<(String, f64, &'static str)>, String> {
    let start = Instant::now();
    let store =
        Store::open(StoreConfig::new(copy).label("replay-boot")).map_err(|e| e.to_string())?;
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut seen = 0u64;
    for ks in [Keyspace::BOUNDS, Keyspace::CC, Keyspace::CRT] {
        store.for_each(ks, |_, _| seen += 1);
    }
    let scan_ms = start.elapsed().as_secs_f64() * 1e3;
    let stat = store.stat();
    let per_record = stat.live_bytes as f64 / stat.live_records.max(1) as f64;
    Ok(vec![
        ("store.open_ms".into(), open_ms, "ms"),
        ("store.seed_scan_ms".into(), scan_ms, "ms"),
        ("store.scanned_records".into(), seen as f64, "count"),
        ("store.bytes_per_record".into(), per_record, "B"),
    ])
}
