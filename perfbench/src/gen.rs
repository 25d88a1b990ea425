//! Seeded request streams and the answer oracles.
//!
//! Every request a server receives comes from here and depends only on
//! the workload seed. Each connection draws from its own stream, so the
//! bytes sent do not depend on timing. After the timed window a second
//! pass over the same streams recomputes every expected answer off the
//! clock, with code that shares none of the server's fast paths.

use std::collections::VecDeque;

use ccmx_bigint::Integer;
use ccmx_comm::functions::Singularity;
use ccmx_comm::protocol::{run_sequential, RunResult};
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::BitString;
use ccmx_core::counting;
use ccmx_core::params::Params;
use ccmx_linalg::{bareiss, Matrix};
use ccmx_net::api::LabSetup;
use ccmx_net::{BoundsReport, ProtoSpec, Request, Response, WireCodec};
use ccmx_search::CcCertificate;

/// The workloads the binary runs. `BENCHMARK.json` lists all but
/// `proto-live`: on a two-core machine its 0.04 ms interactive runs
/// spread by a third from run to run, more than any bound allows.
pub const WORKLOADS: [&str; 4] = ["sing-stream", "cc-contend", "proto-live", "routed-mix"];

/// Records written to the store before `sing-stream` boots on it.
pub const POPULATE_RECORDS: usize = 20_000;
const POPULATE_BATCH: usize = 250;

/// Matrix sizes of fresh `sing-stream` requests, with their weights.
/// n = 4 carries 70% of the requests, so the overall median sits well
/// inside the n = 4 class (at about its 71st percentile) and the hit
/// median inside the n = 4 hits, instead of on the step between two
/// sizes whose costs differ several-fold.
const SING_SIZES: [(usize, u64); 4] = [(4, 14), (8, 2), (16, 2), (32, 2)];
/// Fresh matrices a `sing-stream` hit may re-send. Both connections
/// together insert at most `2 * SING_RECENT` fresh verdicts across
/// that window, half the server's 64-entry cache, so every re-send
/// really hits.
const SING_RECENT: usize = 16;

/// Security of the randomized protocols: high enough that no run in a
/// benchmark's lifetime answers wrong, so every failure is the server's.
const SECURITY: u32 = 40;
/// Protocols of `proto-live` and of the routed batches.
pub const PROTO_SPECS: [ProtoSpec; 3] = [
    ProtoSpec::SendAllSingularity { dim: 4, k: 4 },
    ProtoSpec::ModPrimeSingularity {
        dim: 4,
        k: 4,
        security: SECURITY,
    },
    ProtoSpec::FingerprintEquality {
        half_bits: 32,
        security: SECURITY,
    },
];
/// Runs in one `proto-live` batch.
const PROTO_BATCH: usize = 16;
/// Runs in one `routed-mix` batch.
const ROUTED_BATCH: usize = 8;

/// `(n, k)` of the Theorem 1.1 bound requests that `cc-contend` keeps
/// cached.
const CC_BOUNDS_KEYS: [(usize, u32); 4] = [(5, 3), (7, 4), (9, 5), (11, 6)];
/// Bound and singularity keys of `routed-mix`: few enough that every
/// key stays in a shard's 64-entry caches.
const ROUTED_BOUNDS_KEYS: [(usize, u32); 12] = [
    (5, 3),
    (5, 4),
    (5, 5),
    (5, 6),
    (7, 3),
    (7, 4),
    (7, 5),
    (7, 6),
    (9, 3),
    (9, 4),
    (9, 5),
    (9, 6),
];
const ROUTED_SING_KEYS: usize = 12;

// ----------------------------------------------------------------------
// Randomness and hashing
// ----------------------------------------------------------------------

/// SplitMix64: small, seedable, and fixed here so a stream never
/// changes under a dependency upgrade.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `k`-bit value, `1 <= k <= 64`.
    pub fn bits(&mut self, k: u32) -> u64 {
        self.next_u64() >> (64 - k)
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }

    fn weighted<T: Copy>(&mut self, table: &[(T, u64)]) -> T {
        let total: u64 = table.iter().map(|&(_, w)| w).sum();
        let mut r = self.below(total);
        for &(v, w) in table {
            if r < w {
                return v;
            }
            r -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The generator of one stream of one workload.
fn stream_rng(seed: u64, workload: &str, stream: &str) -> Rng {
    Rng::new(
        fnv64(workload.as_bytes())
            ^ fnv64(stream.as_bytes()).rotate_left(17)
            ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

// ----------------------------------------------------------------------
// Items
// ----------------------------------------------------------------------

/// Request class: the unit latency is reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Issued during set-up; checked, never timed.
    Setup,
    /// `sing-stream`: a fresh matrix.
    Miss,
    /// `sing-stream`: a re-sent matrix; `cc-contend`: a cached CC answer.
    Hit,
    /// `cc-contend`: a cached Theorem 1.1 bound.
    BoundsHit,
    /// `cc-contend`: a CC search that misses the cache.
    Search,
    /// `proto-live`: a live two-agent run.
    Interactive,
    /// `proto-live`, `routed-mix`: a batch of server-side runs.
    Batch,
    /// `routed-mix`: a routed bound or singularity request.
    Single,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Setup => "setup",
            Class::Miss => "miss",
            Class::Hit => "hit",
            Class::BoundsHit => "bounds-hit",
            Class::Search => "search",
            Class::Interactive => "interactive",
            Class::Batch => "batch",
            Class::Single => "single",
        }
    }
}

/// A protocol run: the spec, the full input and the shared seed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    pub spec: ProtoSpec,
    pub input: BitString,
    pub seed: u64,
}

impl RunSpec {
    fn random(rng: &mut Rng, spec: ProtoSpec) -> RunSpec {
        let input = match spec {
            ProtoSpec::SendAllSingularity { dim, k }
            | ProtoSpec::ModPrimeSingularity { dim, k, .. } => {
                let deficient = rng.below(4) == 0;
                Entries::random(rng, dim, k, deficient).encode()
            }
            ProtoSpec::FingerprintEquality { half_bits, .. } => {
                let a: Vec<bool> = (0..half_bits).map(|_| rng.bits(1) == 1).collect();
                let b = if rng.below(2) == 0 {
                    a.clone()
                } else {
                    (0..half_bits).map(|_| rng.bits(1) == 1).collect()
                };
                BitString::from_bits([a, b].concat())
            }
        };
        RunSpec {
            spec,
            input,
            seed: rng.next_u64(),
        }
    }

    pub fn request(&self) -> Request {
        Request::Run {
            spec: self.spec,
            input: self.input.clone(),
            seed: self.seed,
        }
    }

    /// The run in-process on `lab` (this spec's set-up): what the server
    /// must answer, bit for bit.
    pub fn local(&self, lab: &LabSetup) -> RunResult {
        run_sequential(lab.proto.as_ref(), &lab.partition, &self.input, self.seed)
    }
}

/// What to send.
pub enum Send {
    Wire(Request),
    /// A live run: the client plays agent A on a promoted connection.
    Interactive(RunSpec),
}

/// What the oracle needs to decide the right answer later.
pub enum Expect {
    /// A fresh matrix; the oracle decides singularity.
    Matrix(Entries),
    /// A re-send of request number `i` of the same stream.
    Repeat(u64),
    Singular(bool),
    Cc {
        cc: u32,
        t: TruthMatrix,
    },
    Bounds(BoundsReport),
    Batch(Vec<RunSpec>),
    SingBatch(Vec<Entries>),
    Interactive(RunSpec),
}

pub struct Item {
    pub class: Class,
    /// Sub-class, for the per-class breakdown.
    pub label: &'static str,
    pub send: Send,
    pub expect: Expect,
}

impl Item {
    /// The bytes that identify this request in the stream hash.
    pub fn identity(&self) -> Vec<u8> {
        match &self.send {
            Send::Wire(req) => req.to_wire_bytes(),
            Send::Interactive(run) => {
                let mut out = vec![0xAA];
                out.extend(run.request().to_wire_bytes());
                out
            }
        }
    }
}

/// One connection's (or one set-up phase's) endless request sequence.
pub trait Stream: std::marker::Send {
    fn next_item(&mut self) -> Item;
}

// ----------------------------------------------------------------------
// Matrices and the singularity oracle
// ----------------------------------------------------------------------

/// A `n × n` matrix of `k`-bit nonnegative entries, row-major.
#[derive(Clone, Debug)]
pub struct Entries {
    pub n: usize,
    pub k: u32,
    pub vals: Vec<u64>,
}

impl Entries {
    /// Uniform entries; `deficient` copies one column onto another, so
    /// the matrix has rank below `n`.
    fn random(rng: &mut Rng, n: usize, k: u32, deficient: bool) -> Entries {
        let mut vals: Vec<u64> = (0..n * n).map(|_| rng.bits(k)).collect();
        if deficient {
            let from = rng.below(n as u64) as usize;
            let to = (from + 1 + rng.below(n as u64 - 1) as usize) % n;
            for r in 0..n {
                vals[r * n + to] = vals[r * n + from];
            }
        }
        Entries { n, k, vals }
    }

    pub fn matrix(&self) -> Matrix<Integer> {
        Matrix::from_fn(self.n, self.n, |i, j| {
            Integer::from(self.vals[i * self.n + j])
        })
    }

    pub fn encode(&self) -> BitString {
        Singularity::new(self.n, self.k).enc.encode(&self.matrix())
    }

    pub fn request(&self) -> Request {
        Request::Singularity {
            dim: self.n,
            k: self.k,
            input: self.encode(),
        }
    }

    fn has_equal_columns(&self) -> bool {
        let n = self.n;
        (0..n).any(|a| {
            (a + 1..n).any(|b| (0..n).all(|r| self.vals[r * n + a] == self.vals[r * n + b]))
        })
    }
}

/// Exact singularity, by code independent of the server's CRT path.
/// Up to n = 8 this is Bareiss elimination. Above that Bareiss costs
/// 0.3–8 ms a matrix, more than the request it checks, so the verdict
/// comes from an exact certificate: two equal columns prove singular,
/// a nonzero determinant mod the prime 2^61 − 1 proves nonsingular,
/// and Bareiss settles whatever neither proves.
pub fn singular_oracle(e: &Entries) -> bool {
    if e.n <= 8 {
        return bareiss::is_singular(&e.matrix());
    }
    if e.has_equal_columns() {
        return true;
    }
    if det_mod_p(e) != 0 {
        return false;
    }
    bareiss::is_singular(&e.matrix())
}

const P61: u64 = (1 << 61) - 1;

fn mulmod(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(P61)) as u64
}

fn invmod(a: u64) -> u64 {
    let (mut base, mut exp, mut acc) = (a, P61 - 2, 1u64);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base);
        }
        base = mulmod(base, base);
        exp >>= 1;
    }
    acc
}

/// Determinant mod 2^61 − 1 by Gaussian elimination.
fn det_mod_p(e: &Entries) -> u64 {
    let n = e.n;
    let mut a: Vec<u64> = e.vals.iter().map(|v| v % P61).collect();
    let mut det = 1u64;
    for c in 0..n {
        let Some(p) = (c..n).find(|&r| a[r * n + c] != 0) else {
            return 0;
        };
        if p != c {
            for j in 0..n {
                a.swap(p * n + j, c * n + j);
            }
            det = (P61 - det) % P61;
        }
        let pivot = a[c * n + c];
        det = mulmod(det, pivot);
        let inv = invmod(pivot);
        for r in c + 1..n {
            let f = mulmod(a[r * n + c], inv);
            if f == 0 {
                continue;
            }
            for j in c..n {
                a[r * n + j] = (a[r * n + j] + P61 - mulmod(f, a[c * n + j])) % P61;
            }
        }
    }
    det
}

fn sing_label(n: usize, k: u32, deficient: bool) -> &'static str {
    const LABELS: [&str; 16] = [
        "n4.k8.full",
        "n4.k8.deficient",
        "n4.k32.full",
        "n4.k32.deficient",
        "n8.k8.full",
        "n8.k8.deficient",
        "n8.k32.full",
        "n8.k32.deficient",
        "n16.k8.full",
        "n16.k8.deficient",
        "n16.k32.full",
        "n16.k32.deficient",
        "n32.k8.full",
        "n32.k8.deficient",
        "n32.k32.full",
        "n32.k32.deficient",
    ];
    let ni = match n {
        4 => 0,
        8 => 1,
        16 => 2,
        _ => 3,
    };
    LABELS[ni * 4 + usize::from(k != 8) * 2 + usize::from(deficient)]
}

// ----------------------------------------------------------------------
// sing-stream
// ----------------------------------------------------------------------

/// Fresh matrices, a quarter of them rank-deficient, and about a
/// quarter of requests re-sending one of the stream's last 16 matrices.
pub struct SingStream {
    rng: Rng,
    count: u64,
    recent: VecDeque<(u64, &'static str, Request)>,
}

impl SingStream {
    fn new(seed: u64, conn: &str) -> SingStream {
        SingStream {
            rng: stream_rng(seed, "sing-stream", conn),
            count: 0,
            recent: VecDeque::with_capacity(SING_RECENT),
        }
    }
}

impl Stream for SingStream {
    fn next_item(&mut self) -> Item {
        let idx = self.count;
        self.count += 1;
        if !self.recent.is_empty() && self.rng.below(4) == 0 {
            let pick = self.rng.below(self.recent.len() as u64) as usize;
            let (of, label, req) = &self.recent[pick];
            return Item {
                class: Class::Hit,
                label,
                send: Send::Wire(req.clone()),
                expect: Expect::Repeat(*of),
            };
        }
        let n = self.rng.weighted(&SING_SIZES);
        let k = if self.rng.below(2) == 0 { 8 } else { 32 };
        let deficient = self.rng.below(4) == 0;
        let e = Entries::random(&mut self.rng, n, k, deficient);
        let req = e.request();
        let label = sing_label(n, k, deficient);
        if self.recent.len() == SING_RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back((idx, label, req.clone()));
        Item {
            class: Class::Miss,
            label,
            send: Send::Wire(req),
            expect: Expect::Matrix(e),
        }
    }
}

/// The store-populating phase of `sing-stream`: batches of small fresh
/// matrices, one certified verdict each.
struct PopulateStream {
    rng: Rng,
}

impl Stream for PopulateStream {
    fn next_item(&mut self) -> Item {
        let entries: Vec<Entries> = (0..POPULATE_BATCH)
            .map(|_| {
                let deficient = self.rng.below(4) == 0;
                Entries::random(&mut self.rng, 4, 8, deficient)
            })
            .collect();
        Item {
            class: Class::Setup,
            label: "populate",
            send: Send::Wire(Request::Batch(
                entries.iter().map(Entries::request).collect(),
            )),
            expect: Expect::SingBatch(entries),
        }
    }
}

// ----------------------------------------------------------------------
// cc-contend
// ----------------------------------------------------------------------

/// The BENCH_e20 hard families; both have CC = 5.
fn cc_family(which: usize) -> (TruthMatrix, &'static str) {
    if which == 0 {
        (
            TruthMatrix::from_fn(18, 18, |x, y| (x & y).count_ones() >= 2),
            "intersect18",
        )
    } else {
        (
            TruthMatrix::from_fn(16, 16, |x, y| (x + y) % 16 < 8),
            "shift16",
        )
    }
}

/// Weights of the two families among the searches.
const CC_FAMILY_WEIGHTS: [(usize, u64); 2] = [(0, 3), (1, 1)];

/// The cached small matrices and their known CC values.
fn cc_hit_set() -> Vec<(TruthMatrix, u32)> {
    vec![
        (TruthMatrix::from_fn(2, 2, |x, y| x == y), 2),
        (TruthMatrix::from_fn(4, 4, |x, y| x == y), 3),
        (TruthMatrix::from_fn(8, 8, |x, y| x == y), 4),
        (TruthMatrix::from_fn(8, 8, |x, y| x >= y), 4),
    ]
}

fn cc_request(t: &TruthMatrix) -> Request {
    Request::CcSearch {
        rows: t.rows(),
        cols: t.cols(),
        bits: BitString::from_bits(
            (0..t.rows())
                .flat_map(|x| (0..t.cols()).map(move |y| t.get(x, y)))
                .collect(),
        ),
        depth_limit: 32,
    }
}

/// The Theorem 1.1 package the server must return, computed here.
fn bounds_report(n: usize, k: u32, security: u32) -> BoundsReport {
    let p = Params::new(n, k);
    BoundsReport {
        n,
        k,
        security,
        lower_bound_bits: counting::theorem_bound(p).lower_bound_bits,
        deterministic_upper_bits: counting::deterministic_upper_bound_bits(p),
        randomized_upper_bits: counting::probabilistic_upper_bound_bits(p, security),
    }
}

fn bounds_item(class: Class, n: usize, k: u32) -> Item {
    Item {
        class,
        label: "bounds",
        send: Send::Wire(Request::Bounds { n, k, security: 20 }),
        expect: Expect::Bounds(bounds_report(n, k, 20)),
    }
}

/// Connection 1 of `cc-contend`: distinct row/column permutations of
/// the hard families, every one a cache miss.
pub struct SearchStream {
    rng: Rng,
    families: [(TruthMatrix, &'static str); 2],
}

impl Stream for SearchStream {
    fn next_item(&mut self) -> Item {
        let which = self.rng.weighted(&CC_FAMILY_WEIGHTS);
        let (base, label) = &self.families[which];
        let rows = self.rng.permutation(base.rows());
        let cols = self.rng.permutation(base.cols());
        let t = TruthMatrix::from_fn(base.rows(), base.cols(), |x, y| base.get(rows[x], cols[y]));
        Item {
            class: Class::Search,
            label,
            send: Send::Wire(cc_request(&t)),
            expect: Expect::Cc { cc: 5, t },
        }
    }
}

/// Connection 2 of `cc-contend`: half cached CC answers, half cached
/// bounds.
pub struct HitStream {
    rng: Rng,
    set: Vec<(TruthMatrix, u32)>,
}

impl Stream for HitStream {
    fn next_item(&mut self) -> Item {
        if self.rng.below(2) == 0 {
            let (t, cc) = &self.set[self.rng.below(self.set.len() as u64) as usize];
            Item {
                class: Class::Hit,
                label: "cc",
                send: Send::Wire(cc_request(t)),
                expect: Expect::Cc {
                    cc: *cc,
                    t: t.clone(),
                },
            }
        } else {
            let (n, k) = CC_BOUNDS_KEYS[self.rng.below(CC_BOUNDS_KEYS.len() as u64) as usize];
            bounds_item(Class::BoundsHit, n, k)
        }
    }
}

// ----------------------------------------------------------------------
// proto-live
// ----------------------------------------------------------------------

/// Connection 1 of `proto-live`: live runs cycling the three specs.
pub struct InteractiveStream {
    rng: Rng,
    count: usize,
}

impl Stream for InteractiveStream {
    fn next_item(&mut self) -> Item {
        let spec = PROTO_SPECS[self.count % PROTO_SPECS.len()];
        self.count += 1;
        let run = RunSpec::random(&mut self.rng, spec);
        Item {
            class: Class::Interactive,
            label: spec.name(),
            send: Send::Interactive(run.clone()),
            expect: Expect::Interactive(run),
        }
    }
}

/// Batches of server-side runs of mixed specs.
pub struct BatchStream {
    rng: Rng,
    size: usize,
    specs: &'static [ProtoSpec],
}

impl Stream for BatchStream {
    fn next_item(&mut self) -> Item {
        batch_item(&mut self.rng, self.size, self.specs)
    }
}

fn batch_item(rng: &mut Rng, size: usize, specs: &[ProtoSpec]) -> Item {
    let runs: Vec<RunSpec> = (0..size)
        .map(|i| RunSpec::random(rng, specs[i % specs.len()]))
        .collect();
    Item {
        class: Class::Batch,
        label: "batch",
        send: Send::Wire(Request::Batch(runs.iter().map(RunSpec::request).collect())),
        expect: Expect::Batch(runs),
    }
}

// ----------------------------------------------------------------------
// routed-mix
// ----------------------------------------------------------------------

/// The fixed `n = 4` singularity keys of `routed-mix`, and their
/// verdicts.
fn routed_sing_keys(seed: u64) -> Vec<(Request, bool)> {
    let mut rng = stream_rng(seed, "routed-mix", "keys");
    (0..ROUTED_SING_KEYS)
        .map(|i| {
            let e = Entries::random(&mut rng, 4, 8, i % 4 == 0);
            (e.request(), singular_oracle(&e))
        })
        .collect()
}

/// Both connections of `routed-mix`: four in ten requests a cached
/// bound, four in ten a cached singularity verdict, two in ten an
/// 8-run batch.
pub struct RoutedStream {
    rng: Rng,
    sing: Vec<(Request, bool)>,
}

impl Stream for RoutedStream {
    fn next_item(&mut self) -> Item {
        match self.rng.below(10) {
            0..=3 => {
                let (n, k) =
                    ROUTED_BOUNDS_KEYS[self.rng.below(ROUTED_BOUNDS_KEYS.len() as u64) as usize];
                bounds_item(Class::Single, n, k)
            }
            4..=7 => {
                let (req, singular) = &self.sing[self.rng.below(self.sing.len() as u64) as usize];
                Item {
                    class: Class::Single,
                    label: "sing",
                    send: Send::Wire(req.clone()),
                    expect: Expect::Singular(*singular),
                }
            }
            _ => batch_item(&mut self.rng, ROUTED_BATCH, &PROTO_SPECS[..2]),
        }
    }
}

// ----------------------------------------------------------------------
// Per-workload wiring
// ----------------------------------------------------------------------

/// The two connection streams of a workload.
pub fn conn_streams(workload: &str, seed: u64) -> [Box<dyn Stream>; 2] {
    match workload {
        "sing-stream" => [
            Box::new(SingStream::new(seed, "conn0")),
            Box::new(SingStream::new(seed, "conn1")),
        ],
        "cc-contend" => [
            Box::new(SearchStream {
                rng: stream_rng(seed, workload, "search"),
                families: [cc_family(0), cc_family(1)],
            }),
            Box::new(HitStream {
                rng: stream_rng(seed, workload, "hits"),
                set: cc_hit_set(),
            }),
        ],
        "proto-live" => [
            Box::new(InteractiveStream {
                rng: stream_rng(seed, workload, "interactive"),
                count: 0,
            }),
            Box::new(BatchStream {
                rng: stream_rng(seed, workload, "batch"),
                size: PROTO_BATCH,
                specs: &PROTO_SPECS,
            }),
        ],
        "routed-mix" => [
            Box::new(RoutedStream {
                rng: stream_rng(seed, workload, "conn0"),
                sing: routed_sing_keys(seed),
            }),
            Box::new(RoutedStream {
                rng: stream_rng(seed, workload, "conn1"),
                sing: routed_sing_keys(seed),
            }),
        ],
        other => panic!("unknown workload {other}"),
    }
}

/// Requests a workload sends during set-up, before any timing.
pub fn setup_items(workload: &str, seed: u64) -> Vec<Item> {
    match workload {
        "sing-stream" => {
            let mut s = PopulateStream {
                rng: stream_rng(seed, workload, "populate"),
            };
            (0..POPULATE_RECORDS / POPULATE_BATCH)
                .map(|_| s.next_item())
                .collect()
        }
        "cc-contend" => cc_hit_set()
            .into_iter()
            .map(|(t, cc)| Item {
                class: Class::Setup,
                label: "cc",
                send: Send::Wire(cc_request(&t)),
                expect: Expect::Cc { cc, t },
            })
            .chain(
                CC_BOUNDS_KEYS
                    .iter()
                    .map(|&(n, k)| bounds_item(Class::Setup, n, k)),
            )
            .collect(),
        "routed-mix" => ROUTED_BOUNDS_KEYS
            .iter()
            .map(|&(n, k)| bounds_item(Class::Setup, n, k))
            .chain(
                routed_sing_keys(seed)
                    .into_iter()
                    .map(|(req, singular)| Item {
                        class: Class::Setup,
                        label: "sing",
                        send: Send::Wire(req),
                        expect: Expect::Singular(singular),
                    }),
            )
            .collect(),
        _ => Vec::new(),
    }
}

/// Hash of a workload's request stream: every set-up request and the
/// first 256 requests of each connection. Independent of timing, so a
/// seed prints the same hash on every run.
pub fn stream_hash(workload: &str, seed: u64) -> u64 {
    let mut bytes = Vec::new();
    for item in setup_items(workload, seed) {
        bytes.extend(fnv64(&item.identity()).to_le_bytes());
    }
    for mut s in conn_streams(workload, seed) {
        for _ in 0..256 {
            bytes.extend(fnv64(&s.next_item().identity()).to_le_bytes());
        }
    }
    fnv64(&bytes)
}

// ----------------------------------------------------------------------
// Responses and the oracle check
// ----------------------------------------------------------------------

/// What came back, reduced to what the oracle compares.
#[derive(Clone, Debug)]
pub enum Got {
    Singular(bool),
    /// FNV-1a of the response payload, compared with the expected
    /// response's encoding.
    Digest(u64),
    Cc {
        cc: u32,
        exact: bool,
        cert: Vec<u8>,
    },
    /// A live run whose A and B transcripts and wire meter already
    /// agreed: its output.
    Run {
        output: bool,
    },
    Fail(String),
}

impl Got {
    pub fn from_payload(payload: &[u8]) -> Got {
        match Response::from_wire_bytes(payload) {
            Ok(Response::Singularity { singular }) => Got::Singular(singular),
            Ok(Response::CcSearch {
                cc,
                exact,
                certificate,
                ..
            }) => Got::Cc {
                cc,
                exact,
                cert: certificate,
            },
            Ok(Response::Error(msg)) => Got::Fail(format!("server error: {msg}")),
            Ok(_) => Got::Digest(fnv64(payload)),
            Err(e) => Got::Fail(format!("undecodable response: {e}")),
        }
    }
}

fn digest_of(resp: &Response) -> u64 {
    fnv64(&resp.to_wire_bytes())
}

/// Checks one stream's answers in order; remembers recent verdicts so
/// re-sent matrices are checked against their first answer's oracle.
#[derive(Default)]
pub struct Oracle {
    recent: VecDeque<(u64, bool)>,
    /// Protocol set-ups built so far, one per spec.
    labs: Vec<(ProtoSpec, LabSetup)>,
}

impl Oracle {
    fn lab(&mut self, spec: ProtoSpec) -> &LabSetup {
        let i = match self.labs.iter().position(|(s, _)| *s == spec) {
            Some(i) => i,
            None => {
                self.labs.push((spec, spec.build()));
                self.labs.len() - 1
            }
        };
        &self.labs[i].1
    }

    pub fn check(&mut self, idx: u64, expect: &Expect, got: &Got) -> Result<(), String> {
        if let Got::Fail(msg) = got {
            return Err(msg.clone());
        }
        match expect {
            Expect::Matrix(e) => {
                let want = singular_oracle(e);
                if self.recent.len() == 2 * SING_RECENT {
                    self.recent.pop_front();
                }
                self.recent.push_back((idx, want));
                expect_singular(want, got)
            }
            Expect::Repeat(of) => {
                let want = self
                    .recent
                    .iter()
                    .find(|(i, _)| i == of)
                    .map(|&(_, s)| s)
                    .ok_or_else(|| format!("re-sent request {of} has no recorded verdict"))?;
                expect_singular(want, got)
            }
            Expect::Singular(want) => expect_singular(*want, got),
            Expect::Cc { cc, t } => check_cc(*cc, t, got),
            Expect::Bounds(report) => expect_digest(&Response::Bounds(*report), got),
            Expect::Batch(runs) => {
                let want = runs
                    .iter()
                    .map(|run| Response::Run(run.local(self.lab(run.spec))))
                    .collect();
                expect_digest(&Response::Batch(want), got)
            }
            Expect::SingBatch(entries) => expect_digest(
                &Response::Batch(
                    entries
                        .iter()
                        .map(|e| Response::Singularity {
                            singular: singular_oracle(e),
                        })
                        .collect(),
                ),
                got,
            ),
            Expect::Interactive(run) => {
                let truth = self.lab(run.spec).function.eval(&run.input);
                match got {
                    Got::Run { output } if *output == truth => Ok(()),
                    Got::Run { output } => Err(format!(
                        "{} output {output}, function value {truth}",
                        run.spec.name()
                    )),
                    other => Err(format!(
                        "{}: expected a live run, got {other:?}",
                        run.spec.name()
                    )),
                }
            }
        }
    }
}

fn expect_singular(want: bool, got: &Got) -> Result<(), String> {
    match got {
        Got::Singular(s) if *s == want => Ok(()),
        other => Err(format!("singular = {want} expected, got {other:?}")),
    }
}

fn expect_digest(want: &Response, got: &Got) -> Result<(), String> {
    match got {
        Got::Digest(d) if *d == digest_of(want) => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn check_cc(want: u32, t: &TruthMatrix, got: &Got) -> Result<(), String> {
    let Got::Cc {
        cc, exact, cert, ..
    } = got
    else {
        return Err(format!("expected a CC answer, got {got:?}"));
    };
    if !*exact || *cc != want {
        return Err(format!(
            "CC = {want} (exact) expected, got {cc} (exact: {exact})"
        ));
    }
    let cert =
        CcCertificate::from_bytes(cert).map_err(|e| format!("undecodable certificate: {e}"))?;
    cert.verify()
        .map_err(|e| format!("certificate rejected: {e}"))?;
    if cert.cc != want {
        return Err(format!("certificate claims CC = {}", cert.cc));
    }
    if cert.matrix() != *t {
        return Err("certificate is for another matrix".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_bytes(workload: &str, seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = setup_items(workload, seed)
            .iter()
            .map(Item::identity)
            .collect();
        for mut s in conn_streams(workload, seed) {
            out.extend((0..n).map(|_| s.next_item().identity()));
        }
        out
    }

    #[test]
    fn one_seed_gives_the_same_bytes_twice() {
        for w in WORKLOADS {
            assert_eq!(first_bytes(w, 7, 200), first_bytes(w, 7, 200), "{w}");
            assert_eq!(stream_hash(w, 7), stream_hash(w, 7), "{w}");
        }
    }

    #[test]
    fn another_seed_gives_another_stream() {
        for w in WORKLOADS {
            assert_ne!(first_bytes(w, 7, 50), first_bytes(w, 8, 50), "{w}");
            assert_ne!(stream_hash(w, 7), stream_hash(w, 8), "{w}");
        }
    }

    #[test]
    fn singularity_oracle_matches_bareiss() {
        let mut rng = Rng::new(3);
        for &n in &[4usize, 8, 16] {
            for deficient in [false, true] {
                let e = Entries::random(&mut rng, n, 8, deficient);
                assert_eq!(singular_oracle(&e), bareiss::is_singular(&e.matrix()));
                assert_eq!(singular_oracle(&e), deficient, "n = {n}");
            }
        }
    }

    #[test]
    fn determinant_mod_p_matches_small_cases() {
        let e = Entries {
            n: 2,
            k: 8,
            vals: vec![3, 5, 2, 7],
        };
        assert_eq!(det_mod_p(&e), 11);
        let e = Entries {
            n: 2,
            k: 8,
            vals: vec![0, 1, 1, 0],
        };
        assert_eq!(det_mod_p(&e), P61 - 1);
    }
}
