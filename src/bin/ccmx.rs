//! `ccmx` — command-line front end for the reproduction.
//!
//! ```text
//! ccmx singular <rows>            decide singularity of a matrix, e.g. "1,2;3,4"
//! ccmx protocol <2n> <k> [--rand] run a metered protocol on a random instance
//! ccmx bounds <n> <k>             print the Theorem 1.1 / VLSI bound breakdown
//! ccmx construct <n> <k> [--complete]  generate a restricted instance (Fig. 1/3)
//! ccmx truth <2n> <k>             enumerate the π₀ truth matrix + certificates
//! ccmx cc <matrix: 0110;1001> [--threads T] [--no-memo] [--depth D] [--cert FILE]
//!                                 exact CC(f) by branch-and-bound, with an optional
//!                                 serialized optimal-protocol certificate
//! ccmx cc --verify FILE           re-verify a saved certificate, trust-free
//! ccmx serve <addr> [workers] [--store DIR]
//!                                 run the protocol-lab server (e.g. 127.0.0.1:7878);
//!                                 --store (or CCMX_STORE_DIR) persists certified
//!                                 results and warm-starts the caches on boot
//! ccmx shard <addr> [--name N] [--cache-cap C] [--workers W] [--idle-secs S]
//!                   [--store-root DIR]
//!                                 run one cluster shard (a named lab server); each
//!                                 shard logs under <root>/<name>
//! ccmx store stat|compact|verify <dir>
//!                                 inspect, compact, or (read-only) check a store
//!                                 directory — see docs/STORAGE.md for the format
//! ccmx coordinator <addr> --shard name=addr [--shard ...] [--replicas R] [--vnodes V]
//!                         [--idle-secs S]   run the shard router fronting a fleet
//! ccmx client <addr> <cmd> ...    talk to a server: ping | bounds <n> <k> | run <2n> <k> [--rand]
//!                                 | singular <rows> | batch <2n> <k> <count> | stats
//! ccmx chaos [--trials N] [--seed S] [--level quiet|moderate|aggressive] [--server]
//!                                 seeded fault-injection soak; exits non-zero on any
//!                                 metered-bit divergence
//! ```

use ccmx::core::{counting, lemma32, lemma35, Params, RestrictedInstance};
use ccmx::linalg::{bareiss, smith, Matrix};
use ccmx::net::chaos::render_report;
use ccmx::net::{
    chaos_soak, server_soak, BreakerConfig, BreakerState, ChaosLevel, Client, ProtoSpec,
    RetryClient, RetryPolicy, ServerConfig, TransportConfig,
};
use ccmx::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn net_fail(what: &str, err: ccmx::net::NetError) -> ! {
    eprintln!("ccmx: {what}: {err}");
    std::process::exit(1)
}

fn store_fail(dir: &std::path::Path, err: ccmx::store::StoreError) -> ! {
    eprintln!("ccmx: store at {}: {err}", dir.display());
    std::process::exit(1)
}

/// Default store directory: the `CCMX_STORE_DIR` environment variable,
/// overridable per command with `--store` / `--store-root`.
fn store_dir_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os("CCMX_STORE_DIR").map(std::path::PathBuf::from)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  ccmx singular <rows: a,b;c,d>\n  ccmx protocol <2n> <k> [--rand]\n  ccmx bounds <n> <k>\n  ccmx construct <n> <k> [--complete]\n  ccmx truth <2n> <k>\n  ccmx cc <matrix: 0110;1001> [--threads T] [--no-memo] [--depth D] [--cert FILE]\n  ccmx cc --verify FILE\n  ccmx serve <addr> [workers] [--store DIR]\n  ccmx shard <addr> [--name N] [--cache-cap C] [--workers W] [--store-root DIR]\n  ccmx store stat <dir>\n  ccmx store compact <dir>\n  ccmx store verify <dir>\n  ccmx coordinator <addr> --shard name=addr [--shard ...] [--replicas R] [--vnodes V]\n  ccmx client <addr> ping\n  ccmx client <addr> bounds <n> <k>\n  ccmx client <addr> run <2n> <k> [--rand]\n  ccmx client <addr> singular <rows: a,b;c,d>\n  ccmx client <addr> cc <matrix: 0110;1001> [--depth D]\n  ccmx client <addr> batch <2n> <k> <count>\n  ccmx client <addr> stats\n  ccmx chaos [--trials N] [--seed S] [--level quiet|moderate|aggressive] [--server]"
    );
    std::process::exit(2)
}

/// Parse a truth matrix written as rows of 0/1 digits, e.g. "0110;1001".
fn parse_truth(s: &str) -> ccmx::comm::truth::TruthMatrix {
    let rows: Vec<Vec<bool>> = s
        .split(';')
        .map(|row| {
            row.trim()
                .chars()
                .map(|ch| match ch {
                    '0' => false,
                    '1' => true,
                    other => panic!("bad truth entry {other:?} (want 0/1)"),
                })
                .collect()
        })
        .collect();
    let r = rows.len();
    let c = rows.first().map_or(0, |x| x.len());
    assert!(r > 0 && c > 0, "empty truth matrix");
    assert!(rows.iter().all(|x| x.len() == c), "ragged truth matrix");
    ccmx::comm::truth::TruthMatrix::from_fn(r, c, |x, y| rows[x][y])
}

fn parse_matrix(s: &str) -> Matrix<Integer> {
    let rows: Vec<Vec<Integer>> = s
        .split(';')
        .map(|row| {
            row.split(',')
                .map(|e| {
                    Integer::from_decimal_str(e.trim()).unwrap_or_else(|| panic!("bad entry {e:?}"))
                })
                .collect()
        })
        .collect();
    let r = rows.len();
    let c = rows.first().map_or(0, |x| x.len());
    assert!(rows.iter().all(|x| x.len() == c), "ragged matrix");
    Matrix::from_fn(r, c, |i, j| rows[i][j].clone())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("singular") => {
            let m = parse_matrix(args.get(1).unwrap_or_else(|| usage()));
            println!("matrix:\n{m}");
            let det = bareiss::det(&m);
            let s = smith::smith_normal_form(&m);
            println!("det        = {det}");
            println!("rank       = {}", bareiss::rank(&m));
            println!(
                "invariants = {:?}",
                s.invariant_factors()
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
            );
            println!("singular   = {}", det.is_zero());
        }
        Some("protocol") => {
            let dim: usize = args.get(1).unwrap_or_else(|| usage()).parse().expect("2n");
            let k: u32 = args.get(2).unwrap_or_else(|| usage()).parse().expect("k");
            let randomized = args.iter().any(|a| a == "--rand");
            let f = Singularity::new(dim, k);
            let enc = f.enc;
            let pi0 = Partition::pi_zero(&enc);
            let mut rng = StdRng::seed_from_u64(42);
            let m = Matrix::from_fn(dim, dim, |_, _| {
                Integer::from(rand::Rng::gen_range(&mut rng, 0..(1i64 << k)))
            });
            let input = enc.encode(&m);
            println!(
                "random {dim}x{dim} matrix of {k}-bit entries; input = {} bits",
                input.len()
            );
            let run = if randomized {
                let p = ModPrimeSingularity::new(dim, k, 20);
                println!(
                    "protocol: mod-random-prime (error ≤ {:.2e})",
                    p.error_bound()
                );
                run_mem_transport(&p, &pi0, &input, 1)
            } else {
                println!("protocol: deterministic send-all");
                run_mem_transport(&SendAll::new(f), &pi0, &input, 1)
            };
            println!(
                "output    = {} (exact: {})",
                run.output,
                bareiss::is_singular(&m)
            );
            println!(
                "cost      = {} bits over {} message(s)",
                run.cost_bits(),
                run.transcript.rounds()
            );
        }
        Some("bounds") => {
            let n: usize = args.get(1).unwrap_or_else(|| usage()).parse().expect("n");
            let k: u32 = args.get(2).unwrap_or_else(|| usage()).parse().expect("k");
            let p = Params::new(n, k);
            let b = counting::theorem_bound(p);
            println!("Theorem 1.1 at n = {n}, k = {k} (q = {}):", p.q_u64());
            println!(
                "  truth matrix     : q^{:.0} rows × q^{:.0} cols",
                b.rows_log_q, b.cols_log_q
            );
            println!("  ones (≥)         : q^{:.0}", b.ones_log_q);
            println!(
                "  max 1-rect area  : q^{:.0}",
                b.small_rect_area_log_q.max(b.large_rect_area_log_q)
            );
            println!("  d(f) (≥)         : q^{:.0}", b.d_log_q);
            println!("  lower bound      : {:.0} bits", b.lower_bound_bits);
            println!(
                "  upper bound      : {:.0} bits (send-all)",
                counting::deterministic_upper_bound_bits(p)
            );
            println!(
                "  randomized       : {:.0} bits (mod-prime, sec 20)",
                counting::probabilistic_upper_bound_bits(p, 20)
            );
            let v = VlsiBounds::for_singularity_asymptotic(n, k);
            println!(
                "  VLSI (I = k n²)  : AT² ≥ {:.3e}, AT ≥ {:.3e}, T ≥ {:.0}",
                v.at2, v.at, v.time_if_area_optimal
            );
        }
        Some("construct") => {
            let n: usize = args.get(1).unwrap_or_else(|| usage()).parse().expect("n");
            let k: u32 = args.get(2).unwrap_or_else(|| usage()).parse().expect("k");
            let p = Params::new(n, k);
            let mut rng = StdRng::seed_from_u64(7);
            let inst = if args.iter().any(|a| a == "--complete") {
                let free = RestrictedInstance::random(p, &mut rng);
                lemma35::complete(p, &free.c, &free.e).expect("Lemma 3.5")
            } else {
                RestrictedInstance::random(p, &mut rng)
            };
            println!("M ({0}x{0}):\n{1}", p.dim(), inst.assemble());
            println!("\nsingular        = {}", lemma32::m_is_singular(&inst));
            println!("B·u ∈ Span(A)   = {}", lemma32::bu_in_span_a(&inst));
        }
        Some("truth") => {
            let dim: usize = args.get(1).unwrap_or_else(|| usage()).parse().expect("2n");
            let k: u32 = args.get(2).unwrap_or_else(|| usage()).parse().expect("k");
            let f = Singularity::new(dim, k);
            let enc = f.enc;
            let pi0 = Partition::pi_zero(&enc);
            let t = ccmx::comm::truth::TruthMatrix::enumerate(&f, &pi0, 4);
            println!("truth matrix under π₀: {} × {}", t.rows(), t.cols());
            println!("ones            = {}", t.count_ones());
            println!("distinct rows   = {}", t.distinct_rows());
            let r = ccmx::comm::bounds::lower_bounds(&t);
            println!("rank GF(2)      = {}", r.rank_gf2);
            println!("rank GF(p)      = {}", r.rank_big_prime);
            println!("fooling set     = {}", r.fooling_set);
            println!(
                "lower bound     = {:.2} bits (Yao)",
                r.comm_lower_bound_bits
            );
            println!(
                "one-way bound   = {:.2} bits",
                ccmx::comm::bounds::one_way_lower_bound_bits(&t)
            );
        }
        Some("cc") => {
            // Trust-free certificate replay: decode, verify, report.
            if args.get(1).map(String::as_str) == Some("--verify") {
                let path = args.get(2).unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                let cert = ccmx::search::CcCertificate::from_hex(&text)
                    .unwrap_or_else(|e| panic!("bad certificate in {path}: {e}"));
                match cert.verify() {
                    Ok(()) => {
                        println!(
                            "certificate OK: {}x{} matrix, CC = {} ({} tree node(s))",
                            cert.rows,
                            cert.cols,
                            cert.cc,
                            cert.tree.node_count()
                        );
                    }
                    Err(e) => {
                        eprintln!("certificate REJECTED: {e}");
                        std::process::exit(1);
                    }
                }
                return;
            }
            let t = parse_truth(args.get(1).unwrap_or_else(|| usage()));
            let mut cfg = ccmx::search::SearchConfig::default();
            let mut cert_path: Option<String> = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--threads" => {
                        i += 1;
                        cfg.threads = args.get(i).unwrap_or_else(|| usage()).parse().expect("T");
                    }
                    "--no-memo" => cfg.use_memo = false,
                    "--depth" => {
                        i += 1;
                        cfg.depth_limit =
                            args.get(i).unwrap_or_else(|| usage()).parse().expect("D");
                    }
                    "--cert" => {
                        i += 1;
                        cert_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    _ => usage(),
                }
                i += 1;
            }
            let start = std::time::Instant::now();
            let r = ccmx::search::solve(&t, &cfg).unwrap_or_else(|e| panic!("cc search: {e}"));
            let elapsed = start.elapsed();
            println!("matrix          = {} × {}", t.rows(), t.cols());
            if r.exact {
                println!("CC(f)           = {} (exact)", r.cc);
            } else {
                println!(
                    "CC(f)           >= {} (depth budget {} hit)",
                    r.cc, cfg.depth_limit
                );
            }
            println!("nodes           = {}", r.stats.nodes);
            println!(
                "memo            = {} hit(s), {} miss(es), {} entr(ies)",
                r.stats.memo_hits, r.stats.memo_misses, r.stats.memo_entries
            );
            for (kind, count) in r.stats.prunes_by_certificate() {
                println!("prunes[{kind:<9}] = {count}");
            }
            println!("wall time       = {elapsed:.2?}");
            match (&cert_path, r.certificate) {
                (Some(path), Some(cert)) => {
                    cert.verify()
                        .expect("solver emitted an invalid certificate");
                    std::fs::write(path, cert.to_hex())
                        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                    println!("certificate     -> {path} (verified)");
                }
                (Some(_), None) => {
                    println!("certificate     = none (inexact result or witness too wide)");
                }
                (None, Some(cert)) => {
                    cert.verify()
                        .expect("solver emitted an invalid certificate");
                    println!(
                        "certificate     = {} tree node(s), verified (use --cert FILE to save)",
                        cert.tree.node_count()
                    );
                }
                (None, None) => {}
            }
            println!("-- search metrics --");
            for line in ccmx::obs::registry()
                .render()
                .lines()
                .filter(|l| l.starts_with("ccmx_search_"))
            {
                println!("{line}");
            }
        }
        Some("serve") => {
            let addr = args.get(1).unwrap_or_else(|| usage());
            let mut workers: usize = 4;
            let mut store_dir = store_dir_from_env();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--store" => {
                        i += 1;
                        store_dir = Some(std::path::PathBuf::from(
                            args.get(i).unwrap_or_else(|| usage()),
                        ));
                    }
                    w => workers = w.parse().expect("workers"),
                }
                i += 1;
            }
            let config = ServerConfig {
                workers,
                store_dir: store_dir.clone(),
                ..ServerConfig::default()
            };
            let handle = ccmx::net::serve(addr, config)
                .unwrap_or_else(|e| net_fail(&format!("cannot bind {addr}"), e.into()));
            println!(
                "ccmx protocol-lab server on {} ({} workers)",
                handle.addr(),
                workers
            );
            match handle.store_stat() {
                Some(stat) => println!(
                    "persistent store at {} (warm: {} records over {} segments)",
                    stat.dir.display(),
                    stat.live_records,
                    stat.segments
                ),
                None if store_dir.is_some() => {
                    println!("persistent store unavailable; serving cold")
                }
                None => {}
            }
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                let s = handle.stats();
                println!(
                    "served {} requests over {} connections ({} interactive runs, {} dropped)",
                    s.requests_served,
                    s.connections_accepted,
                    s.interactive_runs,
                    s.connections_dropped
                );
            }
        }
        Some("shard") => {
            let addr = args.get(1).unwrap_or_else(|| usage());
            let mut config = ccmx::cluster::ShardConfig::named("shard-0");
            config.store_root = store_dir_from_env();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--name" => {
                        i += 1;
                        config.name = args.get(i).unwrap_or_else(|| usage()).clone();
                    }
                    "--cache-cap" => {
                        i += 1;
                        config.cache_capacity =
                            args.get(i).unwrap_or_else(|| usage()).parse().expect("C");
                    }
                    "--workers" => {
                        i += 1;
                        config.workers = args.get(i).unwrap_or_else(|| usage()).parse().expect("W");
                    }
                    "--idle-secs" => {
                        i += 1;
                        let secs: u64 = args.get(i).unwrap_or_else(|| usage()).parse().expect("S");
                        config.server.read_timeout = std::time::Duration::from_secs(secs.max(1));
                    }
                    "--store-root" => {
                        i += 1;
                        config.store_root = Some(std::path::PathBuf::from(
                            args.get(i).unwrap_or_else(|| usage()),
                        ));
                    }
                    _ => usage(),
                }
                i += 1;
            }
            let name = config.name.clone();
            let (cache, workers) = (config.cache_capacity, config.workers);
            let handle = ccmx::cluster::serve_shard(addr, config)
                .unwrap_or_else(|e| net_fail(&format!("cannot bind {addr}"), e.into()));
            println!(
                "ccmx shard {name} on {} (cache {cache}, {workers} workers)",
                handle.addr()
            );
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                let s = handle.stats();
                println!(
                    "shard {name}: served {} requests over {} connections ({} shed)",
                    s.requests_served, s.connections_accepted, s.requests_shed
                );
            }
        }
        Some("coordinator") => {
            let addr = args.get(1).unwrap_or_else(|| usage());
            let mut cluster = ccmx::cluster::ClusterConfig::default();
            let mut server = ServerConfig::default();
            let mut shards = Vec::new();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--shard" => {
                        i += 1;
                        let spec = args.get(i).unwrap_or_else(|| usage());
                        shards.push(ccmx::cluster::ShardSpec::parse(spec).unwrap_or_else(|| {
                            eprintln!("ccmx: bad --shard {spec:?} (want name=addr)");
                            std::process::exit(2)
                        }));
                    }
                    "--replicas" => {
                        i += 1;
                        cluster.replicas =
                            args.get(i).unwrap_or_else(|| usage()).parse().expect("R");
                    }
                    "--vnodes" => {
                        i += 1;
                        cluster.vnodes_per_shard =
                            args.get(i).unwrap_or_else(|| usage()).parse().expect("V");
                    }
                    "--idle-secs" => {
                        i += 1;
                        let secs: u64 = args.get(i).unwrap_or_else(|| usage()).parse().expect("S");
                        server.read_timeout = std::time::Duration::from_secs(secs.max(1));
                    }
                    _ => usage(),
                }
                i += 1;
            }
            if shards.is_empty() {
                eprintln!("ccmx: a coordinator needs at least one --shard name=addr");
                std::process::exit(2)
            }
            let names: Vec<String> = shards.iter().map(|s| s.name.clone()).collect();
            let coordinator =
                std::sync::Arc::new(ccmx::cluster::Coordinator::over_tcp(cluster, shards));
            let handle =
                ccmx::cluster::serve_coordinator(addr, server, std::sync::Arc::clone(&coordinator))
                    .unwrap_or_else(|e| net_fail(&format!("cannot bind {addr}"), e.into()));
            println!(
                "ccmx coordinator on {} fronting {} shard(s): {}",
                handle.addr(),
                names.len(),
                names.join(", ")
            );
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                let s = handle.stats();
                println!(
                    "coordinator: routed {} requests over {} connections ({} shed at ingress)",
                    s.requests_served, s.connections_accepted, s.requests_shed
                );
            }
        }
        Some("client") => {
            let addr = args.get(1).unwrap_or_else(|| usage());
            let mut client = Client::connect(addr, TransportConfig::default())
                .unwrap_or_else(|e| net_fail(&format!("cannot connect to {addr}"), e));
            match args.get(2).map(String::as_str) {
                Some("ping") => {
                    client.ping().unwrap_or_else(|e| net_fail("ping failed", e));
                    println!("pong from {addr}");
                }
                Some("bounds") => {
                    let n: usize = args.get(3).unwrap_or_else(|| usage()).parse().expect("n");
                    let k: u32 = args.get(4).unwrap_or_else(|| usage()).parse().expect("k");
                    let b = client
                        .bounds(n, k, 20)
                        .unwrap_or_else(|e| net_fail("bounds request failed", e));
                    println!("Theorem 1.1 at n = {n}, k = {k} (served remotely):");
                    println!("  lower bound      : {:.0} bits", b.lower_bound_bits);
                    println!(
                        "  upper bound      : {:.0} bits (send-all)",
                        b.deterministic_upper_bits
                    );
                    println!(
                        "  randomized       : {:.0} bits (mod-prime, sec {})",
                        b.randomized_upper_bits, b.security
                    );
                }
                Some("stats") | Some("--stats") => {
                    let text = client
                        .metrics()
                        .unwrap_or_else(|e| net_fail("metrics request failed", e));
                    print!("{text}");
                }
                Some("singular") => {
                    let m = parse_matrix(args.get(3).unwrap_or_else(|| usage()));
                    let dim = m.rows();
                    assert_eq!(dim, m.cols(), "singularity needs a square matrix");
                    // Smallest encoding width that fits every entry
                    // (entries must be nonnegative k-bit integers).
                    let k = (0..dim)
                        .flat_map(|i| (0..dim).map(move |j| (i, j)))
                        .map(|(i, j)| {
                            let e = &m[(i, j)];
                            assert!(!e.is_negative(), "encoded entries must be nonnegative");
                            e.bit_len() as u32
                        })
                        .max()
                        .unwrap_or(1)
                        .max(1);
                    let enc = MatrixEncoding::new(dim, k);
                    let singular = client
                        .singularity(dim, k, &enc.encode(&m))
                        .unwrap_or_else(|e| net_fail("singularity request failed", e));
                    println!("matrix:\n{m}");
                    println!("singular  = {singular} (decided remotely, k = {k})");
                }
                Some("cc") => {
                    let t = parse_truth(args.get(3).unwrap_or_else(|| usage()));
                    let mut depth = 32u32;
                    let mut i = 4;
                    while i < args.len() {
                        match args[i].as_str() {
                            "--depth" => {
                                i += 1;
                                depth = args.get(i).unwrap_or_else(|| usage()).parse().expect("D");
                            }
                            _ => usage(),
                        }
                        i += 1;
                    }
                    let tr = &t;
                    let bits = ccmx::comm::BitString::from_bits(
                        (0..tr.rows())
                            .flat_map(|x| (0..tr.cols()).map(move |y| tr.get(x, y)))
                            .collect(),
                    );
                    let (cc, exact, nodes, certificate) = client
                        .cc_search(t.rows(), t.cols(), &bits, depth)
                        .unwrap_or_else(|e| net_fail("cc-search request failed", e));
                    if exact {
                        println!("CC(f)     = {cc} (exact, decided remotely)");
                    } else {
                        println!("CC(f)     >= {cc} (remote depth budget {depth} hit)");
                    }
                    println!("nodes     = {nodes} (0 = server cache hit)");
                    if certificate.is_empty() {
                        println!("witness   = none");
                    } else {
                        // Verify locally: the whole point of the
                        // certificate is not having to trust the server.
                        let cert = ccmx::search::CcCertificate::from_bytes(&certificate)
                            .expect("server sent an undecodable certificate");
                        cert.verify()
                            .expect("server certificate failed verification");
                        assert_eq!(cert.cc, cc, "certificate claims a different CC");
                        println!(
                            "witness   = {} tree node(s), verified locally",
                            cert.tree.node_count()
                        );
                    }
                }
                Some("batch") => {
                    let dim: usize = args.get(3).unwrap_or_else(|| usage()).parse().expect("2n");
                    let k: u32 = args.get(4).unwrap_or_else(|| usage()).parse().expect("k");
                    let count: usize = args
                        .get(5)
                        .unwrap_or_else(|| usage())
                        .parse()
                        .expect("count");
                    let enc = MatrixEncoding::new(dim, k);
                    let mut rng = StdRng::seed_from_u64(42);
                    // Alternate the two singularity protocols so the
                    // server's batch planner sees several distinct spec
                    // groups and fans them out over its worker pool.
                    let reqs: Vec<ccmx::net::Request> = (0..count)
                        .map(|i| {
                            let m = Matrix::from_fn(dim, dim, |_, _| {
                                Integer::from(rand::Rng::gen_range(&mut rng, 0..(1i64 << k)))
                            });
                            let spec = if i % 2 == 0 {
                                ProtoSpec::SendAllSingularity { dim, k }
                            } else {
                                ProtoSpec::ModPrimeSingularity {
                                    dim,
                                    k,
                                    security: 20,
                                }
                            };
                            ccmx::net::Request::Run {
                                spec,
                                input: enc.encode(&m),
                                seed: i as u64,
                            }
                        })
                        .collect();
                    let resps = client
                        .batch(reqs)
                        .unwrap_or_else(|e| net_fail("batch request failed", e));
                    let mut singular = 0usize;
                    let mut bits = 0usize;
                    for (i, r) in resps.iter().enumerate() {
                        match r {
                            ccmx::net::Response::Run(run) => {
                                if run.output {
                                    singular += 1;
                                }
                                bits += run.cost_bits();
                            }
                            other => panic!("batch slot {i}: unexpected response {other:?}"),
                        }
                    }
                    println!(
                        "batch of {count} runs ({dim}x{dim}, {k}-bit entries): \
                         {singular} singular, {bits} protocol bits total"
                    );
                }
                Some("run") => {
                    let dim: usize = args.get(3).unwrap_or_else(|| usage()).parse().expect("2n");
                    let k: u32 = args.get(4).unwrap_or_else(|| usage()).parse().expect("k");
                    let spec = if args.iter().any(|a| a == "--rand") {
                        ProtoSpec::ModPrimeSingularity {
                            dim,
                            k,
                            security: 20,
                        }
                    } else {
                        ProtoSpec::SendAllSingularity { dim, k }
                    };
                    let enc = MatrixEncoding::new(dim, k);
                    let mut rng = StdRng::seed_from_u64(42);
                    let m = Matrix::from_fn(dim, dim, |_, _| {
                        Integer::from(rand::Rng::gen_range(&mut rng, 0..(1i64 << k)))
                    });
                    let input = enc.encode(&m);
                    println!(
                        "running {} interactively: client = agent A, server = agent B",
                        spec.name()
                    );
                    let (mine, theirs, stats) = client
                        .run_interactive(spec, &input, 1)
                        .unwrap_or_else(|e| net_fail("interactive run failed", e));
                    assert_eq!(mine, theirs, "client and server transcripts diverged");
                    println!(
                        "output    = {} (exact: {})",
                        mine.output,
                        bareiss::is_singular(&m)
                    );
                    println!(
                        "cost      = {} bits over {} message(s); wire metered {} bits",
                        mine.cost_bits(),
                        mine.transcript.rounds(),
                        stats.bits_total()
                    );
                    assert_eq!(stats.bits_total(), mine.cost_bits(), "wire meter diverged");
                }
                _ => usage(),
            }
        }
        Some("chaos") => {
            let mut trials = 8usize;
            let mut seed = 0xC4A05u64;
            let mut level = ChaosLevel::Aggressive;
            let mut with_server = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--trials" => {
                        i += 1;
                        trials = args.get(i).unwrap_or_else(|| usage()).parse().expect("N");
                    }
                    "--seed" => {
                        i += 1;
                        seed = args.get(i).unwrap_or_else(|| usage()).parse().expect("S");
                    }
                    "--level" => {
                        i += 1;
                        level = ChaosLevel::parse(args.get(i).unwrap_or_else(|| usage()))
                            .unwrap_or_else(|| usage());
                    }
                    "--server" => with_server = true,
                    _ => usage(),
                }
                i += 1;
            }
            let specs = [
                ProtoSpec::FingerprintEquality {
                    half_bits: 24,
                    security: 20,
                },
                ProtoSpec::SendAllSingularity { dim: 2, k: 3 },
                ProtoSpec::ModPrimeSingularity {
                    dim: 2,
                    k: 4,
                    security: 16,
                },
            ];
            println!("chaos soak: {trials} trial(s)/spec, seed {seed}, level {level:?}");
            let mut all_passed = true;
            for spec in specs {
                let report = chaos_soak(spec, trials, seed, level);
                println!("  {}", render_report(&report));
                all_passed &= report.passed();
            }
            if with_server {
                // The live stack: a real server, concurrent clients, and
                // the zero-divergence verdict measured end to end.
                let server = ccmx::net::serve("127.0.0.1:0", ServerConfig::default())
                    .unwrap_or_else(|e| net_fail("cannot bind chaos server", e.into()));
                let report = server_soak(
                    &server.addr().to_string(),
                    ProtoSpec::ModPrimeSingularity {
                        dim: 2,
                        k: 4,
                        security: 16,
                    },
                    4,
                    trials.max(1),
                    seed,
                );
                println!("  server: {}", render_report(&report));
                all_passed &= report.passed();
                server.shutdown();

                // Breaker drill: hammer a dead port until the per-peer
                // circuit breaker trips, so its transitions land in the
                // metrics registry alongside the soak counters.
                let dead = {
                    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
                    l.local_addr().expect("port addr").to_string()
                };
                let mut rc = RetryClient::new(
                    &dead,
                    TransportConfig::default(),
                    RetryPolicy {
                        max_attempts: 3,
                        base_backoff: std::time::Duration::from_millis(1),
                        max_backoff: std::time::Duration::from_millis(5),
                        jitter_seed: seed,
                    },
                    BreakerConfig::default(),
                );
                let _ = rc.ping();
                println!(
                    "  breaker drill: peer {} is {:?} after {} transition(s)",
                    dead,
                    rc.breaker().state(),
                    rc.breaker().transitions()
                );
                all_passed &= rc.breaker().state() == BreakerState::Open;
            }
            let metrics = ccmx::obs::registry().render();
            println!("-- chaos metrics --");
            for line in metrics.lines().filter(|l| {
                l.starts_with("ccmx_fault_")
                    || l.starts_with("ccmx_retry_")
                    || l.starts_with("ccmx_breaker_")
            }) {
                println!("{line}");
            }
            if all_passed {
                println!("chaos verdict: PASS (zero metered-bit divergence)");
            } else {
                eprintln!("chaos verdict: FAIL");
                std::process::exit(1);
            }
        }
        Some("store") => {
            let verb = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let dir = std::path::PathBuf::from(args.get(2).unwrap_or_else(|| usage()));
            match verb {
                "stat" => {
                    let store = ccmx::store::Store::open(ccmx::store::StoreConfig::new(&dir))
                        .unwrap_or_else(|e| store_fail(&dir, e));
                    let rec = store.recovery();
                    if !rec.clean() {
                        println!(
                            "recovery: {} issue(s), {} byte(s) truncated, {} segment(s) quarantined",
                            rec.issues.len(),
                            rec.truncated_bytes,
                            rec.quarantined_segments
                        );
                        for issue in &rec.issues {
                            println!("  seg {} @{}: {}", issue.segment, issue.offset, issue.kind);
                        }
                    }
                    let stat = store.stat();
                    println!(
                        "{}: {} live record(s) in {} segment(s), {} live / {} dead byte(s), next seqno {}",
                        stat.dir.display(),
                        stat.live_records,
                        stat.segments,
                        stat.live_bytes,
                        stat.dead_bytes,
                        stat.next_seqno
                    );
                    for (keyspace, count) in &stat.per_keyspace {
                        println!("  {keyspace}: {count} record(s)");
                    }
                }
                "compact" => {
                    let mut store = ccmx::store::Store::open(ccmx::store::StoreConfig::new(&dir))
                        .unwrap_or_else(|e| store_fail(&dir, e));
                    let report = store.compact().unwrap_or_else(|e| store_fail(&dir, e));
                    println!(
                        "compacted {} -> {} segment(s): {} live record(s) kept, {} byte(s) reclaimed, {} v1 record(s) migrated",
                        report.segments_before,
                        report.segments_after,
                        report.live_records,
                        report.reclaimed_bytes,
                        report.migrated_v1
                    );
                }
                "verify" => {
                    // Read-only: inspects the files without opening (and
                    // therefore without repairing) the store.
                    let report = ccmx::store::Store::verify_dir(&dir)
                        .unwrap_or_else(|e| store_fail(&dir, e));
                    for (id, records, bytes, status) in &report.segments {
                        println!("seg {id:012}: {records} record(s), {bytes} byte(s), {status}");
                    }
                    if report.quarantined > 0 {
                        println!("{} quarantined segment file(s)", report.quarantined);
                    }
                    if report.ok {
                        println!("verify: OK ({} record(s))", report.records);
                    } else {
                        eprintln!("verify: FAIL — a reopen would repair (truncate/quarantine)");
                        std::process::exit(1);
                    }
                }
                _ => usage(),
            }
        }
        _ => usage(),
    }
}
