//! E18: the sharded cluster measured as a system, against *separate*
//! shard and coordinator processes (the sibling `ccmx` binary must be
//! built): a 10k-connection concurrency wave against the coordinator's
//! evented engine; the cache-partition scaling sweep — one working set
//! of expensive bounds keys cycled through 2/4/8 shards whose per-shard
//! LRU only fits part of it, so aggregate cache capacity (not CPU) is
//! what added shards buy; and an in-process chaos-soaked resharding run
//! whose metered-bit divergence must be zero.

use std::time::Instant;

use ccmx_cluster::{cluster_soak, SoakConfig};
use ccmx_net::{ChaosLevel, Client, TransportConfig};

use super::{push_rows, ratio, Check, Outcome};

/// A spawned `ccmx shard`/`ccmx coordinator` child. Killed on drop so a
/// panicking phase never leaks listeners.
struct LabProc {
    child: std::process::Child,
    /// Kept open: dropping the pipe would EPIPE the child's next
    /// heartbeat println and kill it early.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Drop for LabProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn the sibling `ccmx` binary with `args` and parse the bound
/// address from its first stdout line (`... on <addr> ...`).
fn spawn_lab(args: &[String]) -> LabProc {
    use std::io::BufRead;
    let bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name("ccmx");
    assert!(
        bin.exists(),
        "{} not found — build it first (cargo build --release)",
        bin.display()
    );
    let mut child = std::process::Command::new(&bin)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("child banner");
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in child banner {line:?}"))
        .to_string();
    LabProc {
        child,
        _stdout: stdout,
        addr,
    }
}

/// Boot `shards` shard processes plus a coordinator fronting them.
/// Returns `(coordinator, shard procs)` — drop order doesn't matter,
/// every child dies with its guard.
fn spawn_cluster(shards: usize, cache_cap: usize, tag: &str) -> (LabProc, Vec<LabProc>) {
    let mut procs = Vec::new();
    let mut spec_args = Vec::new();
    for i in 0..shards {
        let name = format!("e18-{tag}-s{i}");
        let p = spawn_lab(&[
            "shard".into(),
            "127.0.0.1:0".into(),
            "--name".into(),
            name.clone(),
            "--cache-cap".into(),
            cache_cap.to_string(),
            "--workers".into(),
            "2".into(),
            "--idle-secs".into(),
            "120".into(),
        ]);
        spec_args.push("--shard".to_string());
        spec_args.push(format!("{name}={}", p.addr));
        procs.push(p);
    }
    let mut args = vec!["coordinator".to_string(), "127.0.0.1:0".to_string()];
    args.extend(spec_args);
    args.extend(["--idle-secs".to_string(), "120".to_string()]);
    let coordinator = spawn_lab(&args);
    (coordinator, procs)
}

/// The 10k-client wave: open `clients` real TCP connections to the
/// coordinator, one pipelined `Ping` each, all sockets held open until
/// every response has arrived — a single readiness loop on the server
/// side is carrying every one of them.
fn concurrency_wave(addr: &str, clients: usize) -> (f64, usize, usize) {
    use ccmx_net::wire::{encode_frame, HEADER_BYTES, KIND_REQUEST};
    use ccmx_net::{Request, Response, WireCodec};
    use polling::{poll_fds, PollFd, POLLIN};
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    struct Wave {
        stream: std::net::TcpStream,
        buf: Vec<u8>,
        done: bool,
    }

    let ping = encode_frame(KIND_REQUEST, &Request::Ping.to_wire_bytes()).expect("ping frame");
    let mut conns: Vec<Wave> = Vec::with_capacity(clients);
    let mut ok = 0usize;
    let mut shed = 0usize;
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs(120);

    let drain = |conns: &mut Vec<Wave>, ok: &mut usize, shed: &mut usize, wait_ms: i32| {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (i, c) in conns.iter().enumerate() {
            if !c.done {
                fds.push(PollFd::new(c.stream.as_raw_fd(), POLLIN));
                owners.push(i);
            }
        }
        if fds.is_empty() {
            return;
        }
        let n = poll_fds(&mut fds, wait_ms).expect("poll");
        if n == 0 {
            return;
        }
        let mut chunk = [0u8; 4096];
        for (fd, &i) in fds.iter().zip(&owners) {
            if !fd.readable() && !fd.broken() {
                continue;
            }
            let c = &mut conns[i];
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Closed without a full response (reset or
                        // server-side eviction): still an outcome.
                        c.done = true;
                        *shed += 1;
                        break;
                    }
                    Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        c.done = true;
                        *shed += 1;
                        break;
                    }
                }
                if c.buf.len() >= HEADER_BYTES {
                    let len = u32::from_le_bytes([c.buf[2], c.buf[3], c.buf[4], c.buf[5]]) as usize;
                    if c.buf.len() >= HEADER_BYTES + len {
                        match Response::from_wire_bytes(&c.buf[HEADER_BYTES..HEADER_BYTES + len]) {
                            Ok(Response::Pong) => *ok += 1,
                            _ => *shed += 1,
                        }
                        c.done = true;
                        break;
                    }
                }
            }
        }
    };

    // Ramp in batches so the accept queue and the pending-request meter
    // never see more than a batch of simultaneous arrivals.
    const BATCH: usize = 256;
    while conns.len() < clients {
        let batch = BATCH.min(clients - conns.len());
        for _ in 0..batch {
            let stream = std::net::TcpStream::connect(addr).expect("wave connect");
            stream.set_nodelay(true).ok();
            let mut c = Wave {
                stream,
                buf: Vec::new(),
                done: false,
            };
            c.stream.write_all(&ping).expect("wave ping");
            c.stream.set_nonblocking(true).expect("nonblocking");
            conns.push(c);
        }
        drain(&mut conns, &mut ok, &mut shed, 0);
    }
    while conns.iter().any(|c| !c.done) && Instant::now() < deadline {
        drain(&mut conns, &mut ok, &mut shed, 100);
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, ok, shed)
}

pub(super) fn run(quick: bool) -> Outcome {
    let clients: usize = if quick { 1_000 } else { 10_240 };
    // The scaling working set: `keys` distinct bounds requests whose
    // window selection costs milliseconds each (large n), against a
    // per-shard cache that holds only part of them. 2 shards thrash
    // (the cyclic scan re-evicts every key before its next visit),
    // 4+ shards hold the whole set.
    let keys: usize = if quick { 96 } else { 1_024 };
    let cache_cap = keys / 4 * 3 / 2; // 3/8 of the set: < keys/2, > keys/4
    let key_of = |i: usize| -> (usize, u32) {
        let span = keys / 2;
        let n = if quick { 201 } else { 801 } + 2 * (i % span);
        let k = 32 + (i / span) as u32;
        (n, k)
    };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let passes = 2usize;
    let mut rows: Vec<String> = Vec::new();

    // Phase A: the concurrency wave against a 2-shard cluster.
    let (coord, shards) = spawn_cluster(2, 64, "wave");
    let (wave_s, wave_ok, wave_other) = concurrency_wave(&coord.addr, clients);
    drop(shards);
    drop(coord);
    assert_eq!(
        wave_ok + wave_other,
        clients,
        "every wave client must get an answer"
    );
    let wave_rps = clients as f64 / wave_s;
    rows.push(format!(
        "{{\"workload\": \"concurrency_wave\", \"clients\": {clients}, \"pong\": {wave_ok}, \"other\": {wave_other}, \"secs\": {wave_s:.2}, \"pings_per_sec\": {wave_rps:.0}}}"
    ));

    // Phase B: cache-partition scaling. Same working set, same single
    // driver, only the shard count changes.
    let mut runs_per_sec: Vec<(usize, f64)> = Vec::new();
    for &s in shard_counts {
        let (coord, shard_procs) = spawn_cluster(s, cache_cap, &format!("x{s}"));
        let mut client =
            Client::connect(coord.addr.as_str(), TransportConfig::default()).expect("connect");
        // Warm pass (untimed): populate whatever fits.
        for i in 0..keys {
            let (n, k) = key_of(i);
            client.bounds(n, k, 64).expect("warm bounds");
        }
        let start = Instant::now();
        for _ in 0..passes {
            for i in 0..keys {
                let (n, k) = key_of(i);
                client.bounds(n, k, 64).expect("timed bounds");
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let rps = (passes * keys) as f64 / secs;
        runs_per_sec.push((s, rps));
        rows.push(format!(
            "{{\"workload\": \"cache_partition_scan\", \"shards\": {s}, \"distinct_keys\": {keys}, \"per_shard_cache\": {cache_cap}, \"requests\": {}, \"secs\": {secs:.2}, \"runs_per_sec\": {rps:.1}}}",
            passes * keys
        ));
        drop(client);
        drop(shard_procs);
        drop(coord);
    }
    let rps_of = |s: usize| {
        runs_per_sec
            .iter()
            .find(|(n, _)| *n == s)
            .map_or(0.0, |(_, r)| *r)
    };
    let scaling_2_to_4 = ratio(rps_of(4), rps_of(2));

    // Phase C: in-process chaos-soaked resharding run — the integrity
    // verdict. Aggressive faults on every coordinator↔shard link, a
    // join at 1/3 and a leave at 2/3, every answer checked bit-for-bit.
    let soak = cluster_soak(SoakConfig {
        shards: 3,
        requests: if quick { 24 } else { 60 },
        seed: 18,
        level: ChaosLevel::Aggressive,
        reshard: true,
        kill: false,
    });
    assert!(soak.resharded, "the soak must join and leave mid-run");
    rows.push(format!(
        "{{\"workload\": \"chaos_reshard_soak\", \"shards\": {}, \"requests\": {}, \"answered\": {}, \"diverged\": {}, \"failovers\": {}, \"resharded\": {}}}",
        soak.shards_initial, soak.requests, soak.answered, soak.diverged, soak.failovers, soak.resharded
    ));

    let mut body = String::new();
    out!(body, "  \"concurrent_clients\": {clients},");
    out!(body, "  \"wave_pings_per_sec\": {wave_rps:.0},");
    for (s, rps) in &runs_per_sec {
        out!(body, "  \"runs_per_sec_{s}_shards\": {rps:.1},");
    }
    out!(body, "  \"scaling_2_to_4\": {scaling_2_to_4:.2},");
    if shard_counts.contains(&8) {
        out!(
            body,
            "  \"scaling_4_to_8\": {:.2},",
            ratio(rps_of(8), rps_of(4))
        );
    }
    out!(body, "  \"soak_errors\": {},", soak.errors);
    push_rows(&mut body, "results", &rows);
    Outcome {
        body,
        checks: vec![
            Check::holds("zero_bit_divergence", soak.zero_bit_divergence),
            Check::at_least("scaling_2_to_4", scaling_2_to_4, 1.6).full_runs_only(),
        ],
    }
}
