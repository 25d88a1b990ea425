//! The four workloads end to end: set-up (repeated, for the set-up
//! time), the timed window on two connections, and the answer check.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ccmx_net::{Request, WireCodec};

use crate::fleet::{self, Proc, Scrape};
use crate::gen::{self, Class, Item, Oracle, Send};
use crate::load::{self, Clock, Rec};

/// Open-loop rate of the `cc-contend` hit connection, per second.
pub const HIT_RATE: f64 = 50.0;
/// How long the open loop waits for late answers after its window.
const HIT_GRACE: Duration = Duration::from_secs(3);

/// The servers of one workload; dropping it stops every process.
pub struct Fleet {
    /// The entry process (the one clients talk to) comes last.
    pub procs: Vec<Proc>,
    pub store_dir: Option<PathBuf>,
}

impl Fleet {
    pub fn entry(&self) -> &str {
        &self.procs.last().expect("a fleet has a process").addr
    }

    pub fn scrape(&self) -> Result<Vec<Scrape>, String> {
        self.procs.iter().map(|p| Scrape::fetch(&p.addr)).collect()
    }

    /// Peak RSS summed over every server process, in MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        let mut total = 0;
        for p in &self.procs {
            total += p.peak_rss()?;
        }
        Ok(total as f64 / 1e6)
    }

    pub fn cmdlines(&self) -> Vec<String> {
        self.procs.iter().map(|p| p.cmdline.clone()).collect()
    }
}

fn serve_args(store: Option<&Path>) -> Vec<String> {
    let mut args = vec!["serve".to_string(), "127.0.0.1:0".to_string()];
    if let Some(dir) = store {
        args.push("--store".into());
        args.push(dir.display().to_string());
    }
    args
}

/// Send `items` one at a time on a fresh connection and check every
/// answer; the first wrong one is an error.
pub fn send_checked(addr: &str, items: &[Item]) -> Result<(), String> {
    let mut t = fleet::connect(addr)?;
    let mut oracle = Oracle::default();
    for (i, item) in items.iter().enumerate() {
        let Send::Wire(req) = &item.send else {
            return Err("set-up sends wire requests only".into());
        };
        let got = match fleet::call(&mut t, &req.to_wire_bytes()) {
            Ok(resp) => gen::Got::from_payload(&resp),
            Err(e) => gen::Got::Fail(format!("transport: {e}")),
        };
        oracle
            .check(i as u64, &item.expect, &got)
            .map_err(|e| format!("set-up request {i} ({}): {e}", item.label))?;
    }
    Ok(())
}

/// A workload's fleet, ready for its window, and the time each set-up
/// took.
pub struct Prepared {
    pub fleet: Fleet,
    pub setup_s: Vec<f64>,
}

/// The store `sing-stream` boots on, written by the program under
/// test: a server with a store answers the set-up batches, one
/// certified verdict per record, and is stopped.
pub fn populate(bin: &Path, seed: u64, dir: &Path) -> Result<(), String> {
    let server = Proc::spawn(bin, "populate", &serve_args(Some(dir)))?;
    send_checked(&server.addr, &gen::setup_items("sing-stream", seed))
}

/// Set the workload up `reps` times, timing each, and keep the last
/// fleet. `populated` is the store `sing-stream` boots on.
pub fn prepare(
    workload: &str,
    seed: u64,
    bin: &Path,
    scratch: &Path,
    populated: &Path,
    reps: usize,
) -> Result<Prepared, String> {
    let items = gen::setup_items(workload, seed);
    let mut setup_s = Vec::with_capacity(reps);
    let mut last = None;
    for r in 0..reps {
        // Stop the previous fleet first: one fleet runs at a time.
        drop(last.take());
        let fleet = match workload {
            "sing-stream" => {
                let dir = scratch.join(format!("boot-{r}"));
                let _ = std::fs::remove_dir_all(&dir);
                fleet::copy_dir(populated, &dir)?;
                let t0 = Instant::now();
                let server = Proc::spawn(bin, "server", &serve_args(Some(&dir)))?;
                setup_s.push(fleet::first_pong(&server.addr, t0)?.as_secs_f64());
                Fleet {
                    procs: vec![server],
                    store_dir: Some(dir),
                }
            }
            "cc-contend" | "proto-live" => {
                let t0 = Instant::now();
                let server = Proc::spawn(bin, "server", &serve_args(None))?;
                fleet::first_pong(&server.addr, t0)?;
                send_checked(&server.addr, &items)?;
                setup_s.push(t0.elapsed().as_secs_f64());
                Fleet {
                    procs: vec![server],
                    store_dir: None,
                }
            }
            "routed-mix" => {
                let t0 = Instant::now();
                let mut procs = Vec::new();
                let mut coord_args = vec!["coordinator".to_string(), "127.0.0.1:0".to_string()];
                for name in ["s0", "s1"] {
                    let shard = Proc::spawn(
                        bin,
                        name,
                        &[
                            "shard".into(),
                            "127.0.0.1:0".into(),
                            "--name".into(),
                            name.into(),
                        ],
                    )?;
                    coord_args.push("--shard".into());
                    coord_args.push(format!("{name}={}", shard.addr));
                    procs.push(shard);
                }
                let coordinator = Proc::spawn(bin, "coordinator", &coord_args)?;
                fleet::first_pong(&coordinator.addr, t0)?;
                send_checked(&coordinator.addr, &items)?;
                setup_s.push(t0.elapsed().as_secs_f64());
                procs.push(coordinator);
                Fleet {
                    procs,
                    store_dir: None,
                }
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        last = Some(fleet);
    }
    Ok(Prepared {
        fleet: last.ok_or("no set-up ran")?,
        setup_s,
    })
}

/// One timed window: what each connection saw.
pub struct Window {
    pub recs: [Vec<Rec>; 2],
    /// Window length, ns on the phase clock.
    pub stop: u64,
}

/// Drive both connections for `seconds`.
pub fn run_window(workload: &str, seed: u64, entry: &str, seconds: f64) -> Result<Window, String> {
    let [mut s0, mut s1] = gen::conn_streams(workload, seed);
    let stop = (seconds * 1e9) as u64;
    let clock = Clock::new();
    let open = workload == "cc-contend";
    let (r0, r1) = std::thread::scope(|scope| {
        let h0 = scope.spawn(move || load::closed_loop(entry, s0.as_mut(), clock, stop));
        let h1 = scope.spawn(move || {
            if open {
                load::open_loop(entry, s1.as_mut(), clock, 0, stop, HIT_RATE, HIT_GRACE)
            } else {
                load::closed_loop(entry, s1.as_mut(), clock, stop)
            }
        });
        (h0.join(), h1.join())
    });
    match (r0, r1) {
        (Ok(a), Ok(b)) => Ok(Window { recs: [a, b], stop }),
        _ => Err("a load generator thread panicked".into()),
    }
}

/// Outcome of checking a window against the oracles.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Per record, in connection order: did its answer pass?
    pub ok: [Vec<bool>; 2],
    /// Hash of the requests the window sent, in connection order.
    pub sent_hash: u64,
}

/// Regenerate both connections' streams and check every answer, one
/// thread per connection. Also hashes the requests the window sent.
pub fn check(workload: &str, seed: u64, window: &Window) -> Checked {
    let streams = gen::conn_streams(workload, seed);
    type Verdicts = (Vec<Result<(), String>>, u64);
    let per_conn: Vec<Verdicts> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&window.recs)
            .map(|(mut stream, recs)| {
                scope.spawn(move || {
                    let mut oracle = Oracle::default();
                    let mut ids = Vec::with_capacity(recs.len() * 8);
                    let verdicts = recs
                        .iter()
                        .enumerate()
                        .map(|(i, rec)| {
                            let item = stream.next_item();
                            ids.extend(gen::fnv64(&item.identity()).to_le_bytes());
                            if item.class != rec.class || item.label != rec.label {
                                return Err(format!(
                                    "stream out of step: regenerated {}/{}, sent {}/{}",
                                    item.class.name(),
                                    item.label,
                                    rec.class.name(),
                                    rec.label
                                ));
                            }
                            oracle.check(i as u64, &item.expect, &rec.got)
                        })
                        .collect();
                    (verdicts, gen::fnv64(&ids))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (vec![Err("oracle thread panicked".into())], 0))
            })
            .collect()
    });
    let mut out = Checked::default();
    let mut hashes = Vec::new();
    for (conn, (verdicts, hash)) in per_conn.into_iter().enumerate() {
        hashes.extend(hash.to_le_bytes());
        for (i, v) in verdicts.into_iter().enumerate() {
            out.attempted += 1;
            if let Err(e) = &v {
                out.failed += 1;
                out.first_failure
                    .get_or_insert_with(|| match window.recs[conn].get(i) {
                        Some(rec) => format!(
                            "connection {conn}, request {i} ({}/{}): {e}",
                            rec.class.name(),
                            rec.label
                        ),
                        None => format!("connection {conn}: {e}"),
                    });
            }
            out.ok[conn].push(v.is_ok());
        }
    }
    out.sent_hash = gen::fnv64(&hashes);
    out
}

/// Regenerate both streams and hand every correctly answered request
/// to `visit` with its record, in the order they were sent across both
/// connections.
pub fn for_each_sent(
    workload: &str,
    seed: u64,
    window: &Window,
    checked: &Checked,
    mut visit: impl FnMut(&Item, &Rec),
) {
    let mut streams = gen::conn_streams(workload, seed);
    let mut next = [0usize; 2];
    loop {
        let pick = match (window.recs[0].get(next[0]), window.recs[1].get(next[1])) {
            (Some(a), Some(b)) => usize::from(b.sent < a.sent),
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (None, None) => break,
        };
        let i = next[pick];
        next[pick] += 1;
        let item = streams[pick].next_item();
        if checked.ok[pick].get(i) == Some(&true) {
            visit(&item, &window.recs[pick][i]);
        }
    }
}

/// The request class each headline latency reports, per workload:
/// `(main, side)`. `None` means every class.
pub fn classes(workload: &str) -> (Option<Class>, Class) {
    match workload {
        "sing-stream" => (None, Class::Hit),
        "cc-contend" => (Some(Class::Search), Class::Hit),
        "proto-live" => (Some(Class::Interactive), Class::Batch),
        _ => (None, Class::Batch),
    }
}

/// The class `ops_per_s` counts, per workload; `None` means every class.
pub fn ops_class(workload: &str) -> Option<Class> {
    (workload == "cc-contend").then_some(Class::Search)
}

/// Idle Ping round trip: median of 200 on one connection, µs.
pub fn ping_floor(entry: &str) -> Result<f64, String> {
    fleet::ping_floor_us(entry, 200)
}

/// Latencies, ms, of the correctly answered records of `class`
/// (`None`: every class).
pub fn latencies(window: &Window, checked: &Checked, class: Option<Class>) -> Vec<f64> {
    let mut out = Vec::new();
    for c in 0..2 {
        for (rec, ok) in window.recs[c].iter().zip(&checked.ok[c]) {
            if *ok && rec.class != Class::Setup && class.is_none_or(|k| rec.class == k) {
                out.push(rec.latency_ms());
            }
        }
    }
    out
}

/// `latencies`, split by send time into `slices` equal parts of the
/// window.
pub fn latencies_by_slice(
    window: &Window,
    checked: &Checked,
    class: Option<Class>,
    slices: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); slices];
    for c in 0..2 {
        for (rec, ok) in window.recs[c].iter().zip(&checked.ok[c]) {
            if *ok && rec.class != Class::Setup && class.is_none_or(|k| rec.class == k) {
                let slice =
                    (rec.due as u128 * slices as u128 / u128::from(window.stop.max(1))) as usize;
                out[slice.min(slices - 1)].push(rec.latency_ms());
            }
        }
    }
    out
}

/// Correct answers of `class` completed inside the window, counted in
/// each of `slices` equal parts of it by completion time.
pub fn completions_by_slice(
    window: &Window,
    checked: &Checked,
    class: Option<Class>,
    slices: usize,
) -> Vec<u64> {
    let mut out = vec![0; slices];
    for c in 0..2 {
        for (rec, ok) in window.recs[c].iter().zip(&checked.ok[c]) {
            if *ok && rec.done < window.stop && class.is_none_or(|k| rec.class == k) {
                let slice =
                    (rec.done as u128 * slices as u128 / u128::from(window.stop.max(1))) as usize;
                out[slice.min(slices - 1)] += 1;
            }
        }
    }
    out
}

/// The requests `cluster.hop_us` times: every cached key of
/// `routed-mix`.
pub fn routed_keys(seed: u64) -> Vec<Request> {
    gen::setup_items("routed-mix", seed)
        .into_iter()
        .filter_map(|item| match item.send {
            Send::Wire(req) => Some(req),
            Send::Interactive(_) => None,
        })
        .collect()
}

/// Median latency, µs, of `rounds` passes over `reqs` on one
/// connection to `addr` (after one warming pass).
pub fn timed_pass(addr: &str, reqs: &[Request], rounds: usize) -> Result<Vec<f64>, String> {
    let mut t = fleet::connect(addr)?;
    let payloads: Vec<Vec<u8>> = reqs.iter().map(WireCodec::to_wire_bytes).collect();
    for p in &payloads {
        fleet::call(&mut t, p)?;
    }
    let mut out = Vec::with_capacity(rounds * payloads.len());
    for _ in 0..rounds {
        for p in &payloads {
            let start = Instant::now();
            fleet::call(&mut t, p)?;
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(out)
}
