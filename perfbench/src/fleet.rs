//! The program under test as processes: building the release `ccmx`
//! binary, launching servers with their shipped defaults, scraping
//! them, and cleaning up after them on every exit path.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ccmx_net::wire::{KIND_REQUEST, KIND_RESPONSE};
use ccmx_net::{Request, Response, TcpTransport, TransportConfig, WireCodec};

/// The checkout the benchmark runs in: the current directory, which
/// must hold the `ccmx` sources.
pub fn repo_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    if root.join("Cargo.toml").is_file() && root.join("src/bin/ccmx.rs").is_file() {
        Ok(root)
    } else {
        Err(format!(
            "{} holds no ccmx sources; run from the root of a ccmx checkout",
            root.display()
        ))
    }
}

/// Build the release `ccmx` binary from source and return its path.
/// Honors `CARGO_TARGET_DIR` like any other cargo invocation.
pub fn build_ccmx(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "ccmx",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ccmx failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("ccmx");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// A directory under the checkout for this run's stores, removed when
/// dropped — on success, on error and while a panic unwinds.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(root: &Path) -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let dir = root
            .join("perfbench/runs/tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Copy a store directory (flat: segment files only).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// One server process. Dropping it kills the process and reaps it.
pub struct Proc {
    child: Child,
    /// Kept open: the server prints a stats line every minute, and a
    /// closed pipe would make that print fail.
    _stdout: std::io::BufReader<ChildStdout>,
    pub addr: String,
    pub cmdline: String,
    pub name: String,
}

impl Proc {
    /// Spawn `ccmx <args>` with every `CCMX_*` variable cleared, and
    /// wait for its banner (`... on <addr> ...`).
    pub fn spawn(bin: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("CCMX_") {
                cmd.env_remove(key);
            }
        }
        // SAFETY: runs in the forked child before exec and only makes
        // one async-signal-safe system call. PR_SET_PDEATHSIG (1) with
        // SIGKILL (9) kills the server if the benchmark dies without
        // unwinding, so no server outlives it on any exit path.
        unsafe {
            cmd.pre_exec(|| {
                prctl(1, 9 as std::os::raw::c_ulong);
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let proc_name = name.to_string();
        let cmdline = format!("ccmx {}", args.join(" "));
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let mut proc = Proc {
            child,
            _stdout: stdout,
            addr: String::new(),
            cmdline,
            name: proc_name,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!("{}: no address in banner {line:?}", proc.cmdline)),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (VmHWM), in bytes.
    pub fn peak_rss(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read status of {}: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("no VmHWM for {}", self.name))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A client connection to a server that sends pre-encoded requests.
pub fn connect(addr: &str) -> Result<TcpTransport, String> {
    TcpTransport::connect(
        addr,
        TransportConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_retries: 0,
            retry_backoff: Duration::from_millis(1),
        },
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// One request/response exchange on a raw connection.
pub fn call(t: &mut TcpTransport, payload: &[u8]) -> Result<Vec<u8>, String> {
    t.send_frame(KIND_REQUEST, payload)
        .map_err(|e| e.to_string())?;
    let (kind, resp) = t.recv_frame().map_err(|e| e.to_string())?;
    if kind != KIND_RESPONSE {
        return Err(format!("expected a response frame, got kind {kind}"));
    }
    Ok(resp)
}

/// Connect and ping until the server answers; the time of the first
/// Pong since `since`.
pub fn first_pong(addr: &str, since: Instant) -> Result<Duration, String> {
    let mut t = connect(addr)?;
    let pong = call(&mut t, &Request::Ping.to_wire_bytes())?;
    match Response::from_wire_bytes(&pong) {
        Ok(Response::Pong) => Ok(since.elapsed()),
        other => Err(format!("expected Pong from {addr}, got {other:?}")),
    }
}

/// Median idle round trip of `n` pings on one connection, in µs.
pub fn ping_floor_us(addr: &str, n: usize) -> Result<f64, String> {
    let mut t = connect(addr)?;
    let payload = Request::Ping.to_wire_bytes();
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        call(&mut t, &payload)?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&mut rtts))
}

/// A parsed metrics exposition.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    pub text: String,
    series: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let mut t = connect(addr)?;
        let payload = call(&mut t, &Request::Metrics.to_wire_bytes())?;
        match Response::from_wire_bytes(&payload) {
            Ok(Response::Metrics(text)) => Ok(Scrape::parse(text)),
            other => Err(format!("expected metrics from {addr}, got {other:?}")),
        }
    }

    pub fn parse(text: String) -> Scrape {
        let series = text
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Scrape { text, series }
    }

    /// Sum of every series of `family` whose labels include all of
    /// `labels` (`key="value"` pairs); `None` when no series matches.
    pub fn sum(&self, family: &str, labels: &[&str]) -> Option<f64> {
        let mut found = None;
        for (name, v) in &self.series {
            let (fam, lab) = name.split_once('{').unwrap_or((name, ""));
            if fam == family && labels.iter().all(|l| lab.contains(l)) {
                *found.get_or_insert(0.0) += v;
            }
        }
        found
    }

    /// Every label set of `family`, with its value.
    pub fn series_of(&self, family: &str) -> Vec<(String, f64)> {
        self.series
            .iter()
            .filter_map(|(name, v)| {
                let (fam, lab) = name.split_once('{')?;
                (fam == family).then(|| (lab.trim_end_matches('}').to_string(), *v))
            })
            .collect()
    }
}

/// The counters a window added: `after − before`, per process, summed.
/// `None` when the family is missing from every after-window scrape.
pub fn delta(before: &[Scrape], after: &[Scrape], family: &str, labels: &[&str]) -> Option<f64> {
    let mut found = None;
    for (i, a) in after.iter().enumerate() {
        if let Some(v) = a.sum(family, labels) {
            let b = before
                .get(i)
                .and_then(|s| s.sum(family, labels))
                .unwrap_or(0.0);
            *found.get_or_insert(0.0) += v - b;
        }
    }
    found
}

/// The controlled variables of a run, printed and stored with it.
pub fn environment(root: &Path, store_dir: Option<&Path>) -> Vec<(String, String)> {
    let mut env = vec![(
        "nproc".to_string(),
        std::thread::available_parallelism()
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "unknown".into()),
    )];
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    env.push(("cpu".into(), cpu));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    env.push(("kernel".into(), kernel));
    if let Some(dir) = store_dir {
        env.push(("store_fs".into(), filesystem_of(dir)));
        env.push((
            "store_flush".into(),
            "one flush to the OS per record, no fsync (StoreConfig default)".into(),
        ));
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(root)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => {
            env.push(("commit".into(), commit));
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            env.push(("dirty".into(), dirty.to_string()));
        }
        None => env.push(("commit".into(), "unknown (not a git checkout)".into())),
    }
    env
}

/// The filesystem type holding `dir`, from the longest matching mount.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}
