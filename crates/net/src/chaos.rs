//! Seeded chaos soaks: prove that the metered bit count of a protocol
//! run is *invariant under transport faults*.
//!
//! A soak runs the same `(spec, input, seed)` triples twice — once
//! through `run_sequential` (the in-process reference) and once over a
//! [`FaultTransport`] pair injecting a deterministic fault schedule —
//! and aggregates the divergence. The acceptance bar is **zero**: the
//! faulted wire must carry exactly `Transcript::total_bits()` metered
//! protocol bits and produce bit-identical [`RunResult`]s, no matter
//! how many envelopes were flipped, cut, dropped, duplicated or
//! stalled underneath. Raw framed bytes are *expected* to inflate
//! (that is the recovery traffic); the report keeps both numbers so
//! the distinction stays visible.
//!
//! [`server_soak`] applies the same verdict to the live serving stack:
//! concurrent clients drive interactive runs against a real server and
//! every run's wire stats are checked against its own transcript.

use std::time::Duration;

use ccmx_comm::protocol::{run_sequential, RunResult, Turn};
use ccmx_comm::BitString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::ProtoSpec;
use crate::client::Client;
use crate::error::NetError;
use crate::fault::{fault_mem_pair, FaultConfig, FaultStats, FaultTransport};
use crate::runner::run_over_result;
use crate::transport::{MemFrameLink, Transport, TransportConfig, TransportStats};

/// How hard a soak leans on the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosLevel {
    /// Envelope protocol active, zero faults — the control group.
    Quiet,
    /// ~20% of transmissions faulted.
    Moderate,
    /// ~50% of transmissions faulted.
    Aggressive,
}

impl ChaosLevel {
    /// The fault schedule this level prescribes for one endpoint.
    pub fn config(self, seed: u64) -> FaultConfig {
        match self {
            ChaosLevel::Quiet => FaultConfig::quiet(seed),
            ChaosLevel::Moderate => FaultConfig::moderate(seed),
            ChaosLevel::Aggressive => FaultConfig::aggressive(seed),
        }
    }

    /// Parse a CLI-style level name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quiet" => Some(ChaosLevel::Quiet),
            "moderate" => Some(ChaosLevel::Moderate),
            "aggressive" => Some(ChaosLevel::Aggressive),
            _ => None,
        }
    }
}

/// Aggregated verdict of a chaos soak. The soak *passes* iff metered
/// bits diverged by zero, every faulted run matched its clean
/// reference, and no trial errored out.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Protocol spec label.
    pub spec: String,
    /// Trials executed.
    pub trials: usize,
    /// Metered bits across all clean reference runs.
    pub clean_bits: u64,
    /// Metered bits across all faulted runs.
    pub faulted_bits: u64,
    /// Raw framed bytes the faulted runs put on the wire (headers,
    /// envelopes, retransmissions, NACKs — the recovery overhead).
    pub faulted_raw_bytes: u64,
    /// Faults injected across both endpoints.
    pub faults_injected: u64,
    /// Corrupt envelopes detected (checksum or structure).
    pub corrupt_detected: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// NACKs sent.
    pub nacks: u64,
    /// Duplicate envelopes dropped.
    pub duplicates_dropped: u64,
    /// Trials whose faulted result differed from the clean reference.
    pub result_mismatches: usize,
    /// Trials that failed with a transport error.
    pub errors: usize,
}

impl ChaosReport {
    /// Metered-bit divergence: faulted minus clean. Must be zero.
    pub fn bit_divergence(&self) -> i64 {
        self.faulted_bits as i64 - self.clean_bits as i64
    }

    /// Did the soak uphold the invariant?
    pub fn passed(&self) -> bool {
        self.bit_divergence() == 0 && self.result_mismatches == 0 && self.errors == 0
    }

    fn absorb_faults(&mut self, fs: &FaultStats) {
        self.faults_injected += fs.injected_total();
        self.corrupt_detected += fs.corrupt_detected;
        self.retransmits += fs.retransmits;
        self.nacks += fs.nacks_sent;
        self.duplicates_dropped += fs.duplicates_dropped;
    }
}

/// Quiet period both endpoints wait after their agent finishes, so a
/// faulted final message can still be re-requested and re-served.
const DRAIN_QUIET: Duration = Duration::from_millis(60);

/// Run one protocol instance over a faulted in-memory pair; both
/// endpoints drain recovery traffic after their agent completes.
fn run_one_faulted(
    spec: ProtoSpec,
    input: &BitString,
    seed: u64,
    cfg_a: FaultConfig,
    cfg_b: FaultConfig,
) -> Result<
    (
        RunResult,
        TransportStats,
        TransportStats,
        FaultStats,
        FaultStats,
    ),
    NetError,
> {
    let lab = spec.build();
    let (chan_a, chan_b) = fault_mem_pair(cfg_a, cfg_b);
    let finish = |mut t: FaultTransport<MemFrameLink>| -> Result<_, NetError> {
        t.drain(DRAIN_QUIET)?;
        Ok((t.stats(), t.fault_stats()))
    };
    let (result, (stats_a, faults_a), (stats_b, faults_b)) = run_over_result(
        lab.proto.as_ref(),
        &lab.partition,
        input,
        seed,
        chan_a,
        chan_b,
        finish,
        finish,
    )?;
    Ok((result, stats_a, stats_b, faults_a, faults_b))
}

/// Deterministic random input of the width `spec` expects.
pub fn random_input(spec: ProtoSpec, seed: u64) -> BitString {
    let width = spec.build().input_bits;
    let mut rng = StdRng::seed_from_u64(seed);
    BitString::from_bits((0..width).map(|_| rng.gen::<bool>()).collect())
}

/// Run a seeded chaos soak for one protocol spec: `trials` random
/// inputs, each executed clean (`run_sequential`) and faulted (over a
/// [`fault_mem_pair`] whose endpoints both follow `level`'s schedule),
/// with metered bits and results compared per trial.
pub fn chaos_soak(spec: ProtoSpec, trials: usize, seed: u64, level: ChaosLevel) -> ChaosReport {
    let lab = spec.build();
    let mut report = ChaosReport {
        spec: spec.name().to_string(),
        ..ChaosReport::default()
    };
    for trial in 0..trials as u64 {
        let input = random_input(
            spec,
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(trial + 1)),
        );
        let run_seed = seed.wrapping_add(trial);
        let clean = run_sequential(lab.proto.as_ref(), &lab.partition, &input, run_seed);
        let clean_bits = clean.transcript.total_bits() as u64;
        report.trials += 1;
        report.clean_bits += clean_bits;
        let cfg_a = level.config(seed.wrapping_mul(2).wrapping_add(trial));
        let cfg_b = level.config(seed.wrapping_mul(3).wrapping_add(trial));
        match run_one_faulted(spec, &input, run_seed, cfg_a, cfg_b) {
            Ok((result, stats_a, stats_b, faults_a, faults_b)) => {
                report.faulted_bits += stats_a.bits_total() as u64;
                report.faulted_raw_bytes +=
                    (stats_a.raw_bytes_sent + stats_b.raw_bytes_sent) as u64;
                report.absorb_faults(&faults_a);
                report.absorb_faults(&faults_b);
                if result != clean {
                    report.result_mismatches += 1;
                }
            }
            Err(_) => report.errors += 1,
        }
    }
    report
}

/// Soak the live serving stack: `clients` concurrent connections each
/// drive `trials` interactive runs against the server at `addr`, and
/// every run's wire stats must equal its transcript bit count (and the
/// client- and server-side results must agree). Faults are not injected
/// here — the server speaks plain frames — but the verdict is the same
/// zero-divergence invariant, now measured through the full
/// accept/worker/deadline path under concurrency.
pub fn server_soak(
    addr: &str,
    spec: ProtoSpec,
    clients: usize,
    trials: usize,
    seed: u64,
) -> ChaosReport {
    let lab = spec.build();
    let mut report = ChaosReport {
        spec: spec.name().to_string(),
        ..ChaosReport::default()
    };
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.to_string();
                let lab = &lab;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut client =
                        match Client::connect(addr.as_str(), TransportConfig::default()) {
                            Ok(cl) => cl,
                            Err(e) => {
                                out.push(Err(e));
                                return out;
                            }
                        };
                    for t in 0..trials as u64 {
                        let run_seed = seed ^ (c as u64) << 32 | t;
                        let input = random_input(spec, run_seed);
                        let clean =
                            run_sequential(lab.proto.as_ref(), &lab.partition, &input, run_seed);
                        out.push(
                            client
                                .run_interactive(spec, &input, run_seed)
                                .map(|(ra, rb, stats)| (clean, ra, rb, stats)),
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("soak client panicked"))
            .collect::<Vec<_>>()
    });

    for outcome in outcomes {
        report.trials += 1;
        match outcome {
            Ok((clean, ra, rb, stats)) => {
                let clean_bits = clean.transcript.total_bits() as u64;
                report.clean_bits += clean_bits;
                report.faulted_bits += stats.bits_total() as u64;
                report.faulted_raw_bytes += stats.raw_bytes_sent as u64;
                if ra != clean || rb != clean {
                    report.result_mismatches += 1;
                }
            }
            Err(_) => report.errors += 1,
        }
    }
    report
}

/// Human-readable soak summary (used by `ccmx chaos` and verify.sh).
pub fn render_report(r: &ChaosReport) -> String {
    format!(
        "spec={} trials={} clean_bits={} faulted_bits={} divergence={} \
         raw_bytes={} faults={} corrupt={} retransmits={} nacks={} dups_dropped={} \
         mismatches={} errors={} verdict={}",
        r.spec,
        r.trials,
        r.clean_bits,
        r.faulted_bits,
        r.bit_divergence(),
        r.faulted_raw_bytes,
        r.faults_injected,
        r.corrupt_detected,
        r.retransmits,
        r.nacks,
        r.duplicates_dropped,
        r.result_mismatches,
        r.errors,
        if r.passed() { "PASS" } else { "FAIL" },
    )
}

/// Per-turn cross-check used in tests: the faulted endpoints' sent
/// bits must match the transcript attribution exactly.
pub fn faulted_endpoint_bits_consistent(
    result: &RunResult,
    stats_a: &TransportStats,
    stats_b: &TransportStats,
) -> bool {
    let a_bits = result.transcript.bits_from(Turn::A).len();
    let b_bits = result.transcript.bits_from(Turn::B).len();
    stats_a.bits_sent == a_bits
        && stats_b.bits_sent == b_bits
        && stats_a.bits_received == b_bits
        && stats_b.bits_received == a_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_soak_has_zero_divergence_and_zero_faults() {
        let spec = ProtoSpec::FingerprintEquality {
            half_bits: 24,
            security: 20,
        };
        let report = chaos_soak(spec, 4, 11, ChaosLevel::Quiet);
        assert!(report.passed(), "{}", render_report(&report));
        assert_eq!(report.faults_injected, 0);
        assert!(report.clean_bits > 0);
    }

    #[test]
    fn aggressive_soak_faults_heavily_but_diverges_zero() {
        let spec = ProtoSpec::ModPrimeSingularity {
            dim: 2,
            k: 4,
            security: 16,
        };
        let report = chaos_soak(spec, 5, 23, ChaosLevel::Aggressive);
        assert!(report.passed(), "{}", render_report(&report));
        assert!(report.faults_injected > 0, "schedule injected nothing");
        assert_eq!(report.bit_divergence(), 0);
        assert!(
            report.faulted_raw_bytes > report.faulted_bits / 8,
            "recovery overhead should show up in raw bytes"
        );
    }

    #[test]
    fn send_all_survives_moderate_chaos() {
        let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 3 };
        let report = chaos_soak(spec, 4, 5, ChaosLevel::Moderate);
        assert!(report.passed(), "{}", render_report(&report));
    }

    #[test]
    fn faulted_run_matches_per_endpoint_attribution() {
        let spec = ProtoSpec::FingerprintEquality {
            half_bits: 16,
            security: 16,
        };
        let input = random_input(spec, 77);
        let (result, sa, sb, fa, fb) = run_one_faulted(
            spec,
            &input,
            9,
            FaultConfig::aggressive(1),
            FaultConfig::aggressive(2),
        )
        .expect("faulted run failed");
        assert!(faulted_endpoint_bits_consistent(&result, &sa, &sb));
        assert!(fa.injected_total() + fb.injected_total() > 0);
    }

    #[test]
    fn chaos_level_parses() {
        assert_eq!(ChaosLevel::parse("quiet"), Some(ChaosLevel::Quiet));
        assert_eq!(ChaosLevel::parse("moderate"), Some(ChaosLevel::Moderate));
        assert_eq!(
            ChaosLevel::parse("aggressive"),
            Some(ChaosLevel::Aggressive)
        );
        assert_eq!(ChaosLevel::parse("nope"), None);
    }
}
