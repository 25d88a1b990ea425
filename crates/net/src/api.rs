//! Request/response vocabulary of the protocol-lab server, plus
//! [`ProtoSpec`] — the wire-transportable description of a protocol
//! instance that both endpoints can build identically.

use ccmx_comm::functions::{BooleanFunction, Equality, Singularity};
use ccmx_comm::protocol::{RunResult, TwoPartyProtocol};
use ccmx_comm::protocols::{fingerprint, FingerprintEquality, ModPrimeSingularity, SendAll};
use ccmx_comm::{BitString, Partition};

use crate::error::NetError;
use crate::wire::{Dec, WireCodec};

/// A protocol instance both sides can construct from parameters alone.
///
/// The server never receives protocol *objects* — it receives one of
/// these and rebuilds the instance locally, so client and server agents
/// are guaranteed to run the same deterministic state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtoSpec {
    /// Deterministic send-everything upper bound on singularity
    /// (`dim × dim` matrix of `k`-bit entries, π₀ partition).
    SendAllSingularity {
        /// Matrix dimension.
        dim: usize,
        /// Bits per entry.
        k: u32,
    },
    /// Randomized mod-a-random-prime singularity protocol.
    ModPrimeSingularity {
        /// Matrix dimension.
        dim: usize,
        /// Bits per entry.
        k: u32,
        /// Error `<= 2^-security`.
        security: u32,
    },
    /// Randomized fingerprint equality on two `half_bits`-bit halves.
    FingerprintEquality {
        /// Bits per half.
        half_bits: usize,
        /// Error `<= 2^-security`.
        security: u32,
    },
}

/// A protocol instance ready to run: the protocol object, the canonical
/// partition for its spec, the referee function, and the input width.
pub struct LabSetup {
    /// The protocol state machine.
    pub proto: Box<dyn TwoPartyProtocol + Send + Sync>,
    /// Canonical partition (π₀ for matrix problems, the fixed half
    /// split for equality).
    pub partition: Partition,
    /// Exact evaluator used as correctness referee.
    pub function: Box<dyn BooleanFunction + Send + Sync>,
    /// Total input bits the spec expects.
    pub input_bits: usize,
}

impl ProtoSpec {
    /// Build the protocol instance this spec describes. Deterministic:
    /// two endpoints building the same spec get byte-identical behavior.
    pub fn build(&self) -> LabSetup {
        match *self {
            ProtoSpec::SendAllSingularity { dim, k } => {
                let f = Singularity::new(dim, k);
                let partition = Partition::pi_zero(&f.enc);
                let input_bits = f.num_bits();
                LabSetup {
                    proto: Box::new(SendAll::new(f)),
                    partition,
                    function: Box::new(f),
                    input_bits,
                }
            }
            ProtoSpec::ModPrimeSingularity { dim, k, security } => {
                let proto = ModPrimeSingularity::new(dim, k, security);
                let f = Singularity::new(dim, k);
                let partition = Partition::pi_zero(&proto.enc);
                let input_bits = f.num_bits();
                LabSetup {
                    proto: Box::new(proto),
                    partition,
                    function: Box::new(f),
                    input_bits,
                }
            }
            ProtoSpec::FingerprintEquality {
                half_bits,
                security,
            } => {
                let f = Equality { half_bits };
                let input_bits = f.num_bits();
                LabSetup {
                    proto: Box::new(FingerprintEquality::new(half_bits, security)),
                    partition: fingerprint::fixed_partition(half_bits),
                    function: Box::new(f),
                    input_bits,
                }
            }
        }
    }

    /// Short name for logs and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            ProtoSpec::SendAllSingularity { .. } => "send-all-singularity",
            ProtoSpec::ModPrimeSingularity { .. } => "mod-prime-singularity",
            ProtoSpec::FingerprintEquality { .. } => "fingerprint-equality",
        }
    }
}

impl WireCodec for ProtoSpec {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            ProtoSpec::SendAllSingularity { dim, k } => {
                out.push(0);
                dim.put(out);
                k.put(out);
            }
            ProtoSpec::ModPrimeSingularity { dim, k, security } => {
                out.push(1);
                dim.put(out);
                k.put(out);
                security.put(out);
            }
            ProtoSpec::FingerprintEquality {
                half_bits,
                security,
            } => {
                out.push(2);
                half_bits.put(out);
                security.put(out);
            }
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(ProtoSpec::SendAllSingularity {
                dim: usize::take(d)?,
                k: u32::take(d)?,
            }),
            1 => Ok(ProtoSpec::ModPrimeSingularity {
                dim: usize::take(d)?,
                k: u32::take(d)?,
                security: u32::take(d)?,
            }),
            2 => Ok(ProtoSpec::FingerprintEquality {
                half_bits: usize::take(d)?,
                security: u32::take(d)?,
            }),
            v => Err(NetError::Frame(format!("unknown ProtoSpec tag {v}"))),
        }
    }
}

/// Bound summary for `(n, k)` à la the `ccmx bounds` CLI, served from
/// the server's verdict cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundsReport {
    /// Half-dimension parameter (odd, `>= 5`).
    pub n: usize,
    /// Bits per entry.
    pub k: u32,
    /// Security parameter used for the randomized upper bound.
    pub security: u32,
    /// Theorem 1.1 lower bound, in bits.
    pub lower_bound_bits: f64,
    /// Deterministic (send-all) upper bound, in bits.
    pub deterministic_upper_bits: f64,
    /// Randomized (mod-prime) upper bound, in bits.
    pub randomized_upper_bits: f64,
}

impl WireCodec for BoundsReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.n.put(out);
        self.k.put(out);
        self.security.put(out);
        self.lower_bound_bits.put(out);
        self.deterministic_upper_bits.put(out);
        self.randomized_upper_bits.put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        Ok(BoundsReport {
            n: usize::take(d)?,
            k: u32::take(d)?,
            security: u32::take(d)?,
            lower_bound_bits: f64::take(d)?,
            deterministic_upper_bits: f64::take(d)?,
            randomized_upper_bits: f64::take(d)?,
        })
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Theorem 1.1 bound package for `(n, k)`; served from the verdict cache.
    Bounds {
        /// Half-dimension (odd, `>= 5`).
        n: usize,
        /// Bits per entry (`2..=63`).
        k: u32,
        /// Security for the randomized bound.
        security: u32,
    },
    /// Run a protocol in-process on the server and return the full
    /// metered result.
    Run {
        /// Which protocol instance.
        spec: ProtoSpec,
        /// Full input (the lab setting: the server splits it by the
        /// spec's canonical partition).
        input: BitString,
        /// Shared RNG seed.
        seed: u64,
    },
    /// Exact singularity decision for an encoded matrix.
    Singularity {
        /// Matrix dimension.
        dim: usize,
        /// Bits per entry.
        k: u32,
        /// Encoded matrix bits.
        input: BitString,
    },
    /// Exact `CC(f)` of an explicit truth matrix via the branch-and-
    /// bound engine in `ccmx-search`. `bits` is the matrix in row-major
    /// order (`rows * cols` entries). The server answers from a cache
    /// keyed on the *full* tuple including `depth_limit`, so a shallow
    /// (inexact) verdict can never be replayed for a deep query.
    CcSearch {
        /// Number of matrix rows (`1..=64`).
        rows: usize,
        /// Number of matrix columns (`1..=64`).
        cols: usize,
        /// Row-major truth entries, `rows * cols` bits.
        bits: BitString,
        /// Search depth budget; answers above it come back inexact.
        depth_limit: u32,
    },
    /// Several requests in one frame; the server's batcher groups them
    /// by setup so protocol construction is amortized across the burst.
    Batch(Vec<Request>),
    /// Live metrics scrape: the server answers with its whole
    /// [`ccmx_obs`] registry rendered as Prometheus-style
    /// exposition text.
    Metrics,
}

impl WireCodec for Request {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::Bounds { n, k, security } => {
                out.push(1);
                n.put(out);
                k.put(out);
                security.put(out);
            }
            Request::Run { spec, input, seed } => {
                out.push(2);
                spec.put(out);
                input.put(out);
                seed.put(out);
            }
            Request::Singularity { dim, k, input } => {
                out.push(3);
                dim.put(out);
                k.put(out);
                input.put(out);
            }
            Request::Batch(reqs) => {
                out.push(4);
                reqs.put(out);
            }
            Request::Metrics => out.push(5),
            Request::CcSearch {
                rows,
                cols,
                bits,
                depth_limit,
            } => {
                out.push(6);
                rows.put(out);
                cols.put(out);
                bits.put(out);
                depth_limit.put(out);
            }
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Bounds {
                n: usize::take(d)?,
                k: u32::take(d)?,
                security: u32::take(d)?,
            }),
            2 => Ok(Request::Run {
                spec: ProtoSpec::take(d)?,
                input: BitString::take(d)?,
                seed: u64::take(d)?,
            }),
            3 => Ok(Request::Singularity {
                dim: usize::take(d)?,
                k: u32::take(d)?,
                input: BitString::take(d)?,
            }),
            4 => Ok(Request::Batch(d.take_batch()?)),
            5 => Ok(Request::Metrics),
            6 => Ok(Request::CcSearch {
                rows: usize::take(d)?,
                cols: usize::take(d)?,
                bits: BitString::take(d)?,
                depth_limit: u32::take(d)?,
            }),
            v => Err(NetError::Frame(format!("unknown Request tag {v}"))),
        }
    }
}

/// A server response, paired 1:1 with [`Request`] variants.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Bound package (possibly a cache hit).
    Bounds(BoundsReport),
    /// Full metered run result; bit-identical to `run_sequential` on the
    /// same `(spec, input, seed)`.
    Run(RunResult),
    /// Exact singularity verdict.
    Singularity {
        /// Whether the matrix is singular.
        singular: bool,
    },
    /// Exact (or depth-limited) `CC(f)` verdict.
    CcSearch {
        /// The communication complexity; when `exact` is false this is
        /// the certified lower bound `depth_limit + 1`.
        cc: u32,
        /// Whether `cc` is the exact value.
        exact: bool,
        /// Search nodes expanded server-side (0 on a cache hit).
        nodes: u64,
        /// Serialized [`ccmx_search::CcCertificate`] (empty when the
        /// search was inexact or the witness was too wide to extract);
        /// decode with `CcCertificate::from_bytes`.
        certificate: Vec<u8>,
    },
    /// Batched responses in request order.
    Batch(Vec<Response>),
    /// The request could not be served.
    Error(String),
    /// Metrics exposition text (reply to [`Request::Metrics`]).
    Metrics(String),
}

impl WireCodec for Response {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::Bounds(report) => {
                out.push(1);
                report.put(out);
            }
            Response::Run(result) => {
                out.push(2);
                result.put(out);
            }
            Response::Singularity { singular } => {
                out.push(3);
                singular.put(out);
            }
            Response::Batch(responses) => {
                out.push(4);
                responses.put(out);
            }
            Response::Error(msg) => {
                out.push(5);
                msg.put(out);
            }
            Response::Metrics(text) => {
                out.push(6);
                text.put(out);
            }
            Response::CcSearch {
                cc,
                exact,
                nodes,
                certificate,
            } => {
                out.push(7);
                cc.put(out);
                exact.put(out);
                nodes.put(out);
                certificate.put(out);
            }
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        match d.take_u8()? {
            0 => Ok(Response::Pong),
            1 => Ok(Response::Bounds(BoundsReport::take(d)?)),
            2 => Ok(Response::Run(RunResult::take(d)?)),
            3 => Ok(Response::Singularity {
                singular: bool::take(d)?,
            }),
            4 => Ok(Response::Batch(d.take_batch()?)),
            5 => Ok(Response::Error(String::take(d)?)),
            6 => Ok(Response::Metrics(String::take(d)?)),
            7 => Ok(Response::CcSearch {
                cc: u32::take(d)?,
                exact: bool::take(d)?,
                nodes: u64::take(d)?,
                certificate: Vec::<u8>::take(d)?,
            }),
            v => Err(NetError::Frame(format!("unknown Response tag {v}"))),
        }
    }
}

/// Setup header that switches a connection into an interactive run: the
/// client keeps agent A, the server plays agent B with the share below.
#[derive(Clone, Debug, PartialEq)]
pub struct InteractiveSetup {
    /// Which protocol instance both endpoints build.
    pub spec: ProtoSpec,
    /// Positions of agent B's share (must match the spec's canonical
    /// partition; the server verifies).
    pub b_positions: Vec<usize>,
    /// Values of agent B's share, aligned with `b_positions`.
    pub b_values: BitString,
    /// Shared RNG seed.
    pub seed: u64,
}

impl WireCodec for InteractiveSetup {
    fn put(&self, out: &mut Vec<u8>) {
        self.spec.put(out);
        self.b_positions.put(out);
        self.b_values.put(out);
        self.seed.put(out);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, NetError> {
        Ok(InteractiveSetup {
            spec: ProtoSpec::take(d)?,
            b_positions: Vec::<usize>::take(d)?,
            b_values: BitString::take(d)?,
            seed: u64::take(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_spec_round_trip() {
        for spec in [
            ProtoSpec::SendAllSingularity { dim: 2, k: 2 },
            ProtoSpec::ModPrimeSingularity {
                dim: 3,
                k: 4,
                security: 25,
            },
            ProtoSpec::FingerprintEquality {
                half_bits: 32,
                security: 20,
            },
        ] {
            assert_eq!(
                ProtoSpec::from_wire_bytes(&spec.to_wire_bytes()).unwrap(),
                spec
            );
        }
    }

    #[test]
    fn request_response_round_trip() {
        let req = Request::Batch(vec![
            Request::Ping,
            Request::Bounds {
                n: 5,
                k: 3,
                security: 20,
            },
            Request::Run {
                spec: ProtoSpec::SendAllSingularity { dim: 2, k: 2 },
                input: BitString::from_u64(0b1010_1010, 8),
                seed: 42,
            },
        ]);
        assert_eq!(Request::from_wire_bytes(&req.to_wire_bytes()).unwrap(), req);

        assert_eq!(
            Request::from_wire_bytes(&Request::Metrics.to_wire_bytes()).unwrap(),
            Request::Metrics
        );

        let resp = Response::Batch(vec![
            Response::Pong,
            Response::Error("nope".into()),
            Response::Singularity { singular: true },
            Response::Metrics("ccmx_server_requests_total 3\n".into()),
        ]);
        assert_eq!(
            Response::from_wire_bytes(&resp.to_wire_bytes()).unwrap(),
            resp
        );
    }

    #[test]
    fn specs_build_consistent_setups() {
        let setup = ProtoSpec::SendAllSingularity { dim: 2, k: 2 }.build();
        assert_eq!(setup.input_bits, 8);
        assert_eq!(setup.partition.len(), 8);
        assert!(setup.partition.is_even());

        let setup = ProtoSpec::FingerprintEquality {
            half_bits: 16,
            security: 20,
        }
        .build();
        assert_eq!(setup.input_bits, 32);
        assert_eq!(setup.partition.count_a(), 16);
    }
}
