//! Load generation. A closed loop sends its connection's next request
//! only after the previous answer arrives; the open loop sends on a
//! fixed schedule whatever the server does, pipelining on its
//! connection, and times each request from when it was due.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ccmx_net::wire::{encode_frame, HEADER_BYTES, KIND_REQUEST, KIND_RESPONSE};
use ccmx_net::{Client, TcpTransport, TransportConfig, WireCodec};

use crate::fleet;
use crate::gen::{Class, Got, Send, Stream};

/// Nanoseconds since the start of a phase.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One request as the client saw it: the root span of its trace.
#[derive(Clone, Debug)]
pub struct Rec {
    pub class: Class,
    pub label: &'static str,
    /// When it was due, sent and answered (ns on the phase clock).
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub resp_bytes: usize,
    pub got: Got,
}

impl Rec {
    /// Client latency, from the due time to the decoded response.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e6
    }
}

enum Link {
    Down,
    Raw(TcpTransport),
    Live(Client),
}

/// Drive one connection as a closed loop until `stop`.
pub fn closed_loop(addr: &str, stream: &mut dyn Stream, clock: Clock, stop: u64) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut link = Link::Down;
    while clock.now() < stop {
        let item = stream.next_item();
        let (got, resp_bytes, sent, done);
        match &item.send {
            Send::Wire(req) => {
                let payload = req.to_wire_bytes();
                if !matches!(link, Link::Raw(_)) {
                    link = match fleet::connect(addr) {
                        Ok(t) => Link::Raw(t),
                        Err(_) => Link::Down,
                    };
                }
                sent = clock.now();
                let answer = match &mut link {
                    Link::Raw(t) => fleet::call(t, &payload),
                    _ => Err(format!("cannot connect to {addr}")),
                };
                done = clock.now();
                match answer {
                    Ok(resp) => {
                        resp_bytes = resp.len();
                        got = Got::from_payload(&resp);
                    }
                    Err(e) => {
                        link = Link::Down;
                        resp_bytes = 0;
                        got = Got::Fail(format!("transport: {e}"));
                    }
                }
            }
            Send::Interactive(run) => {
                if !matches!(link, Link::Live(_)) {
                    link = match Client::connect(addr, TransportConfig::default()) {
                        Ok(c) => Link::Live(c),
                        Err(_) => Link::Down,
                    };
                }
                sent = clock.now();
                let answer = match &mut link {
                    Link::Live(c) => c
                        .run_interactive(run.spec, &run.input, run.seed)
                        .map_err(|e| e.to_string()),
                    _ => Err(format!("cannot connect to {addr}")),
                };
                done = clock.now();
                resp_bytes = 0;
                got = match answer {
                    Ok((a, b, _)) if a != b => Got::Fail(format!(
                        "agent transcripts differ: A {:?}, B {:?}",
                        a.transcript, b.transcript
                    )),
                    Ok((a, _, wire)) if wire.bits_total() != a.transcript.total_bits() => {
                        Got::Fail(format!(
                            "wire metered {} bits, transcript has {}",
                            wire.bits_total(),
                            a.transcript.total_bits()
                        ))
                    }
                    Ok((a, _, _)) => Got::Run { output: a.output },
                    Err(e) => {
                        link = Link::Down;
                        Got::Fail(format!("interactive run: {e}"))
                    }
                };
            }
        }
        recs.push(Rec {
            class: item.class,
            label: item.label,
            due: sent,
            sent,
            done,
            resp_bytes,
            got,
        });
    }
    recs
}

/// Split one complete frame off the front of `buf`, if there is one.
fn take_frame(buf: &mut Vec<u8>) -> Option<(u8, Vec<u8>)> {
    if buf.len() < HEADER_BYTES {
        return None;
    }
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if buf.len() < HEADER_BYTES + len {
        return None;
    }
    let kind = buf[1];
    let payload = buf[HEADER_BYTES..HEADER_BYTES + len].to_vec();
    buf.drain(..HEADER_BYTES + len);
    Some((kind, payload))
}

/// Drive one connection as an open loop: request `j` is due at
/// `start + j / rate`, sent pipelined whether or not earlier ones were
/// answered. Answers are awaited until `stop + grace`; a request still
/// unanswered then is a failure.
pub fn open_loop(
    addr: &str,
    stream: &mut dyn Stream,
    clock: Clock,
    start: u64,
    stop: u64,
    rate: f64,
    grace: Duration,
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::new();
    let fail_all = |recs: &mut Vec<Rec>, pending: &VecDeque<usize>, why: &str| {
        for &i in pending {
            recs[i].got = Got::Fail(why.to_string());
        }
    };
    let mut sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            let item = stream.next_item();
            recs.push(Rec {
                class: item.class,
                label: item.label,
                due: start,
                sent: start,
                done: start,
                resp_bytes: 0,
                got: Got::Fail(format!("connect {addr}: {e}")),
            });
            return recs;
        }
    };
    let _ = sock.set_nodelay(true);
    let period = 1e9 / rate;
    let deadline = stop + grace.as_nanos() as u64;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut j = 0u64;
    loop {
        let now = clock.now();
        let due = start + (j as f64 * period) as u64;
        if due < stop && due <= now {
            let item = stream.next_item();
            let Send::Wire(req) = &item.send else {
                unreachable!("the open loop sends wire requests only")
            };
            let payload = req.to_wire_bytes();
            let frame = encode_frame(KIND_REQUEST, &payload).expect("requests fit a frame");
            let sent = clock.now();
            recs.push(Rec {
                class: item.class,
                label: item.label,
                due,
                sent,
                done: 0,
                resp_bytes: 0,
                got: Got::Fail("unanswered at the end of the window".into()),
            });
            pending.push_back(recs.len() - 1);
            j += 1;
            if let Err(e) = sock.write_all(&frame) {
                fail_all(&mut recs, &pending, &format!("send: {e}"));
                break;
            }
            continue;
        }
        if (due >= stop && pending.is_empty()) || now >= deadline {
            break;
        }
        let until = if due < stop { due } else { deadline };
        let wait = until.saturating_sub(now).clamp(50_000, 5_000_000);
        let _ = sock.set_read_timeout(Some(Duration::from_nanos(wait)));
        match sock.read(&mut scratch) {
            Ok(0) => {
                fail_all(&mut recs, &pending, "server closed the connection");
                break;
            }
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                let now = clock.now();
                while let Some((kind, payload)) = take_frame(&mut buf) {
                    let Some(i) = pending.pop_front() else {
                        break;
                    };
                    recs[i].done = now;
                    recs[i].resp_bytes = payload.len();
                    recs[i].got = if kind == KIND_RESPONSE {
                        Got::from_payload(&payload)
                    } else {
                        Got::Fail(format!("unexpected frame kind {kind}"))
                    };
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                fail_all(&mut recs, &pending, &format!("receive: {e}"));
                break;
            }
        }
    }
    recs
}
