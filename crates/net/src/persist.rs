//! Glue between the server's verdict cache and the persistent
//! certified-result store (`ccmx-store`). The store moves bytes; this
//! module owns what they mean, reusing the deterministic [`WireCodec`]
//! layouts so `docs/STORAGE.md` §4 can specify them by reference:
//!
//! | keyspace  | key                                        | value                 |
//! |-----------|--------------------------------------------|-----------------------|
//! | `VERDICT` | [`verdict_key`]: request bytes, backend id | `Response` bytes      |
//! | `RUN`     | `fnv64(spec, input, seed)` (u64 LE)        | `IdempotentRun` bytes |
//!
//! A binary running a different exact-arithmetic engine warm-starts
//! cold for another engine's verdicts rather than trusting them, and a
//! record that does not decode is skipped (and counted), never trusted.
//! The legacy keyspaces `BOUNDS`, `CC` and `CRT` migrate on first open.
//!
//! [`verdict_key`]: crate::cache::verdict_key

use std::path::Path;

use ccmx_store::{Keyspace, Store, StoreConfig, StoreError};

use crate::api::{BoundsReport, Request, Response};
use crate::cache::{self, VerdictCache};
use crate::wire::{Dec, WireCodec};

/// Open (or create) a store for a server, non-fatally: a store that
/// cannot be opened is surfaced on stderr and as
/// `ccmx_store_open_errors_total`, and the server simply runs cold —
/// persistence is an accelerator, never an availability dependency.
pub(crate) fn open_store(dir: &Path, label: &str) -> Option<Store> {
    match Store::open(StoreConfig::new(dir).label(label)) {
        Ok(store) => {
            let rec = store.recovery();
            if !rec.clean() {
                for issue in &rec.issues {
                    eprintln!(
                        "ccmx-store[{label}]: repaired segment {} at offset {}: {} ({})",
                        issue.segment, issue.offset, issue.kind, issue.detail
                    );
                }
            }
            Some(store)
        }
        Err(e) => {
            ccmx_obs::counter!("ccmx_store_open_errors_total").inc();
            eprintln!(
                "ccmx-store[{label}]: cannot open {}: {e}; serving cold",
                dir.display()
            );
            None
        }
    }
}

/// Warm-seed counter for one cache, labelled like the cache metrics.
pub(crate) fn seeded_counter(cache: &'static str) -> &'static ccmx_obs::Counter {
    ccmx_obs::registry().counter("ccmx_store_warm_seeded_total", &[("cache", cache)])
}

/// Records skipped during warm seeding because their key or value no
/// longer decodes (foreign backend entries are *not* counted here —
/// they are valid records awaiting their engine).
pub(crate) fn skipped_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_store_warm_skipped_total")
}

/// Count and report a failed store write. The answer it would have
/// persisted is still served.
pub(crate) fn write_failed(e: StoreError) {
    ccmx_obs::counter!("ccmx_store_write_errors_total").inc();
    eprintln!("ccmx-store[server]: write failed: {e}");
}

// ----------------------------------------------------------------------
// VERDICT keyspace
// ----------------------------------------------------------------------

/// Seed `cache` from the `VERDICT` keyspace, keys and values verbatim:
/// no request is decoded. Records certified under another backend stay
/// on disk unread; they are valid, but not this engine's to trust.
pub(crate) fn warm_seed(store: &Store, cache: &VerdictCache) {
    let backend = ccmx_linalg::crt::active_backend().id().as_bytes();
    let (mut seeded, mut skipped) = (0, 0);
    store.for_each(Keyspace::VERDICT, |key, value| {
        if !key.ends_with(backend) {
            return;
        }
        if cache.seed(key, value) {
            seeded += 1;
        } else {
            skipped += 1;
        }
    });
    seeded_counter("verdict").add(seeded);
    skipped_counter().add(skipped);
}

/// Move the legacy keyspaces into `VERDICT`. `bounds` and `cc` records
/// are re-keyed under their exact request. Every `crt` record is keyed
/// on a matrix fingerprint that two matrices can share, so it is
/// tombstoned unread, as is any legacy record that does not decode.
/// Counted as `ccmx_store_legacy_{rekeyed,dropped}_total{keyspace}`.
/// A write failure stops the pass; the rest migrates on the next open.
pub(crate) fn migrate_legacy(store: &mut Store) {
    let active = ccmx_linalg::crt::active_backend().id();
    let mut moves = Vec::new();
    for (keyspace, label) in [
        (Keyspace::BOUNDS, "bounds"),
        (Keyspace::CC, "cc"),
        (Keyspace::CRT, "crt"),
    ] {
        store.for_each(keyspace, |key, value| {
            let rekeyed = rekey(keyspace, key, value, active);
            moves.push((keyspace, label, key.to_vec(), rekeyed));
        });
    }
    for (keyspace, label, old, rekeyed) in moves {
        let moved = match &rekeyed {
            Some((key, value)) => store.put(Keyspace::VERDICT, key, value),
            None => Ok(()),
        };
        if let Err(e) = moved.and_then(|()| store.delete(keyspace, &old)) {
            return write_failed(e);
        }
        let outcome = match rekeyed {
            Some(_) => "ccmx_store_legacy_rekeyed_total",
            None => "ccmx_store_legacy_dropped_total",
        };
        ccmx_obs::registry()
            .counter(outcome, &[("keyspace", label)])
            .inc();
    }
    if let Err(e) = store.sync() {
        write_failed(e);
    }
}

/// The `VERDICT` key and value of a legacy `bounds` or `cc` record, or
/// `None` for a `crt` record or one that does not decode. A legacy key
/// is its request's fields in wire order, without the request's wire
/// tag (1 for `Bounds`, 6 for `CcSearch`). Bounds keys then name the
/// backend that certified them; `cc` keys never did, and the old server
/// trusted them under any backend, so they re-key under the active one.
fn rekey(keyspace: Keyspace, key: &[u8], value: &[u8], active: &str) -> Option<(Vec<u8>, Vec<u8>)> {
    let (tag, answer) = match keyspace {
        Keyspace::BOUNDS => (
            1,
            Response::Bounds(BoundsReport::from_wire_bytes(value).ok()?),
        ),
        Keyspace::CC => (6, Response::from_wire_bytes(value).ok()?),
        _ => return None,
    };
    let bytes = [&[tag], key].concat();
    let mut d = Dec::new(&bytes);
    let req = Request::take(&mut d).ok()?;
    let backend = match req {
        Request::Bounds { .. } => String::take(&mut d).ok()?,
        _ if matches!(answer, Response::CcSearch { .. }) => active.to_string(),
        _ => return None,
    };
    d.finish().ok()?;
    Some((cache::key_under(&req, &backend), answer.to_wire_bytes()))
}

// ----------------------------------------------------------------------
// RUN keyspace
// ----------------------------------------------------------------------

/// Encode a committed idempotent run: both agents' [`RunResult`]s, the
/// committed wire stats, and the attempt count. The `replayed` flag is
/// *not* stored — it describes a call, not a result, and the replay
/// path recomputes it.
pub(crate) fn encode_run(run: &crate::retry::IdempotentRun) -> Vec<u8> {
    let mut out = Vec::new();
    run.result_a.put(&mut out);
    run.result_b.put(&mut out);
    run.stats.msgs_sent.put(&mut out);
    run.stats.msgs_received.put(&mut out);
    run.stats.bits_sent.put(&mut out);
    run.stats.bits_received.put(&mut out);
    run.stats.raw_bytes_sent.put(&mut out);
    run.stats.raw_bytes_received.put(&mut out);
    run.attempts.put(&mut out);
    out
}

/// Decode a committed idempotent run.
pub(crate) fn decode_run(bytes: &[u8]) -> Option<crate::retry::IdempotentRun> {
    let mut d = Dec::new(bytes);
    let result_a = ccmx_comm::RunResult::take(&mut d).ok()?;
    let result_b = ccmx_comm::RunResult::take(&mut d).ok()?;
    let stats = crate::transport::TransportStats {
        msgs_sent: usize::take(&mut d).ok()?,
        msgs_received: usize::take(&mut d).ok()?,
        bits_sent: usize::take(&mut d).ok()?,
        bits_received: usize::take(&mut d).ok()?,
        raw_bytes_sent: usize::take(&mut d).ok()?,
        raw_bytes_received: usize::take(&mut d).ok()?,
    };
    let attempts = u32::take(&mut d).ok()?;
    d.finish().ok()?;
    Some(crate::retry::IdempotentRun {
        result_a,
        result_b,
        stats,
        replayed: false,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legacy_bounds_key(n: usize, k: u32, security: u32, backend: &str) -> Vec<u8> {
        let mut key = Vec::new();
        n.put(&mut key);
        k.put(&mut key);
        security.put(&mut key);
        backend.to_string().put(&mut key);
        key
    }

    #[test]
    fn legacy_records_rekey_under_their_exact_request() {
        let report = BoundsReport {
            n: 17,
            k: 4,
            security: 40,
            lower_bound_bits: 1.5,
            deterministic_upper_bits: 2.5,
            randomized_upper_bits: 3.5,
        };
        let key = legacy_bounds_key(17, 4, 40, "rational");
        let (new_key, value) = rekey(Keyspace::BOUNDS, &key, &report.to_wire_bytes(), "crt")
            .expect("a decodable legacy bounds record");
        let req = Request::Bounds {
            n: 17,
            k: 4,
            security: 40,
        };
        assert_eq!(new_key, cache::key_under(&req, "rational"), "backend kept");
        assert_eq!(value, Response::Bounds(report).to_wire_bytes());
        assert_eq!(
            rekey(Keyspace::BOUNDS, &key[..key.len() - 1], &value, "crt"),
            None
        );

        let bits = ccmx_comm::BitString::from_bits(vec![true, false, false, true]);
        let mut key = Vec::new();
        2usize.put(&mut key);
        2usize.put(&mut key);
        bits.put(&mut key);
        32u32.put(&mut key);
        let answer = Response::CcSearch {
            cc: 3,
            exact: true,
            nodes: 1,
            certificate: Vec::new(),
        };
        let (new_key, value) = rekey(Keyspace::CC, &key, &answer.to_wire_bytes(), "crt")
            .expect("a decodable legacy cc record");
        let req = Request::CcSearch {
            rows: 2,
            cols: 2,
            bits,
            depth_limit: 32,
        };
        assert_eq!(new_key, cache::key_under(&req, "crt"));
        assert_eq!(value, answer.to_wire_bytes());
        let not_cc = Response::Singularity { singular: true }.to_wire_bytes();
        assert_eq!(rekey(Keyspace::CC, &key, &not_cc, "crt"), None);
    }
}
