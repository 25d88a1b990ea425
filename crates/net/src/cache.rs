//! The server's verdict cache, and the LRU map under it.
//!
//! [`VerdictCache`] holds every certified answer the server hands out —
//! Theorem 1.1 bounds, exact singularity verdicts, exact `CC(f)` — keyed
//! on the exact request ([`verdict_key`]), never on anything weaker. Its
//! lock covers map operations only. A miss claims its key and computes
//! outside the lock, so a cached answer never waits behind a search; an
//! identical request arriving meanwhile parks until the claim ends
//! instead of computing again. A compute that panics ends its claim
//! without an answer; the first parked request to retry computes.
//!
//! [`LruCache`] is a hash index over slots threaded on a circular
//! recency list: lookups, inserts and evictions are all O(1).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use parking_lot::{Condvar, Mutex};

use crate::api::{Request, Response};
use crate::wire::WireCodec;

/// Least-recently-used map with a fixed capacity.
pub struct LruCache<K, V> {
    index: HashMap<K, usize>,
    /// Entry `i` lives at `entries[i - 1]`, in a slot that never moves.
    entries: Vec<(K, V)>,
    /// `[prev, next]` of entry `i` in a circular recency list, most
    /// recent first; `links[0]` is the list's sentinel.
    links: Vec<[usize; 2]>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// New cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            index: HashMap::new(),
            entries: Vec::new(),
            links: vec![[0, 0]],
            capacity: capacity.max(1),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.entries[i - 1].1.clone())
    }

    /// Insert `key → value` as the most recent entry. When the cache is
    /// full and `key` is new, the least recently used entry makes room
    /// and is returned.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        let mut evicted = None;
        let i = if let Some(&i) = self.index.get(&key) {
            self.entries[i - 1].1 = value;
            self.unlink(i);
            i
        } else if self.entries.len() < self.capacity {
            self.entries.push((key.clone(), value));
            self.links.push([0, 0]);
            self.index.insert(key, self.entries.len());
            self.entries.len()
        } else {
            let i = self.links[0][0];
            self.unlink(i);
            let old = std::mem::replace(&mut self.entries[i - 1], (key.clone(), value));
            self.index.remove(&old.0);
            self.index.insert(key, i);
            evicted = Some(old);
            i
        };
        self.push_front(i);
        evicted
    }

    fn unlink(&mut self, i: usize) {
        let [prev, next] = self.links[i];
        self.links[prev][1] = next;
        self.links[next][0] = prev;
    }

    fn push_front(&mut self, i: usize) {
        let first = self.links[0][1];
        self.links[i] = [0, first];
        self.links[first][0] = i;
        self.links[0][1] = i;
    }
}

/// Counters of one [`VerdictCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Answers served without computing, counting requests that waited
    /// for an identical request's compute.
    pub hits: u64,
    /// Answers computed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// The request kinds the cache holds: the `Request` wire tag leading
/// their keys, the `Response` wire tag of their answers, and the
/// `cache` label of their metrics.
const KINDS: [(u8, u8, &str); 3] = [(1, 1, "bounds"), (3, 3, "sing"), (6, 7, "cc")];

fn kind_of(key: &[u8]) -> Option<usize> {
    KINDS
        .iter()
        .position(|&(tag, _, _)| key.first() == Some(&tag))
}

/// The exact cache identity of a request: its canonical wire bytes
/// followed by the active exact-arithmetic backend id. The wire form of
/// a request is prefix-free, so two keys are equal only for the same
/// request under the same backend, and an engine upgrade never serves
/// another engine's verdicts. The cluster routes on a hash of these
/// bytes, so a request lands on the shard that caches it.
pub fn verdict_key(req: &Request) -> Vec<u8> {
    key_under(req, ccmx_linalg::crt::active_backend().id())
}

/// [`verdict_key`] under a named backend.
pub(crate) fn key_under(req: &Request, backend: &str) -> Vec<u8> {
    let mut key = req.to_wire_bytes();
    key.extend_from_slice(backend.as_bytes());
    key
}

struct Slots {
    lru: LruCache<Vec<u8>, Response>,
    /// Keys being computed; identical requests wait for them.
    claimed: HashSet<Vec<u8>>,
    stats: CacheStats,
}

/// The server's single-flight cache of certified verdicts; see the
/// module docs.
pub struct VerdictCache {
    slots: Mutex<Slots>,
    /// Signalled whenever a claim ends.
    released: Condvar,
    /// `ccmx_cache_{hits,misses,evictions}_total` by kind. Unlike
    /// [`CacheStats`] they outlive the cache, so totals aggregate across
    /// server restarts.
    hits: [&'static ccmx_obs::Counter; KINDS.len()],
    misses: [&'static ccmx_obs::Counter; KINDS.len()],
    evictions: [&'static ccmx_obs::Counter; KINDS.len()],
}

impl VerdictCache {
    /// An empty cache holding at most `capacity` verdicts (min 1).
    pub fn new(capacity: usize) -> Self {
        let series = |name: &'static str| {
            KINDS.map(|(_, _, label)| ccmx_obs::registry().counter(name, &[("cache", label)]))
        };
        VerdictCache {
            slots: Mutex::new(Slots {
                lru: LruCache::new(capacity),
                claimed: HashSet::new(),
                stats: CacheStats::default(),
            }),
            released: Condvar::new(),
            hits: series("ccmx_cache_hits_total"),
            misses: series("ccmx_cache_misses_total"),
            evictions: series("ccmx_cache_evictions_total"),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.slots.lock().stats
    }

    /// The verdict for `key` (a [`verdict_key`]), and whether this call
    /// computed it. On a miss `compute` runs with no lock held. Keys of
    /// a kind the cache does not hold are computed every time, uncounted.
    pub fn resolve(&self, key: &[u8], compute: impl FnOnce() -> Response) -> (Response, bool) {
        let Some(kind) = kind_of(key) else {
            return (compute(), true);
        };
        let mut slots = self.slots.lock();
        loop {
            if let Some(resp) = slots.lru.get(key) {
                slots.stats.hits += 1;
                self.hits[kind].inc();
                return (resp, false);
            }
            if !slots.claimed.contains(key) {
                break;
            }
            self.released.wait(&mut slots);
        }
        slots.claimed.insert(key.to_vec());
        slots.stats.misses += 1;
        self.misses[kind].inc();
        drop(slots);
        let answer = catch_unwind(AssertUnwindSafe(compute));
        let mut slots = self.slots.lock();
        slots.claimed.remove(key);
        if let Ok(resp) = &answer {
            self.insert(&mut slots, key.to_vec(), resp.clone());
        }
        drop(slots);
        self.released.notify_all();
        match answer {
            Ok(resp) => (resp, true),
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Warm-start one stored record verbatim: `key` as the server wrote
    /// it, `value` its answer's wire bytes. Seeds nothing, and returns
    /// false, unless the value decodes as an answer of the key's kind.
    pub fn seed(&self, key: &[u8], value: &[u8]) -> bool {
        match kind_of(key) {
            Some(kind) if value.first() == Some(&KINDS[kind].1) => {}
            _ => return false,
        }
        let Ok(resp) = Response::from_wire_bytes(value) else {
            return false;
        };
        self.insert(&mut self.slots.lock(), key.to_vec(), resp);
        true
    }

    fn insert(&self, slots: &mut Slots, key: Vec<u8>, resp: Response) {
        if let Some((old, _)) = slots.lru.put(key, resp) {
            slots.stats.evictions += 1;
            if let Some(kind) = kind_of(&old) {
                self.evictions[kind].inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    #[test]
    fn hit_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // "a" is now the freshest
        assert_eq!(c.put("c", 3), Some(("b", 2))); // evicts "b", not "a"
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(3));
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = LruCache::new(3);
        for i in 0..10 {
            c.put(i, i * i);
        }
        assert_eq!((7..10).filter(|i| c.get(i).is_some()).count(), 3);
        assert_eq!(c.get(&9), Some(81));
        assert_eq!(c.get(&6), None);
    }

    #[test]
    fn eviction_follows_recency_through_many_reuses() {
        // Every slot is recycled several times; the survivors must be
        // exactly the `cap` most recently touched keys.
        let cap = 5;
        let mut c = LruCache::new(cap);
        let mut order: Vec<u32> = Vec::new();
        for i in 0..200u32 {
            let key = (i * 7) % 13;
            if i % 3 == 0 {
                if c.get(&key).is_some() {
                    order.retain(|&k| k != key);
                    order.push(key);
                }
            } else {
                let evicted = c.put(key, i);
                order.retain(|&k| k != key);
                order.push(key);
                if order.len() > cap {
                    assert_eq!(evicted.map(|(k, _)| k), Some(order.remove(0)));
                } else {
                    assert_eq!(evicted, None);
                }
            }
        }
        for key in order {
            assert!(c.get(&key).is_some(), "recent key {key} was evicted");
        }
    }

    #[test]
    fn overwrite_same_key_does_not_evict() {
        let mut c = LruCache::new(2);
        assert_eq!(c.put("a", 1), None);
        assert_eq!(c.put("a", 2), None);
        assert_eq!(c.put("b", 3), None);
        assert_eq!(c.get(&"a"), Some(2));
        assert_eq!(c.get(&"b"), Some(3));
    }

    fn bounds_req(n: usize) -> Request {
        Request::Bounds {
            n,
            k: 3,
            security: 20,
        }
    }

    #[test]
    fn backend_id_in_key_separates_entries() {
        // Regression: a verdict certified under one exact-arithmetic
        // backend must never answer a lookup under another — an engine
        // upgrade starts cold, not stale.
        let rational = ccmx_linalg::crt::Backend::RationalGauss.id();
        let crt = ccmx_linalg::crt::Backend::MontgomeryCrt.id();
        assert_ne!(rational, crt);
        let req = bounds_req(7);
        assert_ne!(key_under(&req, rational), key_under(&req, crt));
        let cache = VerdictCache::new(8);
        let (_, fresh) = cache.resolve(&key_under(&req, rational), || Response::Pong);
        assert!(fresh);
        let (_, fresh) = cache.resolve(&key_under(&req, crt), || Response::Pong);
        assert!(fresh, "cross-backend hit");
        // And the active backend id is one of the declared ones.
        let active = ccmx_linalg::crt::active_backend().id();
        assert!(["rational", "bareiss", "crt"].contains(&active));
    }

    #[test]
    fn kinds_follow_the_request_wire_tags() {
        let sing = Request::Singularity {
            dim: 1,
            k: 1,
            input: ccmx_comm::BitString::from_u64(1, 2),
        };
        let cc = Request::CcSearch {
            rows: 1,
            cols: 1,
            bits: ccmx_comm::BitString::from_u64(1, 1),
            depth_limit: 4,
        };
        for (req, label) in [(bounds_req(5), "bounds"), (sing, "sing"), (cc, "cc")] {
            let kind = kind_of(&verdict_key(&req)).expect("a cached kind");
            assert_eq!(KINDS[kind].2, label);
        }
        assert_eq!(kind_of(&verdict_key(&Request::Ping)), None);
        // An uncached kind is computed every time and never counted.
        let cache = VerdictCache::new(4);
        let key = verdict_key(&Request::Ping);
        for _ in 0..2 {
            assert_eq!(
                cache.resolve(&key, || Response::Pong),
                (Response::Pong, true)
            );
        }
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn resolve_computes_once_then_hits() {
        let cache = VerdictCache::new(4);
        let key = verdict_key(&bounds_req(5));
        let mut calls = 0;
        for _ in 0..3 {
            let (resp, _) = cache.resolve(&key, || {
                calls += 1;
                Response::Error(format!("call {calls}"))
            });
            assert_eq!(resp, Response::Error("call 1".into()));
        }
        assert_eq!(calls, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 0));
    }

    #[test]
    fn a_hit_is_not_held_up_by_a_compute_in_progress() {
        let cache = Arc::new(VerdictCache::new(4));
        let cached = verdict_key(&bounds_req(5));
        cache.resolve(&cached, || Response::Pong);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let slow = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.resolve(&verdict_key(&bounds_req(7)), || {
                    started_tx.send(()).unwrap();
                    // Held until the hit below has returned, or until a
                    // watchdog gives up, so a lock held across compute
                    // fails the order check instead of hanging.
                    let _ = release_rx.recv_timeout(std::time::Duration::from_secs(10));
                    Response::Error("slow".into())
                })
            })
        };
        started_rx.recv().unwrap();
        let (resp, fresh) = cache.resolve(&cached, || unreachable!("cached"));
        let released_first = release_tx.send(()).is_err();
        assert!(!released_first, "the hit waited for the slow compute");
        assert_eq!((resp, fresh), (Response::Pong, false));
        assert!(slow.join().unwrap().1);
    }

    #[test]
    fn identical_misses_run_one_compute() {
        let cache = Arc::new(VerdictCache::new(4));
        let key = verdict_key(&bounds_req(9));
        let (started_tx, started_rx) = mpsc::channel();
        let (recomputed_tx, recomputed_rx) = mpsc::channel::<()>();
        let leader = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            std::thread::spawn(move || {
                cache.resolve(&key, || {
                    started_tx.send(()).unwrap();
                    // Held until a follower computes as well (no single
                    // flight), or long enough for every follower to park.
                    let _ = recomputed_rx.recv_timeout(std::time::Duration::from_millis(500));
                    Response::Error("answer".into())
                })
            })
        };
        started_rx.recv().unwrap();
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let (cache, key, recomputed) =
                    (Arc::clone(&cache), key.clone(), recomputed_tx.clone());
                std::thread::spawn(move || {
                    cache.resolve(&key, || {
                        let _ = recomputed.send(());
                        Response::Error("recomputed".into())
                    })
                })
            })
            .collect();
        assert!(leader.join().unwrap().1);
        for f in followers {
            assert_eq!(f.join().unwrap(), (Response::Error("answer".into()), false));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn a_panicking_compute_clears_its_slot_and_wakes_waiters() {
        let cache = Arc::new(VerdictCache::new(4));
        let key = verdict_key(&bounds_req(11));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            std::thread::spawn(move || {
                cache.resolve(&key, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("compute failed")
                })
            })
        };
        started_rx.recv().unwrap();
        // Parks on the leader's claim (or, arriving after the panic, finds
        // none); either way it computes the answer itself.
        let follower = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            std::thread::spawn(move || cache.resolve(&key, || Response::Error("retry".into())))
        };
        release_tx.send(()).unwrap();
        assert!(leader.join().is_err(), "the leader's panic propagates");
        assert_eq!(
            follower.join().unwrap(),
            (Response::Error("retry".into()), true)
        );
        // The claim is gone and the retry's answer is resident.
        assert_eq!(
            cache.resolve(&key, || unreachable!("cached")),
            (Response::Error("retry".into()), false)
        );
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn seed_takes_stored_records_verbatim() {
        let cache = VerdictCache::new(2);
        let key = verdict_key(&bounds_req(5));
        let wrong_kind = Response::Error("stored".into()).to_wire_bytes();
        assert!(!cache.seed(&key, &wrong_kind), "wrong kind");
        let answer = Response::Bounds(crate::api::BoundsReport {
            n: 5,
            k: 3,
            security: 20,
            lower_bound_bits: 1.0,
            deterministic_upper_bits: 2.0,
            randomized_upper_bits: 3.0,
        });
        assert!(!cache.seed(&key, &[1, 0]), "undecodable value");
        assert!(!cache.seed(&[], &answer.to_wire_bytes()), "empty key");
        assert!(cache.seed(&key, &answer.to_wire_bytes()));
        assert_eq!(cache.resolve(&key, || unreachable!()), (answer, false));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
    }

    #[test]
    fn metrics_outlive_the_cache_and_label_by_kind() {
        let reg = ccmx_obs::registry();
        let count = |name, label| reg.counter(name, &[("cache", label)]).get();
        let (hits, misses, evictions) = (
            count("ccmx_cache_hits_total", "bounds"),
            count("ccmx_cache_misses_total", "bounds"),
            count("ccmx_cache_evictions_total", "bounds"),
        );
        {
            let cache = VerdictCache::new(1);
            let (a, b) = (verdict_key(&bounds_req(5)), verdict_key(&bounds_req(7)));
            cache.resolve(&a, || Response::Pong);
            cache.resolve(&a, || Response::Pong);
            cache.resolve(&b, || Response::Pong); // evicts `a`
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 1
                }
            );
        } // cache dropped here
        assert!(count("ccmx_cache_hits_total", "bounds") > hits);
        assert!(count("ccmx_cache_misses_total", "bounds") >= misses + 2);
        assert!(count("ccmx_cache_evictions_total", "bounds") > evictions);
    }
}
