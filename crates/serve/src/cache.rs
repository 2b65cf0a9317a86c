//! Content-addressed result cache with single-flight deduplication and
//! TTL'd negative caching.
//!
//! Keys are a stable FNV-1a hash of the request *content* — the
//! pretty-printed kernel, the canonical schedule-script text, the target
//! name and the response-shaping options — so identical traffic hits
//! the cache regardless of which handle submitted it (the deterministic
//! fresh-name work makes pretty-printed procs a sound content address).
//!
//! Three entry states:
//!
//! * **InFlight** — a worker is computing this key. Identical
//!   submissions attach themselves as waiters and are all answered by
//!   the one computation (single-flight: N concurrent identical
//!   requests perform exactly one compilation).
//! * **Ready** — a cached success, stored with a checksum over its
//!   payload. Every hit re-validates the checksum; a mismatch
//!   (bit rot, or the injected `cache-corruption` fault) quarantines the
//!   entry and recomputes instead of serving corrupt data.
//! * **Failed** — a cached failure with a timestamp. Within
//!   [`ResultCache::negative_ttl`] identical requests are answered from
//!   the cache (a bad request cannot stampede the compiler); after the
//!   TTL the entry expires and the next request retries for real.
//!   Expired failures are also dropped whenever a new failure is stored,
//!   so a stream of distinct bad requests cannot grow the map without
//!   bound.

use crate::types::{CacheStatus, Delivery, ServeError, ServeOk, ServeResult};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Streaming FNV-1a hasher for building stable content keys.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Folds bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string plus a field separator (so `("ab","c")` and
    /// `("a","bc")` hash differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xFF])
    }

    /// Folds a little-endian u64.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checksum a cached success payload. Validated on every hit; the
/// injected `cache-corruption` fault flips it to simulate bit rot.
pub fn payload_checksum(ok: &ServeOk) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&ok.kernel)
        .write_str(ok.tier.name())
        .write_str(&ok.scheduled_ir);
    for d in &ok.diagnostics {
        h.write_str(d);
    }
    for d in &ok.degraded {
        h.write_str(d.from.name())
            .write_str(d.to.name())
            .write_str(d.reason.name());
    }
    if let Some(c) = &ok.c_code {
        h.write_str(c);
    }
    if let Some(e) = &ok.exec {
        h.write_u64(e.elems as u64).write_u64(e.checksum);
    }
    h.finish()
}

/// What `admit` decided for a submission.
pub(crate) enum Admission {
    /// Served from a validated cached success.
    Hit(std::sync::Arc<ServeOk>),
    /// Served from a TTL-fresh cached failure.
    NegativeHit(ServeError),
    /// Attached as a waiter to an identical in-flight computation.
    Joined,
    /// The caller must compute: the key is now in-flight with the
    /// caller's sender as its first (originating) waiter.
    Compute {
        /// A corrupt `Ready` entry was detected and quarantined on the
        /// way (the computation replaces it).
        recovered_corruption: bool,
    },
}

enum Entry {
    InFlight {
        /// Waiters with the cache status each should be delivered with:
        /// the first is the originating submission (`Miss`), later ones
        /// are coalesced (`Coalesced`).
        waiters: Vec<(Sender<Delivery>, CacheStatus)>,
    },
    Ready {
        value: std::sync::Arc<ServeOk>,
        checksum: u64,
    },
    Failed {
        error: ServeError,
        at: Instant,
    },
}

/// The map plus the order in which failures were stored.
#[derive(Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    /// `(stored at, key)` of every `Failed` entry, oldest first. A record
    /// may outlive its entry (the key was retried or failed again); it is
    /// then popped without removing anything.
    failures: VecDeque<(Instant, u64)>,
}

/// The service's result cache. All methods take `&self`; the map is
/// behind one mutex (entries are small: `Arc`s, senders, timestamps).
pub(crate) struct ResultCache {
    entries: Mutex<Entries>,
    /// How long cached failures stay authoritative.
    pub(crate) negative_ttl: Duration,
}

impl ResultCache {
    pub(crate) fn new(negative_ttl: Duration) -> Self {
        ResultCache {
            entries: Mutex::new(Entries::default()),
            negative_ttl,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        // A panicking worker cannot poison this lock into uselessness:
        // the map itself is always in a consistent state between
        // operations, so the poison flag is cleared by recovering the
        // guard.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits one submission for `key`: hit, negative hit, join, or
    /// compute (registering `tx` as the originating waiter).
    pub(crate) fn admit(&self, key: u64, tx: Sender<Delivery>) -> Admission {
        let mut entries = self.lock();
        let map = &mut entries.map;
        let mut recovered_corruption = false;
        match map.get_mut(&key) {
            Some(Entry::Ready { value, checksum }) => {
                if payload_checksum(value) == *checksum {
                    return Admission::Hit(value.clone());
                }
                // Corrupt payload: quarantine (drop the entry) and fall
                // through to a fresh computation.
                recovered_corruption = true;
                map.remove(&key);
            }
            Some(Entry::Failed { error, at }) => {
                if at.elapsed() < self.negative_ttl {
                    return Admission::NegativeHit(error.clone());
                }
                // TTL expired: the failure is no longer authoritative.
                map.remove(&key);
            }
            Some(Entry::InFlight { waiters }) => {
                waiters.push((tx, CacheStatus::Coalesced));
                return Admission::Joined;
            }
            None => {}
        }
        map.insert(
            key,
            Entry::InFlight {
                waiters: vec![(tx, CacheStatus::Miss)],
            },
        );
        Admission::Compute {
            recovered_corruption,
        }
    }

    /// Resolves an in-flight key with the computed result: delivers to
    /// every waiter and stores the entry (`Ready` for successes,
    /// `Failed` with the current time for failures). Storing a failure
    /// first drops every failure whose TTL has run out. Returns how many
    /// waiters were notified.
    ///
    /// `corrupt_stored` flips the stored checksum *atomically with the
    /// store* (the `cache-corruption` fault): the waiters of this
    /// computation still receive the intact result, but every later hit
    /// sees the mismatch. Injecting at store time (rather than after)
    /// leaves no window in which a racing submission could be served the
    /// entry pre-corruption and defeat the test.
    pub(crate) fn resolve(&self, key: u64, result: ServeResult, corrupt_stored: bool) -> usize {
        let mut entries = self.lock();
        let map = &mut entries.map;
        let waiters = match map.remove(&key) {
            Some(Entry::InFlight { waiters }) => waiters,
            // Not in flight (already rejected, or never admitted):
            // nothing to deliver, nothing to store.
            Some(other) => {
                map.insert(key, other);
                return 0;
            }
            None => Vec::new(),
        };
        match &result {
            Ok(value) => {
                let checksum = payload_checksum(value)
                    ^ if corrupt_stored {
                        0xDEAD_BEEF_DEAD_BEEF
                    } else {
                        0
                    };
                map.insert(
                    key,
                    Entry::Ready {
                        value: value.clone(),
                        checksum,
                    },
                );
            }
            Err(error) => {
                let at = Instant::now();
                map.insert(
                    key,
                    Entry::Failed {
                        error: error.clone(),
                        at,
                    },
                );
                entries.drop_expired_failures(self.negative_ttl);
                entries.failures.push_back((at, key));
            }
        }
        drop(entries);
        let notified = waiters.len();
        for (tx, status) in waiters {
            let _ = tx.send(Delivery {
                result: result.clone(),
                cache: status,
            });
        }
        notified
    }

    /// Rejects an in-flight key *without* caching the error (used for
    /// transient conditions — load shedding, shutdown — that must not
    /// poison future identical requests). Delivers `error` to every
    /// waiter and removes the entry.
    pub(crate) fn reject(&self, key: u64, error: ServeError) {
        let waiters = {
            let map = &mut self.lock().map;
            match map.remove(&key) {
                Some(Entry::InFlight { waiters }) => waiters,
                Some(other) => {
                    map.insert(key, other);
                    Vec::new()
                }
                None => Vec::new(),
            }
        };
        for (tx, status) in waiters {
            let _ = tx.send(Delivery {
                result: Err(error.clone()),
                cache: status,
            });
        }
    }

    /// Number of entries currently cached (any state).
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }
}

impl Entries {
    /// Removes the `Failed` entries stored more than `ttl` ago, oldest
    /// first, leaving any key that was recomputed since.
    fn drop_expired_failures(&mut self, ttl: Duration) {
        while let Some(&(at, key)) = self.failures.front() {
            if at.elapsed() < ttl {
                break;
            }
            self.failures.pop_front();
            if matches!(self.map.get(&key), Some(Entry::Failed { at: stored, .. }) if *stored == at)
            {
                self.map.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tier;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn ok_payload() -> Arc<ServeOk> {
        Arc::new(ServeOk {
            kernel: "k".into(),
            tier: Tier::VerifiedIr,
            degraded: vec![],
            diagnostics: vec![],
            c_code: None,
            exec: None,
            scheduled_ir: "proc k() {}".into(),
            trace: crate::types::RequestTrace::default(),
        })
    }

    #[test]
    fn single_flight_coalesces_waiters_and_resolves_all() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        let (tx3, rx3) = channel();
        assert!(matches!(cache.admit(7, tx1), Admission::Compute { .. }));
        assert!(matches!(cache.admit(7, tx2), Admission::Joined));
        assert!(matches!(cache.admit(7, tx3), Admission::Joined));
        let notified = cache.resolve(7, Ok(ok_payload()), false);
        assert_eq!(notified, 3);
        assert_eq!(rx1.recv().unwrap().cache, CacheStatus::Miss);
        assert_eq!(rx2.recv().unwrap().cache, CacheStatus::Coalesced);
        assert_eq!(rx3.recv().unwrap().cache, CacheStatus::Coalesced);
        // Next admission is a pure hit.
        let (tx4, rx4) = channel();
        assert!(matches!(cache.admit(7, tx4), Admission::Hit(_)));
        assert!(rx4.try_recv().is_err(), "hits are delivered by the caller");
    }

    #[test]
    fn negative_entries_expire_after_the_ttl() {
        let cache = ResultCache::new(Duration::from_millis(40));
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(1, tx), Admission::Compute { .. }));
        cache.resolve(1, Err(ServeError::Internal("boom".into())), false);
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(1, tx), Admission::NegativeHit(_)));
        std::thread::sleep(Duration::from_millis(60));
        let (tx, _rx) = channel();
        assert!(
            matches!(cache.admit(1, tx), Admission::Compute { .. }),
            "expired failure must be recomputed"
        );
    }

    #[test]
    fn a_failure_stored_again_outlives_its_first_record() {
        let ttl = Duration::from_millis(40);
        let cache = ResultCache::new(ttl);
        let fail = |key| {
            let (tx, _rx) = channel();
            assert!(matches!(cache.admit(key, tx), Admission::Compute { .. }));
            cache.resolve(key, Err(ServeError::Internal("boom".into())), false);
        };
        fail(1);
        std::thread::sleep(Duration::from_millis(60));
        // Key 1 fails again after its TTL; its first record is now stale.
        fail(1);
        fail(2);
        assert_eq!(cache.len(), 2, "the fresh failure of key 1 was dropped");
        std::thread::sleep(Duration::from_millis(60));
        fail(3);
        assert_eq!(cache.len(), 1, "expired failures stayed in the map");
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputed() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(9, tx), Admission::Compute { .. }));
        cache.resolve(9, Ok(ok_payload()), true);
        let (tx, _rx) = channel();
        match cache.admit(9, tx) {
            Admission::Compute {
                recovered_corruption,
            } => assert!(recovered_corruption),
            _ => panic!("corrupt entry must force a recompute"),
        }
    }

    #[test]
    fn reject_delivers_without_caching() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx, rx) = channel();
        assert!(matches!(cache.admit(4, tx), Admission::Compute { .. }));
        cache.reject(4, ServeError::Canceled);
        assert!(matches!(
            rx.recv().unwrap().result,
            Err(ServeError::Canceled)
        ));
        let (tx, _rx) = channel();
        assert!(
            matches!(cache.admit(4, tx), Admission::Compute { .. }),
            "rejected keys must not be negatively cached"
        );
    }

    #[test]
    fn fnv_separates_fields() {
        let mut a = Fnv::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
