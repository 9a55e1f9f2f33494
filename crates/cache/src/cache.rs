//! The compile cache proper: lookup/insert over the byte-budgeted LRU
//! plus in-flight request coalescing.
//!
//! # Coalescing protocol
//!
//! [`CompileCache::begin`] is the single entry point for full results:
//!
//! * cached → [`Begin::Hit`] with the shared outcome;
//! * nobody compiling this key → [`Begin::Lead`]: the caller compiles and
//!   must resolve its [`LeadGuard`] via `complete` or `fail`;
//! * someone already compiling → [`Begin::Follow`]: the caller parks on
//!   [`FollowGuard::poll`], which bounds each wait so the service layer
//!   can interleave its own deadline/cancel checkpoints.
//!
//! Dropping a `LeadGuard` unresolved (worker panic, early return) marks
//! the flight abandoned and wakes every follower, whose next `poll`
//! reports [`FollowStatus::Abandoned`] — the follower then compiles
//! itself rather than hanging on a corpse. Failures are shared: a
//! `CompileError` is `Clone`, so every coalesced waiter gets the same
//! error the leader saw without re-running a doomed compile.
//!
//! Counter semantics are exact, not sampled: a burst of N identical
//! concurrent requests records 1 miss and N−1 coalesced waits; once the
//! result is resident, later requests record hits.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ecmas_core::error::CompileError;
use ecmas_core::session::{CacheInfo, CacheSource, CompileOutcome};

use crate::key::CompileKey;
use crate::lru::Lru;

/// Compile-cache sizing.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Estimated-byte budget for resident full results (see
    /// [`estimate_outcome_bytes`]). The resident total never exceeds this.
    pub byte_budget: u64,
}

impl Default for CacheConfig {
    /// 64 MiB — the `ecmasd` daemon default.
    fn default() -> Self {
        CacheConfig { byte_budget: 64 * 1024 * 1024 }
    }
}

/// A point-in-time snapshot of the cache-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-result hits (excluding coalesced waits).
    pub hits: u64,
    /// Full-result misses (each started one real compile).
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently resident.
    pub resident_bytes: u64,
    /// Requests that waited on an identical in-flight compile.
    pub coalesced_waits: u64,
    /// Full results currently resident.
    pub entries: usize,
}

enum FlightState {
    Running,
    Done(Result<Arc<CompileOutcome>, CompileError>),
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    wake: Condvar,
}

struct Inner {
    lru: Lru<Arc<CompileOutcome>>,
    inflight: HashMap<CompileKey, Arc<Flight>>,
    hits: u64,
    misses: u64,
    coalesced_waits: u64,
}

/// The content-addressed compile cache (see the [crate docs](crate)).
///
/// All methods take `&self`; the cache is shared across service workers
/// behind an `Arc`.
pub struct CompileCache {
    config: CacheConfig,
    inner: Mutex<Inner>,
}

/// What [`CompileCache::begin`] resolved a key to.
pub enum Begin {
    /// Already cached: the shared finished outcome.
    Hit(Arc<CompileOutcome>),
    /// Nobody is compiling this key: the caller is now the leader and
    /// must resolve the guard.
    Lead(LeadGuard),
    /// An identical compile is in flight: park on the guard.
    Follow(FollowGuard),
}

/// The leader's obligation for one in-flight key: exactly one of
/// [`complete`](Self::complete) / [`fail`](Self::fail), or a drop that
/// abandons the flight and wakes the followers.
pub struct LeadGuard {
    cache: Arc<CompileCache>,
    key: CompileKey,
    flight: Arc<Flight>,
    resolved: bool,
}

/// A follower's handle on an in-flight compile.
pub struct FollowGuard {
    flight: Arc<Flight>,
}

/// One bounded wait on an in-flight compile.
pub enum FollowStatus {
    /// The leader finished: its (shared) result or its (shared) error.
    Ready(Result<Arc<CompileOutcome>, CompileError>),
    /// The leader vanished without resolving; compile it yourself.
    Abandoned,
    /// Still compiling when the timeout elapsed; checkpoint and re-poll.
    Pending,
}

impl CompileCache {
    /// Creates a cache behind an `Arc` (guards hold a back-reference).
    #[must_use]
    pub fn new(config: CacheConfig) -> Arc<Self> {
        Arc::new(CompileCache {
            config,
            inner: Mutex::new(Inner {
                lru: Lru::new(config.byte_budget),
                inflight: HashMap::new(),
                hits: 0,
                misses: 0,
                coalesced_waits: 0,
            }),
        })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Resolves a full-result key: hit, lead, or follow (see the
    /// [crate docs](crate)).
    #[must_use]
    pub fn begin(self: &Arc<Self>, key: CompileKey) -> Begin {
        let mut inner = self.lock();
        if let Some(outcome) = inner.lru.get(&key) {
            let outcome = Arc::clone(outcome);
            inner.hits += 1;
            return Begin::Hit(outcome);
        }
        if let Some(flight) = inner.inflight.get(&key) {
            let flight = Arc::clone(flight);
            inner.coalesced_waits += 1;
            return Begin::Follow(FollowGuard { flight });
        }
        let flight =
            Arc::new(Flight { state: Mutex::new(FlightState::Running), wake: Condvar::new() });
        inner.inflight.insert(key, Arc::clone(&flight));
        inner.misses += 1;
        Begin::Lead(LeadGuard { cache: Arc::clone(self), key, flight, resolved: false })
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.lru.evictions(),
            resident_bytes: inner.lru.resident_bytes(),
            coalesced_waits: inner.coalesced_waits,
            entries: inner.lru.len(),
        }
    }

    /// The counters as the [`CacheInfo`] stamped onto a report produced
    /// with the given `source`.
    #[must_use]
    pub fn info(&self, source: CacheSource) -> CacheInfo {
        let stats = self.stats();
        CacheInfo {
            source,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            resident_bytes: stats.resident_bytes,
            coalesced_waits: stats.coalesced_waits,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the cache lock abandons its flight via
        // the LeadGuard drop, which needs the lock again — so poisoning
        // is cleared rather than propagated; the protected state is
        // counters and maps, all valid at every await point.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Estimated resident cost of a finished outcome: the event stream
/// (with every path cell), the mapping, and the report.
#[must_use]
pub fn estimate_outcome_bytes(outcome: &CompileOutcome) -> u64 {
    let events = outcome.encoded.events();
    let path_cells: usize =
        events.iter().map(|e| e.kind.path().map_or(0, |p| p.cells().len())).sum();
    let fixed = 512u64;
    fixed
        + 72 * events.len() as u64
        + 8 * path_cells as u64
        + 8 * outcome.encoded.mapping().len() as u64
}

impl LeadGuard {
    /// Publishes the leader's finished outcome: inserts it into the LRU,
    /// retires the flight, wakes every follower, and returns the shared
    /// outcome (so the leader itself serves the same allocation).
    #[must_use]
    pub fn complete(mut self, outcome: CompileOutcome) -> Arc<CompileOutcome> {
        let shared = Arc::new(outcome);
        let cost = estimate_outcome_bytes(&shared);
        {
            let mut inner = self.cache.lock();
            inner.lru.insert(self.key, Arc::clone(&shared), cost);
            inner.inflight.remove(&self.key);
        }
        self.resolve(FlightState::Done(Ok(Arc::clone(&shared))));
        shared
    }

    /// Publishes the leader's failure to every follower (errors are
    /// `Clone`, so nobody re-runs the doomed compile) without caching it.
    pub fn fail(mut self, error: CompileError) {
        self.cache.lock().inflight.remove(&self.key);
        self.resolve(FlightState::Done(Err(error)));
    }

    fn resolve(&mut self, state: FlightState) {
        self.resolved = true;
        *self.flight.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = state;
        self.flight.wake.notify_all();
    }
}

impl Drop for LeadGuard {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.lock().inflight.remove(&self.key);
            self.resolve(FlightState::Abandoned);
        }
    }
}

impl FollowGuard {
    /// Waits up to `timeout` for the leader. [`FollowStatus::Pending`]
    /// means the timeout elapsed first — run a cancellation/deadline
    /// checkpoint and poll again.
    #[must_use]
    pub fn poll(&self, timeout: Duration) -> FollowStatus {
        let state = self.flight.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (state, _timed_out) = self
            .flight
            .wake
            .wait_timeout_while(state, timeout, |s| matches!(s, FlightState::Running))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*state {
            FlightState::Running => FollowStatus::Pending,
            FlightState::Done(result) => FollowStatus::Ready(result.clone()),
            FlightState::Abandoned => FollowStatus::Abandoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    use ecmas_chip::{Chip, CodeModel};
    use ecmas_circuit::Circuit;
    use ecmas_core::compiler::Ecmas;
    use ecmas_core::session::Compiler;

    use crate::key::full_key;

    fn outcome() -> (CompileOutcome, CompileKey) {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let out = Ecmas::default().compile_outcome(&c, &chip).unwrap();
        (out, full_key(&c, &chip))
    }

    #[test]
    fn miss_then_hit_shares_one_allocation() {
        let cache = CompileCache::new(CacheConfig::default());
        let (out, key) = outcome();
        let lead = match cache.begin(key) {
            Begin::Lead(lead) => lead,
            _ => panic!("empty cache must lead"),
        };
        let shared = lead.complete(out);
        match cache.begin(key) {
            Begin::Hit(hit) => assert!(Arc::ptr_eq(&hit, &shared)),
            _ => panic!("second begin must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cache = CompileCache::new(CacheConfig::default());
        let (out, key) = outcome();
        let lead = match cache.begin(key) {
            Begin::Lead(lead) => lead,
            _ => panic!("first begin must lead"),
        };
        const FOLLOWERS: usize = 4;
        let start = Arc::new(Barrier::new(FOLLOWERS + 1));
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let start = Arc::clone(&start);
                    s.spawn(move || {
                        let follow = match cache.begin(key) {
                            Begin::Follow(f) => f,
                            _ => panic!("in-flight key must coalesce"),
                        };
                        start.wait();
                        loop {
                            match follow.poll(Duration::from_millis(50)) {
                                FollowStatus::Ready(result) => return result.unwrap(),
                                FollowStatus::Pending => {}
                                FollowStatus::Abandoned => panic!("leader abandoned"),
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            let shared = lead.complete(out);
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (shared, results)
        });
        let (shared, followed) = results;
        for r in &followed {
            assert!(Arc::ptr_eq(r, &shared), "followers share the leader's allocation");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one burst, one compile");
        assert_eq!(stats.coalesced_waits, FOLLOWERS as u64);
    }

    #[test]
    fn abandoned_lead_wakes_followers() {
        let cache = CompileCache::new(CacheConfig::default());
        let (_, key) = outcome();
        let lead = match cache.begin(key) {
            Begin::Lead(lead) => lead,
            _ => panic!(),
        };
        let follow = match cache.begin(key) {
            Begin::Follow(f) => f,
            _ => panic!(),
        };
        drop(lead);
        match follow.poll(Duration::from_secs(5)) {
            FollowStatus::Abandoned => {}
            _ => panic!("drop without resolve must abandon"),
        }
        // The key is free again: a new begin leads.
        assert!(matches!(cache.begin(key), Begin::Lead(_)));
    }

    #[test]
    fn failures_are_shared_not_cached() {
        let cache = CompileCache::new(CacheConfig::default());
        let (_, key) = outcome();
        let lead = match cache.begin(key) {
            Begin::Lead(lead) => lead,
            _ => panic!(),
        };
        let follow = match cache.begin(key) {
            Begin::Follow(f) => f,
            _ => panic!(),
        };
        lead.fail(CompileError::TooManyQubits { qubits: 9, slots: 4 });
        match follow.poll(Duration::from_secs(5)) {
            FollowStatus::Ready(Err(CompileError::TooManyQubits { qubits: 9, slots: 4 })) => {}
            _ => panic!("follower must see the shared error"),
        }
        assert!(matches!(cache.begin(key), Begin::Lead(_)), "errors are not cached");
        assert_eq!(cache.stats().entries, 0);
    }
}
