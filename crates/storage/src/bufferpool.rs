//! The in-memory TLF cache (TC): parsed metadata entries plus a
//! GOP-granularity LRU buffer pool over encoded media.
//!
//! Buffering at GOP granularity improves temporal locality — a point
//! lookup that decoded GOP *k* will very likely need GOP *k* again
//! for the next predicted-frame request.
//!
//! ## Resilience
//!
//! The pool is where a misbehaving query can hurt everyone else, so
//! it carries three defenses:
//!
//! * **Timed waits.** Every condvar wait in this module (the
//!   single-flight rendezvous and the admission queue) is a
//!   `wait_timeout` loop that re-checks an abort condition each
//!   step, so a cancelled query never parks forever — this is the
//!   one sanctioned condvar-wait site in the workspace (lint rule
//!   R6).
//! * **Admission control.** Queries declare an estimated working set
//!   via [`BufferPool::admit`] before scanning. Over-budget
//!   admissions either wait with backpressure (bounded by a timeout)
//!   or fail fast with [`AdmitError::Overloaded`]; the returned
//!   [`Admission`] releases its reservation on drop, so admitted
//!   bytes always return to zero when queries finish, however they
//!   finish.
//! * **Per-query caps.** Entries are tagged with the admitting
//!   query's id; when a query exceeds [`BufferPool::set_query_cap`],
//!   its *own* least-recently-used pages are evicted first, so one
//!   scan cannot monopolise the cache.

use lightdb_container::MetadataFile;
use lightdb_index::rtree::RTree;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// How often a parked waiter wakes to re-check its abort condition.
/// Purely an abort-latency bound: successful loads and admission
/// releases notify the condvar immediately.
pub(crate) const WAIT_POLL: Duration = Duration::from_millis(2);

/// Cache key for one GOP of one media file.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GopKey {
    /// Absolute or TLF-relative media path (must be used consistently).
    pub media: String,
    /// GOP ordinal within the stream.
    pub gop: u64,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Bytes currently resident in the GOP cache. Invariant: always
    /// equals the sum of the resident entries' lengths and never
    /// exceeds the pool capacity.
    pub bytes: usize,
    /// Disk loads actually performed. With single-flight loading this
    /// can be smaller than `misses`: concurrent misses on one key
    /// coalesce into a single load.
    pub loads: u64,
    /// Loads performed by [`BufferPool::prefetch_gop`] readahead.
    /// Prefetch traffic never touches `hits`/`misses`, so the demand
    /// hit rate stays meaningful; every readahead is also counted in
    /// `loads` (it really did hit the disk).
    pub readaheads: u64,
}

impl PoolStats {
    /// Hit rate in `[0, 1]`; zero when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    bytes: Arc<Vec<u8>>,
    /// Monotonic stamp for LRU ordering.
    stamp: u64,
    /// The query that loaded this entry (admission tag); `None` for
    /// loads outside any governed query. A later hit by a different
    /// query does not transfer ownership — accounting follows the
    /// loader.
    owner: Option<u64>,
}

/// Single-flight rendezvous for one in-progress load: waiters block on
/// the condvar until the loading thread finishes (successfully or not).
/// Shared with [`crate::lru`], whose followers wait here too — every
/// condvar wait stays inside this module, the workspace's one
/// sanctioned wait site (lint rule R6).
#[derive(Debug)]
pub(crate) struct Flight {
    /// (finished, threads parked in [`Flight::wait_done`] right now).
    done: StdMutex<(bool, u32)>,
    cv: Condvar,
}

impl Flight {
    pub(crate) fn new() -> Flight {
        Flight {
            done: StdMutex::new((false, 0)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn finish(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        done.0 = true;
        // Nearly every flight lands with nobody waiting; `notify_all`
        // is a system call either way. The count is read under the
        // mutex a waiter holds until it is parked, so none is missed.
        if done.1 > 0 {
            self.cv.notify_all();
        }
    }

    /// Waits up to `step` for the flight to finish; returns whether it
    /// has. Part of the workspace's sanctioned timed-wait discipline
    /// (lint rule R6): waiters loop over this, re-checking their abort
    /// condition between steps, so a cancelled query never parks
    /// forever on a load it no longer wants.
    pub(crate) fn wait_done(&self, step: Duration) -> bool {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        if done.0 {
            return true;
        }
        done.1 += 1;
        let (mut done, _timed_out) = self
            .cv
            .wait_timeout(done, step)
            .unwrap_or_else(|e| e.into_inner());
        done.1 -= 1;
        done.0
    }
}

/// What [`BufferPool::admit`] does when the declared working set does
/// not currently fit under the admission limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Wait (with backpressure) for running queries to release their
    /// reservations, up to `timeout`; then give up as overloaded.
    Block { timeout: Duration },
    /// Fail immediately with [`AdmitError::Overloaded`].
    FailFast,
}

/// Why an admission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The reservation cannot be granted: either it exceeds the limit
    /// outright, or backpressure timed out / the policy was fail-fast.
    Overloaded {
        wanted: usize,
        admitted: usize,
        limit: usize,
    },
    /// The caller's abort condition fired while waiting.
    Aborted,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded {
                wanted,
                admitted,
                limit,
            } => write!(
                f,
                "admission refused: wanted {wanted} bytes with {admitted} \
                 already admitted of a {limit}-byte limit"
            ),
            AdmitError::Aborted => write!(f, "admission wait aborted"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A granted working-set reservation. Dropping it releases the bytes
/// and wakes queries waiting under backpressure — RAII guarantees the
/// reservation is returned however the query ends (success, error,
/// cancellation, panic).
#[derive(Debug)]
pub struct Admission<'p> {
    pool: &'p BufferPool,
    bytes: usize,
    /// Query id the reservation was granted to; entries loaded under
    /// it are tagged with this id for per-query cap accounting.
    query: u64,
    /// Session the admission is accounted to (server front-end);
    /// `None` for ungoverned / single-shot queries.
    session: Option<u64>,
}

impl Admission<'_> {
    /// The id entries loaded under this admission are tagged with.
    pub fn query_id(&self) -> u64 {
        self.query
    }

    /// The reserved byte count.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The session this reservation is accounted to, if any.
    pub fn session_id(&self) -> Option<u64> {
        self.session
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.pool.release_admission(self.bytes, self.session);
    }
}

struct AdmissionState {
    /// Sum of currently granted reservations.
    admitted: usize,
    /// Reservation limit (defaults to the pool capacity).
    limit: usize,
    /// Source of fresh query ids for admissions.
    next_query: u64,
    /// Outstanding reservation bytes per session tag, so a server can
    /// see which session is holding the pool. Entries are removed
    /// when they return to zero (the chaos no-leak invariant extends
    /// to this map: it must be empty when no queries run).
    session_admitted: HashMap<u64, usize>,
}

struct PoolInner {
    map: HashMap<GopKey, Entry>,
    /// Keys with a load in progress (single-flight markers).
    loading: HashMap<GopKey, Arc<Flight>>,
    clock: u64,
    stats: PoolStats,
    capacity_bytes: usize,
    /// Per-query resident cap; `0` = unlimited.
    query_cap: usize,
    /// Resident bytes per owning query (entries with an owner tag).
    owner_bytes: HashMap<u64, usize>,
    metadata: HashMap<(String, u64), Arc<MetadataFile>>,
    rtrees: HashMap<(String, u64), Arc<RTree<u64>>>,
}

impl PoolInner {
    /// Removes one entry, keeping byte and per-owner accounting in
    /// step. Returns the freed length (0 if the key was absent).
    fn remove_entry(&mut self, key: &GopKey) -> usize {
        let Some(e) = self.map.remove(key) else {
            return 0;
        };
        let len = e.bytes.len();
        self.stats.bytes -= len;
        if let Some(o) = e.owner {
            if let Some(b) = self.owner_bytes.get_mut(&o) {
                *b = b.saturating_sub(len);
                if *b == 0 {
                    self.owner_bytes.remove(&o);
                }
            }
        }
        len
    }

    /// Evicts least-recently-used entries until `stats.bytes` is within
    /// capacity. The just-inserted `protect` key is evicted only as a
    /// last resort: when every other entry is gone and the protected
    /// entry alone still exceeds capacity, it too is dropped, so an
    /// over-capacity payload is served to the caller but never stays
    /// resident and `stats.bytes <= capacity_bytes` always holds.
    fn evict_to_capacity(&mut self, protect: &GopKey) {
        while self.stats.bytes > self.capacity_bytes {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| *k != protect)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let victim = match victim {
                Some(v) => v,
                None => break, // only the protected entry remains
            };
            if self.remove_entry(&victim) > 0 {
                self.stats.evictions += 1;
            }
        }
        if self.stats.bytes > self.capacity_bytes && self.remove_entry(protect) > 0 {
            self.stats.evictions += 1;
        }
    }

    /// Enforces the per-query cap for `owner`: evicts that query's
    /// *own* least-recently-used entries (everyone else's pages are
    /// untouched) until it fits. Mirrors [`evict_to_capacity`]'s
    /// protect semantics: the fresh entry goes last, and if it alone
    /// exceeds the cap it is served but not retained.
    fn evict_query_overage(&mut self, owner: u64, protect: &GopKey) {
        if self.query_cap == 0 {
            return;
        }
        while self.owner_bytes.get(&owner).copied().unwrap_or(0) > self.query_cap {
            let victim = self
                .map
                .iter()
                .filter(|(k, e)| e.owner == Some(owner) && *k != protect)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let victim = match victim {
                Some(v) => v,
                None => break,
            };
            if self.remove_entry(&victim) > 0 {
                self.stats.evictions += 1;
            }
        }
        if self.owner_bytes.get(&owner).copied().unwrap_or(0) > self.query_cap
            && self.remove_entry(protect) > 0
        {
            self.stats.evictions += 1;
        }
    }
}

/// The buffer pool. Thread-safe; lock granularity is the whole pool
/// (LightDB is single-node and the pool is not a contention point —
/// encode/decode dominates). Misses load outside the lock, and
/// concurrent misses on the same key are **single-flight**: one thread
/// performs the disk read while the others wait for the result.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    /// Admission bookkeeping lives beside (not inside) the pool
    /// mutex: admission waits park on `admission_cv` and must never
    /// hold up cache traffic.
    admission: StdMutex<AdmissionState>,
    admission_cv: Condvar,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never locks: Debug must be safe to call while the pool
        // mutex is held (e.g. from a panic hook mid-critical-section).
        f.debug_struct("BufferPool").finish_non_exhaustive()
    }
}

impl BufferPool {
    /// Creates a pool bounded by `capacity_bytes` of GOP payloads.
    /// The admission limit defaults to the same figure; the per-query
    /// cap defaults to unlimited.
    pub fn new(capacity_bytes: usize) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                loading: HashMap::new(),
                clock: 0,
                stats: PoolStats::default(),
                capacity_bytes,
                query_cap: 0,
                owner_bytes: HashMap::new(),
                metadata: HashMap::new(),
                rtrees: HashMap::new(),
            }),
            admission: StdMutex::new(AdmissionState {
                admitted: 0,
                limit: capacity_bytes,
                next_query: 1,
                session_admitted: HashMap::new(),
            }),
            admission_cv: Condvar::new(),
        }
    }

    /// Changes the admission limit (how many declared working-set
    /// bytes may be outstanding at once). Waiters re-check on their
    /// next poll step.
    pub fn set_admission_limit(&self, bytes: usize) {
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        st.limit = bytes;
        self.admission_cv.notify_all();
    }

    /// Sets the per-query resident cap (`0` = unlimited). A query
    /// over its cap has its own LRU pages evicted first.
    pub fn set_query_cap(&self, bytes: usize) {
        self.inner.lock().query_cap = bytes;
    }

    /// Sum of currently granted admission reservations. The chaos
    /// harness asserts this returns to zero after every run.
    pub fn admitted(&self) -> usize {
        self.admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admitted
    }

    /// Resident bytes currently tagged to `query` (for tests and
    /// introspection).
    pub fn query_resident(&self, query: u64) -> usize {
        self.inner
            .lock()
            .owner_bytes
            .get(&query)
            .copied()
            .unwrap_or(0)
    }

    /// Declares an estimated working set of `bytes` for a new query
    /// and asks for admission. Under [`AdmitPolicy::Block`] the call
    /// waits (timed, re-checking `should_abort` every poll step) for
    /// running queries to release reservations; under
    /// [`AdmitPolicy::FailFast`] an over-budget request returns
    /// [`AdmitError::Overloaded`] immediately. A request larger than
    /// the limit itself can never be satisfied and fails fast under
    /// either policy. Dropping the returned [`Admission`] releases
    /// the reservation.
    pub fn admit(
        &self,
        bytes: usize,
        policy: AdmitPolicy,
        should_abort: &dyn Fn() -> bool,
    ) -> Result<Admission<'_>, AdmitError> {
        self.admit_for_session(bytes, policy, should_abort, None)
    }

    /// [`admit`](BufferPool::admit) with a session tag: the granted
    /// bytes are additionally accounted to `session` (see
    /// [`session_admitted`](BufferPool::session_admitted)) until the
    /// admission drops, so a multi-session server can attribute pool
    /// pressure to the session causing it.
    pub fn admit_for_session(
        &self,
        bytes: usize,
        policy: AdmitPolicy,
        should_abort: &dyn Fn() -> bool,
        session: Option<u64>,
    ) -> Result<Admission<'_>, AdmitError> {
        let start = Instant::now();
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if bytes > st.limit {
                // Can never fit; blocking would park forever.
                return Err(AdmitError::Overloaded {
                    wanted: bytes,
                    admitted: st.admitted,
                    limit: st.limit,
                });
            }
            if st.admitted + bytes <= st.limit {
                st.admitted += bytes;
                if let Some(s) = session {
                    *st.session_admitted.entry(s).or_insert(0) += bytes;
                }
                let query = st.next_query;
                st.next_query += 1;
                return Ok(Admission {
                    pool: self,
                    bytes,
                    query,
                    session,
                });
            }
            let timeout = match policy {
                AdmitPolicy::FailFast => {
                    return Err(AdmitError::Overloaded {
                        wanted: bytes,
                        admitted: st.admitted,
                        limit: st.limit,
                    });
                }
                AdmitPolicy::Block { timeout } => timeout,
            };
            if should_abort() {
                return Err(AdmitError::Aborted);
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return Err(AdmitError::Overloaded {
                    wanted: bytes,
                    admitted: st.admitted,
                    limit: st.limit,
                });
            }
            // Timed wait (R6 discipline): bounded by the remaining
            // budget so backpressure never becomes an untimed park.
            let step = WAIT_POLL.min(timeout - elapsed);
            let (guard, _timed_out) = self
                .admission_cv
                .wait_timeout(st, step)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    fn release_admission(&self, bytes: usize, session: Option<u64>) {
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        st.admitted = st.admitted.saturating_sub(bytes);
        if let Some(s) = session {
            if let Some(b) = st.session_admitted.get_mut(&s) {
                *b = b.saturating_sub(bytes);
                if *b == 0 {
                    st.session_admitted.remove(&s);
                }
            }
        }
        self.admission_cv.notify_all();
    }

    /// Outstanding reservation bytes currently accounted to `session`.
    pub fn session_admitted(&self, session: u64) -> usize {
        self.admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .session_admitted
            .get(&session)
            .copied()
            .unwrap_or(0)
    }

    /// Fetches a GOP, loading and caching through `load` on a miss.
    /// Ungoverned variant of [`get_gop_watch`]: no owner tag and no
    /// abort condition.
    pub fn get_gop<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<Arc<Vec<u8>>, E> {
        self.get_gop_watch(key, None, &|| false, load)
    }

    /// Fetches a GOP, loading and caching through `load` on a miss.
    ///
    /// Exactly one of `hits`/`misses` is bumped per call (decided at
    /// the first lookup). On a miss, at most one thread loads a given
    /// key at a time; threads that miss while a load is in flight wait
    /// for it and then re-check the cache instead of issuing their own
    /// disk read. If the in-flight load fails (or its entry is evicted
    /// before a waiter wakes), the waiter retries and may become the
    /// loader itself.
    ///
    /// `owner` tags the loaded entry for per-query cap accounting
    /// (see [`Admission::query_id`]). `should_abort` is polled while
    /// waiting on another thread's in-flight load; when it turns true
    /// the wait ends with an `io::Error` (callers translate it into
    /// their own cancellation/deadline error — the pool only promises
    /// not to park forever).
    pub fn get_gop_watch<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        owner: Option<u64>,
        should_abort: &dyn Fn() -> bool,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<Arc<Vec<u8>>, E> {
        let mut counted = false;
        let (flight, clock) = loop {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let hit = {
                let inner = &mut *inner;
                inner.map.get_mut(key).map(|e| {
                    e.stamp = clock;
                    e.bytes.clone()
                })
            };
            if let Some(bytes) = hit {
                if !counted {
                    inner.stats.hits += 1;
                }
                return Ok(bytes);
            }
            if !counted {
                inner.stats.misses += 1;
                counted = true;
            }
            if let Some(flight) = inner.loading.get(key).cloned() {
                // Another thread is loading this key: wait for it,
                // then re-check the cache. If that load failed or its
                // entry was already evicted, loop back and become the
                // loader ourselves. The wait is timed so an aborted
                // query stops waiting within one poll step.
                drop(inner);
                loop {
                    if flight.wait_done(WAIT_POLL) {
                        break;
                    }
                    if should_abort() {
                        return Err(E::from(std::io::Error::other(
                            "query aborted while waiting for an in-flight GOP load",
                        )));
                    }
                }
                continue;
            }
            // Become the loader for this key.
            let flight = Arc::new(Flight::new());
            inner.loading.insert(key.clone(), flight.clone());
            break (flight, clock);
        };
        // Don't hold the lock across the load: loads hit the disk.
        let result = crate::faults::fail_point(crate::faults::sites::BUFFERPOOL_LOAD)
            .map_err(E::from)
            .and_then(|()| load());
        let mut inner = self.inner.lock();
        inner.stats.loads += 1;
        inner.loading.remove(key);
        match result {
            Err(e) => {
                flight.finish();
                Err(e)
            }
            Ok(bytes) => {
                let bytes = Arc::new(bytes);
                // Account only the retained entry: a same-key
                // re-insert must release the replaced entry's bytes
                // (and its owner tag) before counting the new ones.
                if inner.map.contains_key(key) {
                    inner.remove_entry(key);
                }
                if let Some(o) = owner {
                    *inner.owner_bytes.entry(o).or_insert(0) += bytes.len();
                }
                inner.map.insert(
                    key.clone(),
                    Entry {
                        bytes: bytes.clone(),
                        stamp: clock,
                        owner,
                    },
                );
                inner.stats.bytes += bytes.len();
                if let Some(o) = owner {
                    inner.evict_query_overage(o, key);
                }
                inner.evict_to_capacity(key);
                flight.finish();
                Ok(bytes)
            }
        }
    }

    /// Warms the cache with a GOP the caller *predicts* will be
    /// demanded soon (tile-prediction readahead, GOP-index order).
    ///
    /// Best-effort and demand-neutral: if the key is already resident
    /// or another thread is loading it, this returns `Ok(false)`
    /// without touching any counter — prefetch must never inflate the
    /// demand hit rate or pile a second load onto an in-flight one.
    /// Otherwise the GOP is loaded under the same single-flight
    /// protocol as a demand miss (so a demand request arriving
    /// mid-prefetch waits for this load instead of reading the disk
    /// again), inserted with no owner tag, and counted in
    /// `stats.readaheads` (and `loads`); returns `Ok(true)`.
    pub fn prefetch_gop<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<bool, E> {
        let (flight, clock) = {
            let mut inner = self.inner.lock();
            if inner.map.contains_key(key) || inner.loading.contains_key(key) {
                return Ok(false);
            }
            inner.clock += 1;
            let clock = inner.clock;
            let flight = Arc::new(Flight::new());
            inner.loading.insert(key.clone(), flight.clone());
            (flight, clock)
        };
        // Don't hold the lock across the load: loads hit the disk.
        let result = crate::faults::fail_point(crate::faults::sites::BUFFERPOOL_LOAD)
            .map_err(E::from)
            .and_then(|()| load());
        let mut inner = self.inner.lock();
        inner.stats.loads += 1;
        inner.stats.readaheads += 1;
        inner.loading.remove(key);
        match result {
            Err(e) => {
                flight.finish();
                Err(e)
            }
            Ok(bytes) => {
                let bytes = Arc::new(bytes);
                let len = bytes.len();
                if inner.map.contains_key(key) {
                    inner.remove_entry(key);
                }
                inner.map.insert(
                    key.clone(),
                    Entry {
                        bytes,
                        stamp: clock,
                        owner: None,
                    },
                );
                inner.stats.bytes += len;
                inner.evict_to_capacity(key);
                flight.finish();
                Ok(true)
            }
        }
    }

    /// Sum of the lengths of the entries currently resident in the GOP
    /// cache — by construction always equal to `stats().bytes` (the
    /// accounting invariant tests assert).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().map.values().map(|e| e.bytes.len()).sum()
    }

    /// Caches a parsed metadata file for `(name, version)`.
    pub fn put_metadata(&self, name: &str, version: u64, file: Arc<MetadataFile>) {
        self.inner
            .lock()
            .metadata
            .insert((name.to_string(), version), file);
    }

    /// Looks up a cached metadata file.
    pub fn get_metadata(&self, name: &str, version: u64) -> Option<Arc<MetadataFile>> {
        self.inner
            .lock()
            .metadata
            .get(&(name.to_string(), version))
            .cloned()
    }

    /// Caches a loaded spatial R-tree for `(name, version)`.
    pub fn put_rtree(&self, name: &str, version: u64, tree: Arc<RTree<u64>>) {
        self.inner
            .lock()
            .rtrees
            .insert((name.to_string(), version), tree);
    }

    /// Looks up a cached spatial R-tree.
    pub fn get_rtree(&self, name: &str, version: u64) -> Option<Arc<RTree<u64>>> {
        self.inner
            .lock()
            .rtrees
            .get(&(name.to_string(), version))
            .cloned()
    }

    /// Drops a cached R-tree (used by `DROPINDEX`).
    pub fn invalidate_rtree(&self, name: &str) {
        self.inner.lock().rtrees.retain(|(n, _), _| n != name);
    }

    /// Drops all cached state for a TLF (used by `DROP`).
    pub fn invalidate(&self, name: &str) {
        let mut inner = self.inner.lock();
        inner.metadata.retain(|(n, _), _| n != name);
        inner.rtrees.retain(|(n, _), _| n != name);
        let prefix = format!("{name}/");
        let doomed: Vec<GopKey> = inner
            .map
            .keys()
            .filter(|k| k.media.starts_with(&prefix))
            .cloned()
            .collect();
        for k in doomed {
            inner.remove_entry(&k);
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Number of cached GOPs.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(media: &str, gop: u64) -> GopKey {
        GopKey {
            media: media.into(),
            gop,
        }
    }

    fn load_ok(n: usize) -> impl FnOnce() -> Result<Vec<u8>, std::io::Error> {
        move || Ok(vec![0u8; n])
    }

    #[test]
    fn first_access_misses_second_hits() {
        let pool = BufferPool::new(1024);
        pool.get_gop(&key("a/s.lvc", 0), load_ok(100)).unwrap();
        pool.get_gop(&key("a/s.lvc", 0), load_ok(100)).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_oldest() {
        let pool = BufferPool::new(250);
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap();
        pool.get_gop(&key("m", 1), load_ok(100)).unwrap();
        // Touch GOP 0 so GOP 1 is the LRU victim.
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap();
        pool.get_gop(&key("m", 2), load_ok(100)).unwrap(); // exceeds capacity
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        // GOP 0 must still be cached (hit), GOP 1 must have been evicted.
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap();
        let before = pool.stats().misses;
        pool.get_gop(&key("m", 1), load_ok(100)).unwrap();
        assert_eq!(
            pool.stats().misses,
            before + 1,
            "GOP 1 should have been evicted"
        );
    }

    #[test]
    fn prefetch_warms_without_touching_demand_counters() {
        let pool = BufferPool::new(1024);
        let loaded = pool.prefetch_gop(&key("m", 0), load_ok(100)).unwrap();
        assert!(loaded, "cold key must load");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "prefetch is demand-neutral");
        assert_eq!((s.readaheads, s.loads), (1, 1));
        assert_eq!(s.bytes, 100);
        // The demand request that follows is a pure hit.
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // Prefetching a resident key is a no-op.
        assert!(!pool.prefetch_gop(&key("m", 0), load_ok(100)).unwrap());
        assert_eq!(pool.stats().readaheads, 1);
        assert_eq!(pool.resident_bytes(), pool.stats().bytes);
    }

    #[test]
    fn prefetch_coalesces_with_demand_loads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let pool = Arc::new(BufferPool::new(1 << 20));
        let loads = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|s| {
            let (p, l, b) = (pool.clone(), loads.clone(), barrier.clone());
            s.spawn(move || {
                b.wait();
                let _ = p.prefetch_gop(&key("m", 3), move || -> Result<_, std::io::Error> {
                    l.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(vec![7u8; 256])
                });
            });
            let (p, l, b) = (pool.clone(), loads.clone(), barrier.clone());
            s.spawn(move || {
                b.wait();
                let bytes = p
                    .get_gop(&key("m", 3), move || -> Result<_, std::io::Error> {
                        l.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(vec![7u8; 256])
                    })
                    .unwrap();
                assert_eq!(bytes.len(), 256);
            });
        });
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "overlapping prefetch and demand load must single-flight"
        );
        assert_eq!(pool.stats().bytes, 256);
        assert_eq!(pool.resident_bytes(), 256);
    }

    #[test]
    fn prefetch_errors_propagate_and_cache_nothing() {
        let pool = BufferPool::new(1024);
        let r: Result<bool, std::io::Error> = pool.prefetch_gop(&key("m", 0), || {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "x"))
        });
        assert!(r.is_err());
        assert!(pool.is_empty());
        // The flight was released: a later prefetch can load.
        assert!(pool.prefetch_gop(&key("m", 0), load_ok(10)).unwrap());
    }

    #[test]
    fn load_errors_propagate_and_cache_nothing() {
        let pool = BufferPool::new(1024);
        let r: Result<_, std::io::Error> = pool.get_gop(&key("m", 0), || {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "x"))
        });
        assert!(r.is_err());
        assert!(pool.is_empty());
    }

    #[test]
    fn metadata_cache_roundtrip() {
        use lightdb_container::{MetadataFile, TlfDescriptor};
        use lightdb_geom::{Interval, Point3};
        let pool = BufferPool::new(1024);
        let file = Arc::new(
            MetadataFile::new(
                1,
                vec![],
                TlfDescriptor {
                    body: lightdb_container::TlfBody::Sphere360 { points: vec![] },
                    ..TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 1.0), 0)
                },
            )
            .unwrap(),
        );
        assert!(pool.get_metadata("demo", 1).is_none());
        pool.put_metadata("demo", 1, file.clone());
        assert!(pool.get_metadata("demo", 1).is_some());
        pool.invalidate("demo");
        assert!(pool.get_metadata("demo", 1).is_none());
    }

    #[test]
    fn invalidate_drops_gops_by_prefix() {
        let pool = BufferPool::new(10_000);
        pool.get_gop(&key("demo/s.lvc", 0), load_ok(10)).unwrap();
        pool.get_gop(&key("other/s.lvc", 0), load_ok(10)).unwrap();
        pool.invalidate("demo");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let pool = Arc::new(BufferPool::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    p.get_gop(&key("m", (i + t) % 8), load_ok(64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 200);
    }

    /// Pre-fix, two concurrent misses on one key both ran `load`, both
    /// added their length to `stats.bytes`, and the second insert
    /// replaced the first entry — so `stats.bytes` permanently
    /// exceeded resident bytes. This test fails on that code: it
    /// asserts byte accounting matches residency and that concurrent
    /// misses on one key coalesce into a single load.
    #[test]
    fn concurrent_misses_on_one_key_are_single_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let pool = Arc::new(BufferPool::new(1 << 20));
        let loads = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let (p, l, b) = (pool.clone(), loads.clone(), barrier.clone());
            handles.push(std::thread::spawn(move || {
                b.wait();
                let bytes = p
                    .get_gop(&key("m", 7), move || -> Result<_, std::io::Error> {
                        l.fetch_add(1, Ordering::SeqCst);
                        // Keep the load slow enough that the other
                        // threads' misses overlap it.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(vec![0u8; 512])
                    })
                    .unwrap();
                assert_eq!(bytes.len(), 512);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "concurrent misses must coalesce"
        );
        let s = pool.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.hits + s.misses, THREADS as u64);
        assert_eq!(s.bytes, 512, "bytes must count the retained entry once");
        assert_eq!(pool.resident_bytes(), s.bytes);
        assert_eq!(pool.len(), 1);
    }

    /// Multi-threaded stress over colliding keys: after the dust
    /// settles, `stats.bytes` equals the sum of resident entry
    /// lengths, stays within capacity, each key was loaded exactly
    /// once (capacity is ample, so evictions never force reloads), and
    /// the hit/miss/load counters are consistent.
    #[test]
    fn stress_colliding_keys_accounting_stays_consistent() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const THREADS: u64 = 8;
        const ITERS: u64 = 64;
        const KEYS: u64 = 8;
        let pool = Arc::new(BufferPool::new(1 << 20));
        let loads: Arc<Vec<AtomicUsize>> =
            Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let (p, l) = (pool.clone(), loads.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let k = (i * (t + 1) + t) % KEYS;
                    let l = l.clone();
                    let bytes = p
                        .get_gop(&key("m", k), move || -> Result<_, std::io::Error> {
                            l[k as usize].fetch_add(1, Ordering::SeqCst);
                            Ok(vec![k as u8; 100 + k as usize])
                        })
                        .unwrap();
                    assert_eq!(bytes.len(), 100 + k as usize);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, THREADS * ITERS);
        assert_eq!(
            s.bytes,
            pool.resident_bytes(),
            "byte accounting must match residency"
        );
        assert!(s.bytes <= 1 << 20);
        assert_eq!(
            s.evictions, 0,
            "capacity is ample; nothing should be evicted"
        );
        for k in 0..KEYS as usize {
            assert_eq!(
                loads[k].load(Ordering::SeqCst),
                1,
                "key {k} must load exactly once"
            );
        }
        assert_eq!(s.loads, KEYS);
    }

    /// Stress with a capacity small enough to force constant eviction:
    /// the accounting invariants must still hold (this exercises the
    /// evict/reload races the LRU loop can hit under concurrency).
    #[test]
    fn stress_with_evictions_keeps_bytes_within_capacity() {
        const CAP: usize = 300; // fits ~3 of the 100-byte entries
        let pool = Arc::new(BufferPool::new(CAP));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    p.get_gop(&key("m", (i * 3 + t) % 10), load_ok(100))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.bytes, pool.resident_bytes());
        assert!(
            s.bytes <= CAP,
            "stats.bytes {} exceeds capacity {CAP}",
            s.bytes
        );
        assert!(s.evictions > 0, "this workload must evict");
        assert_eq!(s.hits + s.misses, 400);
        assert!(
            s.loads >= s.evictions,
            "every eviction implies an earlier load"
        );
    }

    /// A single entry larger than the whole pool is served to the
    /// caller but never stays resident — and `stats.bytes` never
    /// exceeds capacity (pre-fix it was pinned forever by the
    /// `map.len() > 1` eviction guard).
    #[test]
    fn oversized_entry_is_served_but_not_retained() {
        let pool = BufferPool::new(100);
        let bytes = pool.get_gop(&key("m", 0), load_ok(150)).unwrap();
        assert_eq!(bytes.len(), 150, "caller still gets the payload");
        assert_eq!(pool.len(), 0);
        let s = pool.stats();
        assert_eq!(s.bytes, 0);
        assert_eq!(s.bytes, pool.resident_bytes());
        assert_eq!(s.evictions, 1);
        // A smaller entry may now be admitted normally.
        pool.get_gop(&key("m", 1), load_ok(80)).unwrap();
        assert_eq!(pool.stats().bytes, 80);
        // The oversized key misses again (it was never cached).
        pool.get_gop(&key("m", 0), load_ok(150)).unwrap();
        assert_eq!(pool.stats().misses, 3);
        // ... and inserting it evicts the small entry first, then
        // itself, leaving the pool empty but consistent.
        let s = pool.stats();
        assert_eq!(s.bytes, pool.resident_bytes());
        assert!(s.bytes <= 100);
    }

    #[test]
    fn admission_fail_fast_refuses_over_budget() {
        let pool = BufferPool::new(1000);
        pool.set_admission_limit(100);
        let a = pool.admit(80, AdmitPolicy::FailFast, &|| false).unwrap();
        assert_eq!(pool.admitted(), 80);
        let err = pool
            .admit(50, AdmitPolicy::FailFast, &|| false)
            .unwrap_err();
        assert!(matches!(
            err,
            AdmitError::Overloaded {
                wanted: 50,
                admitted: 80,
                limit: 100
            }
        ));
        drop(a);
        assert_eq!(pool.admitted(), 0);
        let b = pool.admit(50, AdmitPolicy::FailFast, &|| false).unwrap();
        assert_eq!(pool.admitted(), 50);
        drop(b);
    }

    #[test]
    fn admission_never_grants_more_than_the_limit() {
        let pool = BufferPool::new(1000);
        pool.set_admission_limit(100);
        let err = pool
            .admit(
                200,
                AdmitPolicy::Block {
                    timeout: Duration::from_secs(10),
                },
                &|| false,
            )
            .unwrap_err();
        // Larger than the limit: fails fast even when blocking —
        // waiting could never help.
        assert!(matches!(err, AdmitError::Overloaded { wanted: 200, .. }));
    }

    #[test]
    fn admission_blocks_until_release_then_proceeds() {
        let pool = Arc::new(BufferPool::new(1000));
        pool.set_admission_limit(100);
        let first = pool.admit(80, AdmitPolicy::FailFast, &|| false).unwrap();
        let p = pool.clone();
        let waiter = std::thread::spawn(move || {
            // Backpressure: cannot proceed until `first` releases.
            let a = p
                .admit(
                    60,
                    AdmitPolicy::Block {
                        timeout: Duration::from_secs(5),
                    },
                    &|| false,
                )
                .unwrap();
            let admitted_while_held = p.admitted();
            drop(a);
            admitted_while_held
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.admitted(), 80, "waiter must not be admitted early");
        drop(first);
        let seen = waiter.join().expect("waiter panicked");
        assert_eq!(seen, 60, "waiter admitted exactly after the release");
        assert_eq!(pool.admitted(), 0);
    }

    #[test]
    fn admission_block_times_out_as_overloaded() {
        let pool = BufferPool::new(1000);
        pool.set_admission_limit(100);
        let _hold = pool.admit(100, AdmitPolicy::FailFast, &|| false).unwrap();
        let t0 = Instant::now();
        let err = pool
            .admit(
                10,
                AdmitPolicy::Block {
                    timeout: Duration::from_millis(30),
                },
                &|| false,
            )
            .unwrap_err();
        assert!(matches!(err, AdmitError::Overloaded { .. }));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn admission_wait_honours_abort() {
        let pool = BufferPool::new(1000);
        pool.set_admission_limit(100);
        let _hold = pool.admit(100, AdmitPolicy::FailFast, &|| false).unwrap();
        let err = pool
            .admit(
                10,
                AdmitPolicy::Block {
                    timeout: Duration::from_secs(60),
                },
                &|| true,
            )
            .unwrap_err();
        assert_eq!(err, AdmitError::Aborted);
    }

    #[test]
    fn per_query_cap_evicts_own_pages_first() {
        let pool = BufferPool::new(10_000);
        pool.set_query_cap(250);
        // Another query's pages (owner 7) must survive owner 1's
        // self-eviction.
        pool.get_gop_watch(&key("other", 0), Some(7), &|| false, load_ok(100))
            .unwrap();
        for g in 0..4 {
            pool.get_gop_watch(&key("mine", g), Some(1), &|| false, load_ok(100))
                .unwrap();
        }
        assert!(pool.query_resident(1) <= 250, "owner 1 is capped");
        assert_eq!(pool.query_resident(7), 100, "owner 7's page untouched");
        let s = pool.stats();
        assert_eq!(s.bytes, pool.resident_bytes());
        assert!(s.evictions >= 2);
        // The freshest pages are the ones retained.
        let before = pool.stats().misses;
        pool.get_gop_watch(&key("mine", 3), Some(1), &|| false, load_ok(100))
            .unwrap();
        assert_eq!(
            pool.stats().misses,
            before,
            "most recent page must be a hit"
        );
    }

    #[test]
    fn per_query_cap_zero_means_unlimited() {
        let pool = BufferPool::new(10_000);
        for g in 0..5 {
            pool.get_gop_watch(&key("m", g), Some(1), &|| false, load_ok(100))
                .unwrap();
        }
        assert_eq!(pool.query_resident(1), 500);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn flight_wait_aborts_instead_of_parking() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Arc::new(BufferPool::new(1 << 20));
        let release = Arc::new(AtomicBool::new(false));
        let loader = {
            let (p, r) = (pool.clone(), release.clone());
            std::thread::spawn(move || {
                p.get_gop(&key("m", 0), move || -> Result<_, std::io::Error> {
                    while !r.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(vec![0u8; 64])
                })
                .unwrap();
            })
        };
        // Give the loader time to claim the flight, then join it as an
        // aborting waiter: it must return promptly, not park until the
        // load finishes.
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        let r: Result<_, std::io::Error> =
            pool.get_gop_watch(&key("m", 0), None, &|| true, load_ok(64));
        assert!(r.is_err(), "aborted waiter must error, not serve bytes");
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "aborted waiter returned in {:?}",
            t0.elapsed()
        );
        release.store(true, Ordering::SeqCst);
        loader.join().expect("loader panicked");
        let s = pool.stats();
        assert_eq!(s.bytes, pool.resident_bytes());
        assert_eq!(s.loads, 1);
    }

    #[test]
    fn session_admissions_are_accounted_and_released() {
        let pool = BufferPool::new(1000);
        pool.set_admission_limit(500);
        let a = pool
            .admit_for_session(100, AdmitPolicy::FailFast, &|| false, Some(1))
            .unwrap();
        let b = pool
            .admit_for_session(200, AdmitPolicy::FailFast, &|| false, Some(1))
            .unwrap();
        let c = pool
            .admit_for_session(50, AdmitPolicy::FailFast, &|| false, Some(2))
            .unwrap();
        assert_eq!(a.session_id(), Some(1));
        assert_eq!(pool.session_admitted(1), 300);
        assert_eq!(pool.session_admitted(2), 50);
        assert_eq!(pool.admitted(), 350);
        drop(b);
        assert_eq!(pool.session_admitted(1), 100);
        drop(a);
        drop(c);
        assert_eq!(
            pool.session_admitted(1),
            0,
            "session accounting must drain to zero"
        );
        assert_eq!(pool.session_admitted(2), 0);
        assert_eq!(pool.admitted(), 0);
    }

    /// An eviction-forced reload of the same key must release the
    /// replaced bytes before accounting the new entry.
    #[test]
    fn evicted_key_reload_accounts_once() {
        let pool = BufferPool::new(250);
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap();
        pool.get_gop(&key("m", 1), load_ok(100)).unwrap();
        pool.get_gop(&key("m", 2), load_ok(100)).unwrap(); // evicts gop 0
        pool.get_gop(&key("m", 0), load_ok(100)).unwrap(); // reload
        let s = pool.stats();
        assert_eq!(s.bytes, pool.resident_bytes());
        assert!(s.bytes <= 250);
        assert_eq!(s.loads, 4);
    }
}
