//! The in-memory TLF cache (TC): parsed metadata entries plus a
//! GOP-granularity LRU buffer pool over encoded media.
//!
//! Buffering at GOP granularity improves temporal locality — a point
//! lookup that decoded GOP *k* will very likely need GOP *k* again
//! for the next predicted-frame request.
//!
//! The GOP cache is a one-shard [`SingleFlightLru`]: the same
//! single-flight, byte-budgeted LRU as the tile and shared-decode
//! caches, with one lock and so the exact pool-wide LRU order.
//!
//! ## Resilience
//!
//! The pool is where a misbehaving query can hurt everyone else, so
//! it carries two defenses:
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

use crate::lru::{SingleFlightLru, Source};
use lightdb_container::MetadataFile;
use lightdb_index::rtree::RTree;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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
    /// Demand requests that were not hits: they loaded, waited on
    /// another request's load, or failed.
    pub misses: u64,
    pub evictions: u64,
    /// Bytes currently resident in the GOP cache. Invariant: always
    /// equals the sum of the resident entries' lengths and never
    /// exceeds the pool capacity.
    pub bytes: usize,
    /// Load attempts, failed ones included. With single-flight loading
    /// this can be smaller than `misses`: concurrent misses on one key
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

/// Single-flight rendezvous for one in-progress computation of
/// [`crate::lru`]: its followers block on the condvar until the leader
/// finishes (successfully or not). Lives here so every condvar wait
/// stays inside this module, the workspace's one sanctioned wait site
/// (lint rule R6).
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
    /// Session the admission is accounted to (server front-end);
    /// `None` for ungoverned / single-shot queries.
    session: Option<u64>,
}

impl Admission<'_> {
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
    /// Outstanding reservation bytes per session tag, so a server can
    /// see which session is holding the pool. Entries are removed
    /// when they return to zero (the chaos no-leak invariant extends
    /// to this map: it must be empty when no queries run).
    session_admitted: HashMap<u64, usize>,
}

/// Parsed metadata files and loaded spatial R-trees per
/// `(name, version)`.
#[derive(Default)]
struct Parsed {
    metadata: HashMap<(String, u64), Arc<MetadataFile>>,
    rtrees: HashMap<(String, u64), Arc<RTree<u64>>>,
}

/// The buffer pool. Thread-safe. Misses load outside any lock, and
/// concurrent misses on the same key are **single-flight**: one thread
/// performs the disk read while the others wait for the result.
pub struct BufferPool {
    gops: SingleFlightLru<GopKey, Arc<Vec<u8>>>,
    /// Demand requests that were not hits (the hits are the cache's).
    misses: AtomicU64,
    loads: AtomicU64,
    readaheads: AtomicU64,
    parsed: Mutex<Parsed>,
    /// Admission bookkeeping lives beside (not inside) the cache:
    /// admission waits park on `admission_cv` and must never hold up
    /// cache traffic.
    admission: StdMutex<AdmissionState>,
    admission_cv: Condvar,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never locks: Debug must be safe to call while a pool lock
        // is held (e.g. from a panic hook mid-critical-section).
        f.debug_struct("BufferPool").finish_non_exhaustive()
    }
}

impl BufferPool {
    /// Creates a pool bounded by `capacity_bytes` of GOP payloads.
    /// The admission limit defaults to the same figure.
    pub fn new(capacity_bytes: usize) -> Self {
        BufferPool {
            gops: SingleFlightLru::new(capacity_bytes, 1),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            readaheads: AtomicU64::new(0),
            parsed: Mutex::new(Parsed::default()),
            admission: StdMutex::new(AdmissionState {
                admitted: 0,
                limit: capacity_bytes,
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

    /// Sum of currently granted admission reservations. The chaos
    /// harness asserts this returns to zero after every run.
    pub fn admitted(&self) -> usize {
        self.admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admitted
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
                return Ok(Admission {
                    pool: self,
                    bytes,
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
    /// [`get_gop_watch`](BufferPool::get_gop_watch) with no abort
    /// condition.
    pub fn get_gop<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<Arc<Vec<u8>>, E> {
        self.get_gop_watch(key, &|| false, load)
    }

    /// Fetches a GOP, loading and caching through `load` on a miss.
    ///
    /// Exactly one of `hits`/`misses` is bumped per call: a hit is a
    /// GOP resident on the first look. On a miss, at most one thread
    /// loads a given key at a time; threads that miss while a load is
    /// in flight wait for it and take its result instead of issuing
    /// their own disk read. If the in-flight load fails (or its entry
    /// is evicted before a waiter wakes), the waiter may become the
    /// loader itself.
    ///
    /// `should_abort` is polled while waiting on another thread's
    /// in-flight load; when it turns true the wait ends with an
    /// `io::Error` (callers translate it into their own
    /// cancellation/deadline error — the pool only promises not to
    /// park forever).
    pub fn get_gop_watch<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        should_abort: &dyn Fn() -> bool,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<Arc<Vec<u8>>, E> {
        let abort = || {
            should_abort().then(|| {
                E::from(std::io::Error::other(
                    "query aborted while waiting for an in-flight GOP load",
                ))
            })
        };
        let served = self.gops.get_or_compute(key, &abort, || self.load(load));
        if !matches!(&served, Ok(s) if s.source == Source::Hit) {
            self.misses.fetch_add(1, Relaxed);
        }
        served.map(|s| s.value)
    }

    /// One load attempt: the `BUFFERPOOL_LOAD` failpoint, then `load`.
    fn load<E: From<std::io::Error>>(
        &self,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<(Arc<Vec<u8>>, usize), E> {
        self.loads.fetch_add(1, Relaxed);
        crate::faults::fail_point(crate::faults::sites::BUFFERPOOL_LOAD).map_err(E::from)?;
        let bytes = load()?;
        let len = bytes.len();
        Ok((Arc::new(bytes), len))
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
    /// again), inserted, and counted in `stats.readaheads` (and
    /// `loads`); returns `Ok(true)`.
    pub fn prefetch_gop<E: From<std::io::Error>>(
        &self,
        key: &GopKey,
        load: impl FnOnce() -> std::result::Result<Vec<u8>, E>,
    ) -> std::result::Result<bool, E> {
        self.gops.warm(key, || {
            self.readaheads.fetch_add(1, Relaxed);
            self.load(load)
        })
    }

    /// Sum of the lengths of the GOPs currently resident — the same
    /// figure as `stats().bytes`.
    pub fn resident_bytes(&self) -> usize {
        self.gops.resident_bytes()
    }

    /// Caches a parsed metadata file for `(name, version)`.
    pub fn put_metadata(&self, name: &str, version: u64, file: Arc<MetadataFile>) {
        self.parsed
            .lock()
            .metadata
            .insert((name.to_string(), version), file);
    }

    /// Looks up a cached metadata file.
    pub fn get_metadata(&self, name: &str, version: u64) -> Option<Arc<MetadataFile>> {
        self.parsed
            .lock()
            .metadata
            .get(&(name.to_string(), version))
            .cloned()
    }

    /// Caches a loaded spatial R-tree for `(name, version)`.
    pub fn put_rtree(&self, name: &str, version: u64, tree: Arc<RTree<u64>>) {
        self.parsed
            .lock()
            .rtrees
            .insert((name.to_string(), version), tree);
    }

    /// Looks up a cached spatial R-tree.
    pub fn get_rtree(&self, name: &str, version: u64) -> Option<Arc<RTree<u64>>> {
        self.parsed
            .lock()
            .rtrees
            .get(&(name.to_string(), version))
            .cloned()
    }

    /// Drops a cached R-tree (used by `DROPINDEX`).
    pub fn invalidate_rtree(&self, name: &str) {
        self.parsed.lock().rtrees.retain(|(n, _), _| n != name);
    }

    /// Drops the parsed metadata and R-trees of a TLF (used by `DROP`).
    /// Its GOPs age out of the LRU: the catalog never hands a
    /// `(name, version)` pair out twice, so no later read asks for
    /// them.
    pub fn invalidate(&self, name: &str) {
        let mut parsed = self.parsed.lock();
        parsed.metadata.retain(|(n, _), _| n != name);
        parsed.rtrees.retain(|(n, _), _| n != name);
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        let lru = self.gops.stats();
        PoolStats {
            hits: lru.hits,
            misses: self.misses.load(Relaxed),
            evictions: lru.evictions,
            bytes: self.gops.resident_bytes(),
            loads: self.loads.load(Relaxed),
            readaheads: self.readaheads.load(Relaxed),
        }
    }

    /// Number of cached GOPs.
    pub fn len(&self) -> usize {
        self.gops.len()
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

    /// `DROP` forgets the dropped TLF's parsed state and nobody else's.
    /// Its GOPs stay until they age out: the catalog never reuses the
    /// `(name, version)` their media paths carry.
    #[test]
    fn invalidate_drops_parsed_state_not_gops() {
        let pool = BufferPool::new(10_000);
        pool.get_gop(&key("demo/s.lvc", 0), load_ok(10)).unwrap();
        for name in ["demo", "other"] {
            pool.put_rtree(name, 1, Arc::new(RTree::new()));
        }
        pool.invalidate("demo");
        assert!(pool.get_rtree("demo", 1).is_none());
        assert!(pool.get_rtree("other", 1).is_some());
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
        let r: Result<_, std::io::Error> = pool.get_gop_watch(&key("m", 0), &|| true, load_ok(64));
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
