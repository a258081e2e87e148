//! Per-operator execution metrics.
//!
//! The evaluation's operator-breakdown plots (Figure 11) come
//! straight from these counters: every physical operator wraps its
//! work in [`Metrics::time`].
//!
//! With the parallel execution layer, one operator can run on several
//! worker threads at once, so each operator tracks two durations:
//!
//! * **busy** ([`Metrics::total`]) — the sum of per-invocation
//!   durations across all threads (total CPU the operator consumed);
//! * **wall** ([`Metrics::wall`]) — the union of the intervals during
//!   which *at least one* invocation of the operator was running
//!   (elapsed time the operator contributed to the query).
//!
//! Serially the two coincide; under overlap `wall < busy`, and
//! `busy / wall` approximates the operator's effective parallelism.

use lightdb_core::histogram::Histogram;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct OpStat {
    /// Summed per-invocation durations (CPU-style accounting).
    busy: Duration,
    count: u64,
    /// Union of active intervals (wall-clock accounting).
    wall: Duration,
    /// Invocations currently running.
    active: u32,
    /// When `active` last rose from zero.
    span_start: Option<Instant>,
}

/// Thread-safe accumulator of per-operator busy/wall time and
/// invocation counts, plus named event counters (e.g. GOPs skipped
/// due to corruption). Cloning shares the underlying counters.
#[derive(Clone, Default, Debug)]
pub struct Metrics {
    inner: Arc<Mutex<HashMap<&'static str, OpStat>>>,
    counters: Arc<Mutex<HashMap<&'static str, u64>>>,
    /// Latency distributions, recorded via [`Metrics::observe`]. Kept
    /// separate from `OpStat` so the per-span hot path (enter/exit)
    /// never pays for percentile bucketing it does not use.
    latencies: Arc<Mutex<HashMap<&'static str, Arc<Histogram>>>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Runs `f`, attributing its duration to `op`. Safe to call for
    /// the same `op` from several threads at once: busy time sums,
    /// wall time counts overlapping invocations once.
    ///
    /// The span is closed by an RAII guard, so a panic (or any other
    /// unwind) out of `f` still decrements the active count — an
    /// aborted query must never leave a span open, or every later
    /// wall reading for that operator would silently keep growing.
    pub fn time<T>(&self, op: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(op);
        f()
    }

    /// Opens a span on `op` that closes when the guard drops.
    pub fn span(&self, op: &'static str) -> SpanGuard<'_> {
        let start = self.enter(op);
        SpanGuard {
            metrics: self,
            op,
            start,
        }
    }

    /// Number of spans currently open across all operators. The
    /// resilience tests assert this returns to zero after cancelled
    /// and panicked queries.
    pub fn open_spans(&self) -> u64 {
        self.inner
            .lock()
            .values()
            .map(|e| u64::from(e.active))
            .sum()
    }

    fn enter(&self, op: &'static str) -> Instant {
        let mut m = self.inner.lock();
        let e = m.entry(op).or_default();
        e.active += 1;
        if e.active == 1 {
            e.span_start = Some(Instant::now());
        }
        drop(m);
        Instant::now()
    }

    fn exit(&self, op: &'static str, start: Instant) {
        let d = start.elapsed();
        let mut m = self.inner.lock();
        let e = m.entry(op).or_default();
        e.busy += d;
        e.count += 1;
        e.active = e.active.saturating_sub(1);
        if e.active == 0 {
            if let Some(s) = e.span_start.take() {
                e.wall += s.elapsed();
            }
        }
    }

    /// Adds an explicit duration to `op`. The duration is treated as
    /// its own span: it extends wall time unless the operator is
    /// concurrently active through [`Metrics::time`].
    pub fn record(&self, op: &'static str, d: Duration) {
        let mut m = self.inner.lock();
        let e = m.entry(op).or_default();
        e.busy += d;
        e.count += 1;
        if e.active == 0 {
            e.wall += d;
        }
    }

    /// Accumulated busy time (summed across threads) for one operator.
    pub fn total(&self, op: &str) -> Duration {
        self.inner
            .lock()
            .get(op)
            .map(|e| e.busy)
            .unwrap_or(Duration::ZERO)
    }

    /// Accumulated wall-clock time for one operator: the union of the
    /// intervals during which it was running on any thread. Equals
    /// [`Metrics::total`] for serial execution; strictly less when
    /// invocations overlap.
    pub fn wall(&self, op: &str) -> Duration {
        self.inner
            .lock()
            .get(op)
            .map(|e| e.wall)
            .unwrap_or(Duration::ZERO)
    }

    /// Invocation count for one operator.
    pub fn count(&self, op: &str) -> u64 {
        self.inner.lock().get(op).map(|e| e.count).unwrap_or(0)
    }

    /// All `(operator, busy total, count)` rows, sorted by descending
    /// time.
    pub fn report(&self) -> Vec<(&'static str, Duration, u64)> {
        let mut rows: Vec<_> = self
            .inner
            .lock()
            .iter()
            .map(|(k, e)| (*k, e.busy, e.count))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// All `(operator, busy, wall, count)` rows, sorted by descending
    /// busy time — the parallel-aware variant of [`Metrics::report`].
    pub fn report_wall(&self) -> Vec<(&'static str, Duration, Duration, u64)> {
        let mut rows: Vec<_> = self
            .inner
            .lock()
            .iter()
            .map(|(k, e)| (*k, e.busy, e.wall, e.count))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Adds `n` to the named event counter.
    pub fn add(&self, counter: &'static str, n: u64) {
        *self.counters.lock().entry(counter).or_insert(0) += n;
    }

    /// Adds every non-zero `(counter, n)` pair under one lock — for
    /// callers that tally a batch of events locally.
    pub fn add_all(&self, pairs: impl IntoIterator<Item = (&'static str, u64)>) {
        let mut counters = self.counters.lock();
        for (counter, n) in pairs.into_iter().filter(|(_, n)| *n > 0) {
            *counters.entry(counter).or_insert(0) += n;
        }
    }

    /// Increments the named event counter by one.
    pub fn bump(&self, counter: &'static str) {
        self.add(counter, 1);
    }

    /// Current value of a named event counter (zero when never set).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.lock().get(counter).copied().unwrap_or(0)
    }

    /// All `(counter, value)` rows, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<_> = self.counters.lock().iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_unstable();
        rows
    }

    /// Records one sample into the named latency distribution. Unlike
    /// [`Metrics::record`] this feeds a log-bucketed histogram
    /// ([`lightdb_core::histogram::Histogram`]) so p50/p99/p999 can be
    /// read back without retaining individual samples.
    pub fn observe(&self, op: &'static str, d: Duration) {
        self.histogram(op).record(d);
    }

    /// The named latency histogram, created empty on first access.
    /// The `Arc` can be held across calls (e.g. by a worker loop) to
    /// record without re-taking the map lock per sample.
    pub fn histogram(&self, op: &'static str) -> Arc<Histogram> {
        self.latencies.lock().entry(op).or_default().clone()
    }

    /// A percentile (0.0–100.0) of the named latency distribution;
    /// zero when nothing was observed.
    pub fn percentile(&self, op: &str, p: f64) -> Duration {
        self.latencies
            .lock()
            .get(op)
            .map(|h| h.percentile(p))
            .unwrap_or(Duration::ZERO)
    }

    /// Clears all counters. Latency histograms are emptied in place, so
    /// a handle from [`Metrics::histogram`] still records into the map.
    pub fn reset(&self) {
        self.inner.lock().clear();
        self.counters.lock().clear();
        for histogram in self.latencies.lock().values() {
            histogram.reset();
        }
    }
}

/// Closes the span opened by [`Metrics::span`] on drop (unwind-safe).
#[derive(Debug)]
pub struct SpanGuard<'m> {
    metrics: &'m Metrics,
    op: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.metrics.exit(self.op, self.start);
    }
}

/// Counter names used by the built-in operators.
pub mod counters {
    /// GOPs skipped by a scan running under
    /// [`crate::ReadPolicy::SkipCorruptGops`].
    pub const SKIPPED_GOPS: &str = "scan.skipped_gops";
    /// GOPs served as lower-fidelity substitutes: corrupt GOPs
    /// replaced under [`crate::ReadPolicy::Degrade`], plus decodes
    /// switched to the prediction-only path because the query's
    /// deadline was at risk.
    pub const DEGRADED_GOPS: &str = "scan.degraded_gops";
    /// Decoded-GOP requests served from the shared-scan cache
    /// ([`crate::sharedscan::SharedDecode`]) without running a decode.
    pub const SHARED_SCAN_HITS: &str = "shared_scan.hits";
    /// Decodes actually performed through the shared-scan cache.
    /// Under concurrent scans of one TLF range this stays at one per
    /// distinct GOP — the exactly-once property tests assert.
    pub const SHARED_SCAN_DECODES: &str = "shared_scan.decodes";
    /// Decoded GOPs evicted from the shared-scan cache to stay within
    /// its byte budget.
    pub const SHARED_SCAN_EVICTIONS: &str = "shared_scan.evictions";
    /// Statements served from the engine-wide plan cache.
    pub const PLAN_CACHE_HITS: &str = "plan_cache.hits";
    /// Statements planned from scratch (uncacheable shapes included).
    pub const PLAN_CACHE_MISSES: &str = "plan_cache.misses";
    /// Cached plans evicted to respect the plan-cache entry bound.
    pub const PLAN_CACHE_EVICTIONS: &str = "plan_cache.evictions";
    /// Encoded-tile requests served straight from the cross-user tile
    /// cache ([`crate::tilecache::TileCache`]) — no extraction ran.
    pub const TILE_CACHE_HITS: &str = "tile_cache.hits";
    /// Tile requests that ran `extract_tile` as the single-flight
    /// leader. Every miss is exactly one extraction.
    pub const TILE_CACHE_MISSES: &str = "tile_cache.misses";
    /// Cached tiles evicted to stay within `LIGHTDB_TILE_CACHE_MB`.
    pub const TILE_CACHE_EVICTIONS: &str = "tile_cache.evictions";
    /// Tile requests that waited on another request's in-flight
    /// extraction and then reused its published result — the requests
    /// the single-flight wrapper deduplicated.
    pub const TILE_CACHE_COALESCED: &str = "tile_cache.coalesced";
    /// Tile-cache misses that wrote into a buffer an earlier eviction
    /// freed up on the same thread, instead of allocating one.
    pub const TILE_CACHE_RECYCLED: &str = "tile_cache.recycled";
    /// Views served by a `TileServer` (one per `serve` call; each view
    /// bundles one high-quality tile plus its low-quality neighbors).
    pub const TILE_SERVES: &str = "tile_server.serves";
    /// Tiles warmed into the tile cache by predictive prefetch.
    pub const TILE_PREFETCHED: &str = "tile_server.prefetched_tiles";
    /// Prefetches that skipped the tile-cache warm: the cache had
    /// published at least its budget between the viewer's last two
    /// serves, so warmed tiles would be evicted before the next serve.
    pub const TILE_PREFETCH_SKIPPED: &str = "tile_server.prefetch_skipped";
    /// Latency histogram name for one served view (use with
    /// [`super::Metrics::observe`] / [`super::Metrics::percentile`]).
    pub const SERVE_LATENCY: &str = "tile_server.serve";
    /// Cluster RPCs retried on a transient failure (same worker).
    pub const CLUSTER_RPC_RETRIES: &str = "cluster.rpc.retries";
    /// Fragment dispatches failed over from an unreachable worker to
    /// a replica holder.
    pub const CLUSTER_FAILOVERS: &str = "cluster.failovers";
    /// Fragments dropped from a degraded distributed result because
    /// no reachable worker held a copy (`ReadPolicy::Degrade` only).
    pub const CLUSTER_LOST_FRAGMENTS: &str = "cluster.lost_fragments";
    /// Heartbeat probes that found a worker unreachable.
    pub const CLUSTER_HEARTBEAT_FAILURES: &str = "cluster.heartbeat.failures";
    /// 8×8 blocks `ENCODE` processed (six per macroblock). The
    /// `encode.*` counters are the encoder's own
    /// (`lightdb_codec::scratch::EncoderWork`), added once per GOP.
    pub const ENCODE_BLOCKS: &str = "encode.blocks";
    /// Blocks whose residual SAD proved them all-zero before the
    /// transform ran.
    pub const ENCODE_BLOCKS_SAD_GATED: &str = "encode.blocks_sad_gated";
    /// Blocks transformed, then quantised to all-zero levels: what the
    /// SAD gate missed. Gated plus zero-quant over blocks is the share
    /// of blocks that cost no entropy coding and no reconstruction.
    pub const ENCODE_BLOCKS_ZERO_QUANT: &str = "encode.blocks_zero_quant";
    /// Motion candidates considered after the zero vector.
    pub const ENCODE_MV_CANDIDATES: &str = "encode.mv_candidates";
    /// Candidates ruled out by their block sum without a SAD.
    pub const ENCODE_MV_ELIMINATED: &str = "encode.mv_eliminated";
    /// Motion searches that ended at a zero-vector SAD of 0.
    pub const ENCODE_ZERO_SAD_EXITS: &str = "encode.zero_sad_exits";
    /// 8×8 blocks `DECODE` processed (six per macroblock). The
    /// `decode.*` counters are the decoder's own
    /// (`lightdb_codec::scratch::DecoderWork`), added once per GOP.
    pub const DECODE_BLOCKS: &str = "decode.blocks";
    /// Blocks with no coded residual: copied from the reference or
    /// filled with the DC predictor, never inverse-transformed.
    pub const DECODE_BLOCKS_UNCODED: &str = "decode.blocks_uncoded";
    /// Frames whose residuals a helper thread computed while `DECODE`'s
    /// caller reconstructed earlier frames: a GOP alone in its batch
    /// spends its query's parallelism on its own frames. Zero under
    /// `Parallelism::SERIAL`.
    pub const DECODE_FRAMES_AHEAD: &str = "decode.frames_ahead";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_attributes_to_op() {
        let m = Metrics::new();
        let v = m.time("DECODE", || 42);
        assert_eq!(v, 42);
        assert_eq!(m.count("DECODE"), 1);
        assert_eq!(m.count("ENCODE"), 0);
    }

    #[test]
    fn totals_accumulate() {
        let m = Metrics::new();
        m.record("MAP", Duration::from_millis(5));
        m.record("MAP", Duration::from_millis(7));
        assert_eq!(m.total("MAP"), Duration::from_millis(12));
        assert_eq!(m.count("MAP"), 2);
        // Non-overlapping recorded spans extend wall time too.
        assert_eq!(m.wall("MAP"), Duration::from_millis(12));
    }

    #[test]
    fn report_sorted_and_reset_clears() {
        let m = Metrics::new();
        m.record("A", Duration::from_millis(1));
        m.record("B", Duration::from_millis(10));
        let r = m.report();
        assert_eq!(r[0].0, "B");
        let rw = m.report_wall();
        assert_eq!(rw[0].0, "B");
        assert_eq!(rw[0].1, rw[0].2, "serial records: busy == wall");
        m.reset();
        assert!(m.report().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record("X", Duration::from_millis(3));
        assert_eq!(m.count("X"), 1);
    }

    #[test]
    fn serial_wall_tracks_busy() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.time("OP", || std::thread::sleep(Duration::from_millis(5)));
        }
        let (busy, wall) = (m.total("OP"), m.wall("OP"));
        assert!(busy >= Duration::from_millis(15));
        // Serially, wall and busy measure the same spans (modulo the
        // instants taken just inside/outside the lock).
        assert!(
            wall >= busy / 2,
            "serial wall {wall:?} far below busy {busy:?}"
        );
        assert!(wall <= busy + Duration::from_millis(15));
    }

    #[test]
    fn overlapping_invocations_union_wall_time() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || m.time("OP", || std::thread::sleep(Duration::from_millis(40))));
            }
        });
        let (busy, wall) = (m.total("OP"), m.wall("OP"));
        assert!(
            busy >= Duration::from_millis(160),
            "4 × 40ms summed, got {busy:?}"
        );
        assert!(
            wall < busy,
            "overlapping spans must not sum: wall {wall:?} vs busy {busy:?}"
        );
        // All four overlap almost entirely: wall should be near one
        // invocation's length, not four (generous bound for CI noise).
        assert!(wall < Duration::from_millis(120));
    }

    #[test]
    fn panicking_invocation_still_closes_its_span() {
        let m = Metrics::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.time("OP", || panic!("injected"));
        }));
        assert!(caught.is_err());
        assert_eq!(m.open_spans(), 0, "unwound span must have closed");
        assert_eq!(m.count("OP"), 1);
        // Wall accounting still works afterwards: a fresh serial call
        // adds its own span instead of inheriting a stuck-open one.
        let wall_before = m.wall("OP");
        m.time("OP", || std::thread::sleep(Duration::from_millis(5)));
        assert!(m.wall("OP") >= wall_before + Duration::from_millis(4));
        assert_eq!(m.open_spans(), 0);
    }

    #[test]
    fn observed_latencies_expose_percentiles() {
        let m = Metrics::new();
        assert_eq!(m.percentile("SERVE", 99.0), Duration::ZERO);
        for us in 1..=100u64 {
            m.observe("SERVE", Duration::from_micros(us));
        }
        let p50 = m.percentile("SERVE", 50.0).as_nanos() as f64;
        assert!((p50 / 1_000.0 - 50.0).abs() < 8.0, "p50 {p50}ns");
        // Clones share histograms; reset clears them.
        m.clone().observe("SERVE", Duration::from_micros(1));
        assert_eq!(m.histogram("SERVE").count(), 101);
        let held = m.histogram("SERVE");
        m.reset();
        assert_eq!(m.percentile("SERVE", 50.0), Duration::ZERO);
        // A handle held across the reset still feeds the map.
        held.record(Duration::from_micros(7));
        assert_eq!(m.histogram("SERVE").count(), 1);
        assert!(m.percentile("SERVE", 50.0) > Duration::ZERO);
    }

    #[test]
    fn event_counters_accumulate_and_reset() {
        let m = Metrics::new();
        assert_eq!(m.counter(counters::SKIPPED_GOPS), 0);
        m.bump(counters::SKIPPED_GOPS);
        m.add(counters::SKIPPED_GOPS, 2);
        assert_eq!(m.counter(counters::SKIPPED_GOPS), 3);
        assert_eq!(m.counters(), vec![(counters::SKIPPED_GOPS, 3)]);
        // Clones share counters too.
        m.clone().bump(counters::SKIPPED_GOPS);
        assert_eq!(m.counter(counters::SKIPPED_GOPS), 4);
        m.reset();
        assert_eq!(m.counter(counters::SKIPPED_GOPS), 0);
    }
}
