//! Dependency-free concurrent latency histogram with log-spaced
//! buckets and percentile extraction.
//!
//! Before this existed every bench that wanted a percentile sorted a
//! `Vec<f64>` of samples it had collected behind a mutex — fine for a
//! single-threaded bench loop, hopeless for the fleet simulator where
//! thousands of simulated viewers record latencies from a worker pool
//! at once. This histogram is a fixed array of relaxed `AtomicU64`
//! buckets: `record` is wait-free (one atomic add), memory is constant
//! (~4 KiB regardless of sample count), and merging per-worker
//! histograms is a loop of adds.
//!
//! ## Bucket layout
//!
//! Values are nanoseconds. Buckets are HDR-style: each power-of-two
//! octave `[2^k, 2^(k+1))` is split into `SUB_BUCKETS` linear
//! sub-buckets, so the relative quantization error is bounded by
//! `1/SUB_BUCKETS` (12.5%) at every magnitude — from nanoseconds to
//! hours with the same 496-slot table. Values below `SUB_BUCKETS`
//! get one bucket each (exact). `percentile` walks the table and
//! returns the *midpoint* of the bucket holding the requested rank,
//! so reported percentiles are within ~6% of the true sample — more
//! than enough resolution for p50/p99/p999 latency reporting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave. Must be a power of two.
const SUB_BUCKETS: u64 = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count: `SUB_BUCKETS` exact small-value buckets plus
/// `SUB_BUCKETS` per octave for octaves `SUB_BITS..=63`.
const BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Maps a value to its bucket index. Total order is preserved:
/// `a <= b` implies `index(a) <= index(b)`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    // SAFETY of the arithmetic: v >= SUB_BUCKETS so the most
    // significant bit is at position >= SUB_BITS and `shift` cannot
    // underflow.
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) & (SUB_BUCKETS - 1);
    (u64::from(msb - SUB_BITS + 1) * SUB_BUCKETS + sub) as usize
}

/// Inclusive lower bound of bucket `i` (inverse of [`bucket_index`]).
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let group = i / SUB_BUCKETS - 1;
    let sub = i % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << group
}

/// Midpoint of bucket `i`, the value reported for ranks landing in it.
fn bucket_mid(i: usize) -> u64 {
    let low = bucket_low(i);
    let width = if (i as u64) < SUB_BUCKETS {
        1
    } else {
        1u64 << ((i as u64) / SUB_BUCKETS - 1)
    };
    low.saturating_add(width / 2)
}

/// Wait-free concurrent histogram over `u64` nanosecond values.
///
/// All methods take `&self`; clones of an `Arc<Histogram>` can record
/// from any number of threads. Reads (`count`, `percentile`) are
/// *approximately* consistent under concurrent writes — exact once
/// writers quiesce, which is when benches and tests read them.
pub struct Histogram {
    /// Always exactly `BUCKETS` long; boxed slice keeps the table on
    /// the heap without a large stack temporary during construction.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of recorded values, for mean extraction.
    sum: AtomicU64,
    /// Maximum recorded value (exact, not quantized).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one duration (quantized to nanoseconds, saturating).
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond value.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, or zero when empty.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum.load(Ordering::Relaxed) / n)
    }

    /// Maximum recorded value (exact), or zero when empty.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max.load(Ordering::Relaxed))
    }

    /// The value at percentile `p` (0.0–100.0): the midpoint of the
    /// bucket containing the sample of rank `ceil(p/100 * count)`.
    /// Returns zero for an empty histogram. `p >= 100` returns the
    /// highest non-empty bucket's midpoint.
    pub fn percentile(&self, p: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the requested sample, 1-based, at least 1.
        let target = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        let mut last_nonempty = 0usize;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            last_nonempty = i;
            seen = seen.saturating_add(c);
            if seen >= target {
                return Duration::from_nanos(bucket_mid(i));
            }
        }
        // Concurrent writers can make `count` lead the buckets; fall
        // back to the highest bucket observed.
        Duration::from_nanos(bucket_mid(last_nonempty))
    }

    pub fn p50(&self) -> Duration {
        self.percentile(50.0)
    }

    pub fn p99(&self) -> Duration {
        self.percentile(99.0)
    }

    pub fn p999(&self) -> Duration {
        self.percentile(99.9)
    }

    /// Adds every sample of `other` into `self` (bucket-wise).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c != 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Clears all samples.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the small range where octaves change fast,
        // then spot checks at the top of the domain.
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..100_000u64 {
            let i = bucket_index(v);
            assert!(
                i == prev || i == prev + 1,
                "index jumped at {v}: {prev} -> {i}"
            );
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_low_inverts_index() {
        for i in 0..BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bucket {i} low {low}");
            if low > 0 {
                assert_eq!(bucket_index(low - 1), i - 1, "bucket {i} low-1");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [10u64, 123, 999, 5_000, 1_000_000, 123_456_789, u64::MAX / 3] {
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.13, "value {v} reported as {mid} (err {err:.3})");
        }
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let h = Histogram::new();
        // 1..=1000 microseconds, one sample each.
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let within = |d: Duration, expect_us: f64| {
            let got = d.as_nanos() as f64 / 1_000.0;
            assert!(
                (got - expect_us).abs() / expect_us < 0.13,
                "expected ~{expect_us}us got {got}us"
            );
        };
        within(h.p50(), 500.0);
        within(h.p99(), 990.0);
        within(h.p999(), 999.0);
        within(h.percentile(0.0), 1.0);
        assert_eq!(h.max(), Duration::from_micros(1000));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn merge_combines_samples() {
        let a = Histogram::new();
        let b = Histogram::new();
        for us in 1..=500u64 {
            a.record_ns(us * 1_000);
        }
        for us in 501..=1000u64 {
            b.record_ns(us * 1_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.p50().as_nanos() as f64 / 1_000.0;
        assert!((p50 - 500.0).abs() / 500.0 < 0.13, "merged p50 {p50}");
        assert_eq!(a.max(), Duration::from_micros(1000));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        const THREADS: u64 = 4;
        const EACH: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..EACH {
                        h.record_ns(1_000 + t * 13 + i % 7);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * EACH);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record_ns(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), Duration::ZERO);
    }
}
