//! Latency samples and the rules for summarising them.

/// The tail percentiles a sample can support: a percentile is
/// reported only with at least ten samples beyond it, so `p99` needs
/// 1000 samples and a slow-query workload reports its median only.
const TAILS: [(&str, f64); 3] = [("p99.99", 0.9999), ("p99.9", 0.999), ("p99", 0.99)];

/// The highest percentile `attempted` operations support, if any.
pub(crate) fn tail_percentile(attempted: u64) -> Option<(&'static str, f64)> {
    TAILS
        .into_iter()
        .find(|&(_, p)| attempted as f64 * (1.0 - p) >= 10.0)
}

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub(crate) fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub(crate) fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Latencies of the operations of one kind, in nanoseconds, in bounded
/// memory: when the buffer fills, every other sample is dropped and
/// only every `stride`-th later sample is kept. Decimation is by
/// position, not by value, so percentiles stay unbiased, and memory
/// does not grow with how fast the program under test happens to be.
#[derive(Debug, Clone)]
pub(crate) struct Samples {
    kept: Vec<u32>,
    cap: usize,
    stride: u64,
    seen: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Work units the successful operations covered (frames, tiles,
    /// bytes: the workload says which).
    pub(crate) units: u64,
    pub(crate) first_error: Option<String>,
}

impl Samples {
    pub(crate) fn with_capacity(cap: usize) -> Samples {
        Samples {
            kept: Vec::with_capacity(cap),
            cap: cap.max(2),
            stride: 1,
            seen: 0,
            attempted: 0,
            failed: 0,
            units: 0,
            first_error: None,
        }
    }

    pub(crate) fn ok(&mut self, elapsed: std::time::Duration, units: u64) {
        self.attempted += 1;
        self.units += units;
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept
                    .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
            }
        }
        self.seen += 1;
    }

    /// A failed or refused operation: attempted, and missing from every
    /// latency (it ranks above every success in [`Samples::percentile_ns`]).
    pub(crate) fn fail(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    pub(crate) fn merge(&mut self, other: Samples) {
        // Bring both sides to the coarser stride before concatenating,
        // so every kept sample stands for the same number of operations.
        let stride = self.stride.max(other.stride);
        let thin = |s: &Samples| -> Vec<u32> {
            let step = (stride / s.stride) as usize;
            s.kept.iter().step_by(step.max(1)).copied().collect()
        };
        let mut kept = thin(self);
        kept.extend(thin(&other));
        self.kept = kept;
        self.stride = stride;
        self.seen += other.seen;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.units += other.units;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub(crate) fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Percentile over *attempted* operations, failures counted as
    /// slower than any success: infinite when the rank lands on one.
    pub(crate) fn percentile_ns(&self, p: f64) -> Option<f64> {
        if self.attempted == 0 {
            return None;
        }
        let ok_share = 1.0 - self.fail_share();
        if p > ok_share || self.kept.is_empty() {
            return Some(f64::INFINITY);
        }
        let mut sorted: Vec<f64> = self.kept.iter().map(|&n| f64::from(n)).collect();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, p / ok_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(40), None);
        assert_eq!(tail_percentile(999), None);
        assert_eq!(tail_percentile(1000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_percentile(9_999).map(|t| t.0), Some("p99"));
        assert_eq!(tail_percentile(10_000).map(|t| t.0), Some("p99.9"));
        assert_eq!(tail_percentile(5_000_000).map(|t| t.0), Some("p99.99"));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_failed_op_misses_every_latency() {
        let mut s = Samples::with_capacity(64);
        for i in 1..=9 {
            s.ok(Duration::from_nanos(i * 100), 1);
        }
        s.fail("refused".into());
        assert_eq!(s.attempted, 10);
        assert_eq!(s.failed, 1);
        assert!((s.fail_share() - 0.1).abs() < 1e-12);
        // The median is over ten attempts, not nine successes.
        assert_eq!(s.percentile_ns(0.5), Some(500.0));
        assert_eq!(s.percentile_ns(0.9), Some(900.0));
        // Any percentile that reaches into the failed tenth is missed.
        assert_eq!(s.percentile_ns(0.95), Some(f64::INFINITY));
        assert_eq!(s.first_error.as_deref(), Some("refused"));
        assert_eq!(s.units, 9);
    }

    #[test]
    fn decimation_bounds_memory_and_keeps_the_median() {
        let mut s = Samples::with_capacity(128);
        for i in 0..100_000u64 {
            s.ok(Duration::from_nanos(i), 1);
        }
        assert!(s.kept.len() <= 128);
        assert_eq!(s.attempted, 100_000);
        let p50 = s.percentile_ns(0.5).unwrap();
        assert!((p50 - 50_000.0).abs() < 2_500.0, "p50 {p50}");
    }

    #[test]
    fn merge_aligns_strides() {
        let mut a = Samples::with_capacity(16);
        let mut b = Samples::with_capacity(16);
        for i in 0..1000u64 {
            a.ok(Duration::from_nanos(i), 2);
        }
        for i in 0..10u64 {
            b.ok(Duration::from_nanos(i), 2);
        }
        b.fail("x".into());
        a.merge(b);
        assert_eq!(a.attempted, 1011);
        assert_eq!(a.failed, 1);
        assert_eq!(a.units, 2020);
        assert!(a.kept.len() <= 32);
    }
}
