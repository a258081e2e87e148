//! Seeded chaos schedules for the resilience soak.
//!
//! A [`Scenario`] is derived deterministically from a `u64` seed: one
//! optional injected fault (error, transient, or delay at a storage or
//! executor failpoint), an optional deadline, an optional asynchronous
//! cancel, an optional declared working set, and a read policy. The
//! soak test replays many seeds and asserts the tri-state resilience
//! contract after every run:
//!
//! 1. the query completes with output **byte-identical** to the
//!    fault-free baseline, or
//! 2. it fails with a **classified** error ([`lightdb_core::ErrorClass`]), or
//! 3. it completes **degraded** and the degradation is counted in
//!    metrics and the output stays well-formed —
//!
//! and in every case the run terminates (no hangs), releases its
//! admission reservation, and leaves no metrics span open.
//!
//! Faults are armed in the calling thread's fault scope
//! ([`lightdb_storage::faults`]), which the executor's scatter workers
//! inherit; threads a soak starts itself must be wrapped in
//! `faults::inherit` to see them.

use lightdb_exec::ReadPolicy;
use lightdb_storage::faults::{self, sites, Fault};
use std::io::ErrorKind;
use std::time::Duration;

/// SplitMix64: tiny, deterministic, and statistically fine for
/// schedule derivation. No external RNG crates in the container.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The failpoints a chaos schedule may arm: the storage read path and
/// every executor stage (decode, map, reassembly, pool load).
pub const FAULT_SITES: &[&str] = &[
    sites::MEDIA_READ,
    sites::BUFFERPOOL_LOAD,
    sites::EXEC_DECODE_GOP,
    sites::EXEC_CHUNK_MAP,
    sites::EXEC_REASSEMBLE,
];

/// One derived chaos schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    /// `(site, fault, hits)` to arm in the scope, if any.
    pub fault: Option<(&'static str, Fault, u64)>,
    /// Query deadline budget.
    pub deadline: Option<Duration>,
    /// Cancel the query from another thread after this long.
    pub cancel_after: Option<Duration>,
    /// Declared working set for buffer-pool admission.
    pub mem_estimate: Option<usize>,
    pub read_policy: ReadPolicy,
    /// Scan the fixture whose stored media has one corrupt GOP
    /// (exercises skip/degrade under concurrent chaos) instead of the
    /// clean one.
    pub corrupt_source: bool,
}

impl Scenario {
    /// Deterministically derives a schedule from `seed`. The mix is
    /// weighted so most runs have exactly one adversarial ingredient
    /// and a healthy minority have none (pure baseline replays) or
    /// several at once.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = Rng::new(seed);
        let fault = if rng.chance(70) {
            let site = FAULT_SITES[rng.below(FAULT_SITES.len() as u64) as usize];
            let fault = match rng.below(3) {
                0 => Fault::Error(ErrorKind::Other),
                1 => Fault::Transient(ErrorKind::Interrupted),
                _ => Fault::Delay { ms: 1 + rng.below(5) },
            };
            let hits = 1 + rng.below(3);
            Some((site, fault, hits))
        } else {
            None
        };
        let deadline = if rng.chance(25) {
            // Either far too tight (forces DeadlineExceeded or a
            // degraded landing) or comfortably generous.
            Some(if rng.chance(50) {
                Duration::from_millis(1 + rng.below(20))
            } else {
                Duration::from_secs(30)
            })
        } else {
            None
        };
        let cancel_after =
            if rng.chance(25) { Some(Duration::from_millis(rng.below(15))) } else { None };
        let mem_estimate = if rng.chance(25) { Some(1 << 20) } else { None };
        let read_policy = match rng.below(4) {
            0 | 1 => ReadPolicy::Fail,
            2 => ReadPolicy::SkipCorruptGops { max_skipped: 4 },
            _ => ReadPolicy::Degrade { max_degraded: 4 },
        };
        let corrupt_source = rng.chance(30);
        Scenario { seed, fault, deadline, cancel_after, mem_estimate, read_policy, corrupt_source }
    }

    /// Arms this scenario's fault in the calling thread's scope
    /// (clearing whatever a previous scenario left armed).
    pub fn arm(&self) {
        faults::reset();
        if let Some((site, fault, hits)) = &self.fault {
            faults::arm_n(site, fault.clone(), *hits);
        }
    }

    /// Disarms everything this scenario armed.
    pub fn disarm() {
        faults::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        for seed in 0..64 {
            let a = Scenario::from_seed(seed);
            let b = Scenario::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn seed_space_covers_every_ingredient() {
        let scenarios: Vec<Scenario> = (0..200).map(Scenario::from_seed).collect();
        assert!(scenarios.iter().any(|s| s.fault.is_none()));
        for site in FAULT_SITES {
            assert!(
                scenarios.iter().any(|s| s.fault.as_ref().is_some_and(|(f, _, _)| f == site)),
                "no scenario in 0..200 arms {site}"
            );
        }
        assert!(scenarios.iter().any(|s| s.deadline.is_some()));
        assert!(scenarios.iter().any(|s| s.cancel_after.is_some()));
        assert!(scenarios.iter().any(|s| s.mem_estimate.is_some()));
        assert!(scenarios.iter().any(|s| s.corrupt_source));
        assert!(scenarios.iter().any(|s| !s.corrupt_source));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.read_policy, ReadPolicy::Degrade { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.read_policy, ReadPolicy::SkipCorruptGops { .. })));
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
        }
    }
}
