//! Seeded chaos schedules for the **cluster** soak: network faults
//! on individual coordinator↔worker links, worker kills, deadlines,
//! cancels, and read-policy mixes, derived deterministically from a
//! `u64` seed exactly like the single-node [`chaos`](crate::chaos)
//! schedules.
//!
//! The cluster soak (`tests/cluster.rs`) replays many seeds against
//! a coordinator plus in-process workers over replicated fragments
//! and asserts the cluster tri-state contract after every run:
//!
//! 1. output **byte-identical** to the fault-free single-node
//!    baseline (including runs that survived via failover), or
//! 2. a **classified** error ([`lightdb_core::ErrorClass`]), or
//! 3. a **well-formed degraded** stream (fewer GOPs from lost
//!    fragments, or substituted GOPs) with the loss counted in the
//!    coordinator's metrics —
//!
//! and in every case zero admitted bytes and zero open spans on the
//! coordinator and on every surviving worker (probed over the
//! `Stats` RPC).
//!
//! Faults arm in the soak thread's fault scope, which the coordinator's
//! RPC threads and the in-process workers' serve threads inherit; the
//! per-link site labels (`cluster.rpc.send.w0`, …) keep the blast
//! radius targeted. Worker kills are **not** modelled with
//! [`Fault::Crash`] — the crash flag belongs to the whole scope and
//! would stop the in-process coordinator too — but by the harness
//! calling `WorkerHandle::kill()`, which severs the worker's sockets
//! the way a process death would.

use crate::chaos::Rng;
use lightdb_exec::ReadPolicy;
use lightdb_storage::faults::{sites, Fault};
use std::io::ErrorKind;
use std::time::Duration;

/// The per-link fault surfaces a cluster schedule may target,
/// instantiated with a worker label by [`ClusterScenario::from_seed`].
/// `send.coordinator` / `recv.coordinator` are the *worker's* sides
/// of the exchange (workers label their accepted peer
/// `coordinator`), so schedules cover both directions of the wire.
pub const LINK_SITES: &[&str] = &[
    sites::CLUSTER_CONNECT,
    sites::CLUSTER_SEND,
    sites::CLUSTER_RECV,
];

/// One derived cluster chaos schedule.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    pub seed: u64,
    /// `(site, fault, hits)` to arm in the scope, if any. The site is
    /// fully labelled (`cluster.rpc.send.w1`).
    pub fault: Option<(String, Fault, u64)>,
    /// Kill this in-process worker after `kill_after`, if set.
    pub kill_worker: Option<usize>,
    /// Delay before the kill — zero means before the query starts,
    /// larger values land mid-query.
    pub kill_after: Duration,
    /// Query deadline budget.
    pub deadline: Option<Duration>,
    /// Cancel the query from another thread after this long.
    pub cancel_after: Option<Duration>,
    pub read_policy: ReadPolicy,
}

impl ClusterScenario {
    /// Deterministically derives a schedule from `seed` for a
    /// cluster of `workers` workers. Weighted like the single-node
    /// mix: most runs get one adversarial ingredient, some none
    /// (pure baseline replays over the wire), some several.
    pub fn from_seed(seed: u64, workers: usize) -> ClusterScenario {
        let mut rng = Rng::new(seed ^ 0xC1A5_7E12_0000_0000);
        let workers = workers.max(1) as u64;
        let fault = if rng.chance(60) {
            let (site, kind) = if rng.chance(20) {
                // Worker-side fault: serve-loop failure or a fault on
                // the worker's reply path.
                if rng.chance(50) {
                    (sites::CLUSTER_WORKER_SERVE.to_string(), rng.below(5))
                } else {
                    let base = if rng.chance(50) {
                        sites::CLUSTER_SEND
                    } else {
                        sites::CLUSTER_RECV
                    };
                    (format!("{base}.coordinator"), rng.below(5))
                }
            } else {
                // Coordinator-side fault on one worker's link.
                let base = LINK_SITES[rng.below(LINK_SITES.len() as u64) as usize];
                (format!("{base}.w{}", rng.below(workers)), rng.below(5))
            };
            let fault = match kind {
                0 => Fault::Drop,
                1 => Fault::Partition,
                2 => Fault::Delay { ms: 1 + rng.below(8) },
                3 => Fault::Transient(ErrorKind::Interrupted),
                _ => Fault::Error(ErrorKind::Other),
            };
            let hits = 1 + rng.below(3);
            Some((site, fault, hits))
        } else {
            None
        };
        let kill_worker = if rng.chance(30) {
            Some(rng.below(workers) as usize)
        } else {
            None
        };
        let kill_after = Duration::from_millis(rng.below(10));
        let deadline = if rng.chance(20) {
            Some(if rng.chance(50) {
                Duration::from_millis(1 + rng.below(20))
            } else {
                Duration::from_secs(30)
            })
        } else {
            None
        };
        let cancel_after = if rng.chance(20) {
            Some(Duration::from_millis(rng.below(15)))
        } else {
            None
        };
        let read_policy = match rng.below(4) {
            0 | 1 => ReadPolicy::Fail,
            2 => ReadPolicy::SkipCorruptGops { max_skipped: 8 },
            _ => ReadPolicy::Degrade { max_degraded: 8 },
        };
        ClusterScenario {
            seed,
            fault,
            kill_worker,
            kill_after,
            deadline,
            cancel_after,
            read_policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_scenarios_are_deterministic_per_seed() {
        for seed in 0..64 {
            let a = ClusterScenario::from_seed(seed, 3);
            let b = ClusterScenario::from_seed(seed, 3);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn cluster_seed_space_covers_every_ingredient() {
        let scenarios: Vec<ClusterScenario> =
            (0..400).map(|s| ClusterScenario::from_seed(s, 3)).collect();
        assert!(scenarios.iter().any(|s| s.fault.is_none()));
        assert!(scenarios.iter().any(|s| s.kill_worker.is_some()));
        assert!(scenarios.iter().any(|s| s.deadline.is_some()));
        assert!(scenarios.iter().any(|s| s.cancel_after.is_some()));
        for kind in ["Drop", "Partition", "Delay", "Transient", "Error"] {
            assert!(
                scenarios.iter().any(|s| s
                    .fault
                    .as_ref()
                    .is_some_and(|(_, f, _)| format!("{f:?}").starts_with(kind))),
                "no scenario in 0..400 arms a {kind} fault"
            );
        }
        // Both wire directions and the serve loop get coverage.
        for needle in ["cluster.connect.w", "cluster.rpc.send.w", "cluster.rpc.recv.w"] {
            assert!(
                scenarios.iter().any(|s| s
                    .fault
                    .as_ref()
                    .is_some_and(|(site, _, _)| site.starts_with(needle))),
                "no scenario targets {needle}*"
            );
        }
        assert!(scenarios.iter().any(|s| s
            .fault
            .as_ref()
            .is_some_and(|(site, _, _)| site == sites::CLUSTER_WORKER_SERVE)));
        assert!(scenarios.iter().any(|s| s
            .fault
            .as_ref()
            .is_some_and(|(site, _, _)| site.ends_with(".coordinator"))));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.read_policy, ReadPolicy::Degrade { .. })));
    }
}
