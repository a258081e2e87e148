//! The exhaustive crash-point sweep (see
//! `lightdb_testsuite::crashpoints`): a trace pass enumerates every
//! `(failpoint, nth hit)` a seeded ingest workload reaches, then each
//! point gets its own run that is fail-stopped exactly there and
//! audited against the durability contract — acked mutations fully
//! visible and readable, unacked ones all-or-nothing, recovery
//! idempotent, no debris.
//!
//! The simulated crash stops the test thread's fault scope until the
//! next run resets it, so the points of a sweep run one after another
//! inside a single `#[test]` instead of one test per site.

use lightdb_testsuite::crashpoints;

#[test]
fn every_crash_point_recovers_to_the_durability_contract() {
    let mut total = 0;
    // Two seeds double the op-interleaving coverage; each enumerates
    // its own crash points (the workloads differ).
    for seed in [0xC0FFEE_u64, 0xB0A7] {
        let report = crashpoints::run_all_crash_points(seed);
        eprintln!(
            "seed {seed:#x}: {} crash points over {} sites, all recovered",
            report.points, report.sites
        );
        assert!(
            report.sites >= 10,
            "seed {seed:#x}: only {} distinct sites reached",
            report.sites
        );
        total += report.points;
    }
    assert!(
        total >= 100,
        "crash-point enumeration shrank: only {total} points exercised"
    );
}
