//! Fault scopes seen from outside the storage crate: what threads
//! share a scope, and what a scope counts.

use lightdb_storage::faults::{
    arm, arm_at, arm_n, crashed, fail_point, hit_sites, hits, inherit, reset, Fault,
};
use std::io;

#[test]
fn inherited_threads_share_the_spawners_scope() {
    reset();
    arm_n("t.scope", Fault::Error(io::ErrorKind::Interrupted), 1);
    let seen = std::thread::spawn(inherit(|| fail_point("t.scope").is_err()))
        .join()
        .expect("thread panicked");
    assert!(seen, "an inherited thread sees its spawner's faults");
    assert_eq!(hits("t.scope"), 1, "its hits count in the spawner's scope");
    // The one charge is spent across the scope.
    assert!(fail_point("t.scope").is_ok());
    // A crash on an inherited thread stops the scope, and only it.
    arm_n("t.crash", Fault::Crash, 1);
    std::thread::spawn(inherit(|| fail_point("t.crash").is_err()))
        .join()
        .expect("crash");
    assert!(crashed() && fail_point("t.any").is_err());
    let stranger = std::thread::spawn(|| (crashed(), fail_point("t.any").is_ok()));
    assert_eq!(stranger.join().expect("thread panicked"), (false, true));
    reset();
    assert!(
        !crashed() && fail_point("t.any").is_ok(),
        "reset clears the crash"
    );
}

#[test]
fn arm_at_targets_the_nth_hit() {
    reset();
    // Fires on the 3rd hit only — earlier hits pass, later hits
    // pass (the single charge is spent).
    arm_at("t.nth", Fault::Error(io::ErrorKind::Other), 3);
    assert!(fail_point("t.nth").is_ok());
    assert!(fail_point("t.nth").is_ok());
    assert!(fail_point("t.nth").is_err());
    assert!(fail_point("t.nth").is_ok());
    reset();
}

#[test]
fn hit_sites_reports_sorted_counts() {
    reset();
    // A never-hit armed dummy turns hit counting on.
    arm("t.trace.dummy", Fault::Delay { ms: 0 });
    let _ = fail_point("t.sites.b");
    let _ = fail_point("t.sites.a");
    let _ = fail_point("t.sites.a");
    let sites = hit_sites();
    assert_eq!(
        sites,
        vec![("t.sites.a".to_string(), 2), ("t.sites.b".to_string(), 1)],
        "hit_sites must come back sorted"
    );
    reset();
}
