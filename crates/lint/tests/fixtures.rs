//! Fixture tests: each known-bad snippet under `tests/fixtures/` must
//! trigger its rule at the expected `file:line`, and the escape-hatch
//! directives must behave as documented.
//!
//! Fixtures are fed to [`lint::rules::check_file`] under a *fake*
//! library-tier path — their real path (`crates/lint/tests/fixtures/`)
//! is a test path, which the workspace walker skips and the rules
//! exempt from R1/R5.

use lint::rules::{check_file, Rule};

const LIB_PATH: &str = "crates/codec/src/fixture.rs";
const STORAGE_PATH: &str = "crates/storage/src/fixture.rs";

fn lines_of(rule: Rule, path: &str, src: &str) -> Vec<u32> {
    check_file(path, src).iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn r1_fires_on_every_panic_construct() {
    let src = include_str!("fixtures/r1_panics.rs");
    let v = check_file(LIB_PATH, src);
    assert_eq!(lines_of(Rule::R1, LIB_PATH, src), vec![4, 7, 10, 13, 16], "{v:?}");
    // Violations carry the (fake) path and render as `path:line: rule: msg`.
    assert!(v[0].to_string().starts_with("crates/codec/src/fixture.rs:4: R1:"), "{}", v[0]);
}

#[test]
fn r1_allow_suppresses_only_with_justification() {
    let src = include_str!("fixtures/r1_allow.rs");
    let v = check_file(LIB_PATH, src);
    // Line 6 is covered by the justified allow on line 5. The bare
    // allow on line 10 is itself reported and covers nothing, so the
    // unwrap on line 11 fires too.
    assert_eq!(v.len(), 2, "{v:?}");
    assert_eq!((v[0].rule, v[0].line), (Rule::R1, 10));
    assert!(v[0].msg.contains("justification"), "{}", v[0]);
    assert_eq!((v[1].rule, v[1].line), (Rule::R1, 11));
}

#[test]
fn r1_skips_fixture_when_given_its_real_test_path() {
    // Under its true path the fixture is test-tier: R1 must not fire.
    let src = include_str!("fixtures/r1_panics.rs");
    let real = "crates/lint/tests/fixtures/r1_panics.rs";
    assert!(check_file(real, src).is_empty());
}

#[test]
fn r2_fires_inside_fence_only() {
    let src = include_str!("fixtures/r2_hot_alloc.rs");
    assert_eq!(lines_of(Rule::R2, LIB_PATH, src), vec![11, 12, 13, 26, 32, 45, 46]);
}

#[test]
fn r3_fires_on_both_inversions_only_in_storage() {
    let src = include_str!("fixtures/r3_lock_order.rs");
    assert_eq!(lines_of(Rule::R3, STORAGE_PATH, src), vec![7, 13]);
    // R3 is a storage-crate contract: the same source elsewhere is clean.
    assert!(lines_of(Rule::R3, LIB_PATH, src).is_empty());
}

#[test]
fn r4_fires_without_safety_comment() {
    let src = include_str!("fixtures/r4_unsafe.rs");
    assert_eq!(lines_of(Rule::R4, LIB_PATH, src), vec![4]);
}

#[test]
fn r6_fires_outside_bufferpool_module() {
    let src = include_str!("fixtures/r6_untimed_wait.rs");
    assert_eq!(lines_of(Rule::R6, LIB_PATH, src), vec![5]);
    assert_eq!(lines_of(Rule::R6, STORAGE_PATH, src), vec![5]);
    // The one sanctioned waiter module.
    assert!(lines_of(Rule::R6, "crates/storage/src/bufferpool.rs", src).is_empty());
}

#[test]
fn r8_fires_outside_cluster_net_module() {
    let src = include_str!("fixtures/r8_socket.rs");
    assert_eq!(lines_of(Rule::R8, LIB_PATH, src), vec![5, 9]);
    assert_eq!(lines_of(Rule::R8, STORAGE_PATH, src), vec![5, 9]);
    // The one module allowed to construct raw sockets.
    assert!(lines_of(Rule::R8, "crates/cluster/src/net.rs", src).is_empty());
    // Elsewhere in the cluster crate the rule still applies.
    assert_eq!(lines_of(Rule::R8, "crates/cluster/src/coordinator.rs", src), vec![5, 9]);
}

#[test]
fn r9_fires_outside_exec_parallel_in_library_code() {
    let src = include_str!("fixtures/r9_core_count.rs");
    assert_eq!(lines_of(Rule::R9, LIB_PATH, src), vec![4]);
    assert_eq!(lines_of(Rule::R9, "crates/exec/src/device.rs", src), vec![4]);
    // The one module that turns the core count into a `Parallelism`.
    assert!(lines_of(Rule::R9, "crates/exec/src/parallel.rs", src).is_empty());
    // Tooling tiers (benches, simulators) are outside the rule.
    assert!(lines_of(Rule::R9, "crates/baselines/src/scanner.rs", src).is_empty());
}

#[test]
fn r7_fires_outside_durable_and_wal_modules() {
    let src = include_str!("fixtures/r7_fsync.rs");
    assert_eq!(lines_of(Rule::R7, LIB_PATH, src), vec![5, 9]);
    assert_eq!(lines_of(Rule::R7, STORAGE_PATH, src), vec![5, 9]);
    // The two sanctioned durability modules.
    assert!(lines_of(Rule::R7, "crates/storage/src/durable.rs", src).is_empty());
    assert!(lines_of(Rule::R7, "crates/storage/src/wal.rs", src).is_empty());
}

#[test]
fn r5_fires_outside_durable_module() {
    let src = include_str!("fixtures/r5_rename.rs");
    assert_eq!(lines_of(Rule::R5, STORAGE_PATH, src), vec![5]);
    // The one sanctioned call site.
    assert!(lines_of(Rule::R5, "crates/storage/src/durable.rs", src).is_empty());
}

#[test]
fn r10_fires_on_bare_spawns_in_crates_that_reach_failpoints() {
    let src = include_str!("fixtures/r10_spawn.rs");
    assert_eq!(lines_of(Rule::R10, "crates/exec/src/parallel.rs", src), vec![4, 9]);
    assert_eq!(lines_of(Rule::R10, "crates/apps/src/fleet.rs", src), vec![4, 9]);
    // `codec` and `baselines` cannot reach a failpoint; tests are exempt.
    assert!(lines_of(Rule::R10, LIB_PATH, src).is_empty());
    assert!(lines_of(Rule::R10, "crates/baselines/src/scanner.rs", src).is_empty());
    assert!(lines_of(Rule::R10, "crates/exec/tests/x.rs", src).is_empty());
}
