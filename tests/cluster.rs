//! Cluster-wide fault tolerance: wire-protocol hardening (framing
//! proptests, torn/truncated/oversized/corrupt-frame rejection
//! mirroring `tests/wal_recovery.rs`), end-to-end coordinator/worker
//! execution over in-process workers (byte-identical reassembly,
//! replica failover, degraded fragment loss, cancellation,
//! deadlines), and the seeded cluster chaos soak asserting the
//! tri-state contract with no leaked admission bytes or open spans
//! on either side of the wire.
//!
//! Runs honour `LIGHTDB_THREADS` (CI soaks both 1 and 8) and
//! `LIGHTDB_CLUSTER_SEEDS` (default 60).

use lightdb::prelude::*;
use lightdb_cluster::net::{decode_frame, encode_frame, FrameParse, MAX_PAYLOAD};
use lightdb_cluster::{fixture, worker, Coordinator, CoordinatorConfig, Fragment};
use lightdb_core::algebra::{LogicalOp, LogicalPlan};
use lightdb_core::ErrorClass;
use lightdb_exec::metrics::counters;
use lightdb_storage::faults::{self, sites, Fault};
use lightdb_testsuite::clusterchaos::ClusterScenario;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------
// Wire framing: the same torn/corrupt reasoning as the WAL, for
// bytes in flight.
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (id, payload) round-trips through a frame, and every
    /// strict prefix reads as Incomplete — never Complete, never
    /// Invalid — so a reader always knows to keep waiting.
    #[test]
    fn frame_round_trip_and_prefix_safety(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let frame = encode_frame(id, &payload);
        match decode_frame(&frame) {
            FrameParse::Complete { id: rid, payload: rp, frame_len } => {
                prop_assert_eq!(rid, id);
                prop_assert_eq!(rp, payload);
                prop_assert_eq!(frame_len, frame.len());
            }
            other => prop_assert!(false, "whole frame parsed as {:?}", other),
        }
        for cut in 1..frame.len() {
            prop_assert_eq!(
                decode_frame(&frame[..cut]),
                FrameParse::Incomplete,
                "torn frame at byte {} must read as Incomplete", cut
            );
        }
    }

    /// Flipping any single byte of a frame never yields a Complete
    /// parse: damage is detected, not misread (CRC over id+payload,
    /// magic/length checks over the header).
    #[test]
    fn flipped_byte_never_decodes_complete(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<usize>(),
    ) {
        let mut frame = encode_frame(id, &payload);
        let at = flip % frame.len();
        frame[at] ^= 0x01;
        if let FrameParse::Complete { id: rid, payload: rp, .. } = decode_frame(&frame) {
            // The only byte whose flip may still parse is inside the
            // length field making the frame *shorter* — and then the
            // CRC over the shorter range must still fail. Reaching
            // here at all is a contract violation.
            prop_assert!(false, "corrupt frame decoded: id {} payload {:?}", rid, rp);
        }
    }
}

#[test]
fn oversized_declared_length_is_invalid_not_an_allocation() {
    let mut frame = encode_frame(3, b"tiny");
    frame[4..8].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
    assert_eq!(decode_frame(&frame), FrameParse::Invalid);
}

#[test]
fn per_byte_corruption_sweep_over_a_real_frame() {
    // Exhaustive single-byte sweep (wal_recovery idiom): every
    // position either Invalid or Incomplete, never Complete.
    let frame = encode_frame(9, b"cluster frame corruption sweep payload");
    for at in 0..frame.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut dam = frame.clone();
            dam[at] ^= bit;
            assert!(
                !matches!(decode_frame(&dam), FrameParse::Complete { .. }),
                "flip of byte {at} (mask {bit:#x}) decoded Complete"
            );
        }
    }
}

// ---------------------------------------------------------------
// End-to-end cluster fixtures.
// ---------------------------------------------------------------

const FRAMES: usize = 24;
const FRAGMENTS: usize = 3;
const WORKERS: usize = 3;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("lightdb-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn template() -> LogicalPlan {
    LogicalPlan::unary(
        LogicalOp::Encode {
            codec: CodecKind::H264Sim,
            quality: None,
        },
        LogicalPlan::leaf(LogicalOp::Scan {
            name: "vid".to_string(),
            version: None,
        }),
    )
}

/// One disposable cluster: per-worker data dirs (ingested once),
/// fresh in-process workers, and a coordinator over them. The workers
/// and the coordinator's threads share the spawning test's fault
/// scope, so a test's armed RPC faults never meet another test's RPCs.
struct Cluster {
    handles: Vec<Arc<Mutex<worker::WorkerHandle>>>,
    coord: Coordinator,
}

fn fast_config() -> CoordinatorConfig {
    CoordinatorConfig {
        rpc_timeout: Duration::from_millis(750),
        heartbeat_interval: Duration::from_millis(50),
        retry: lightdb_core::RetryPolicy::rpc_default(),
    }
}

fn spawn_cluster(worker_dirs: &[PathBuf], fragments: Vec<Fragment>) -> Cluster {
    let mut handles = Vec::with_capacity(worker_dirs.len());
    let mut addrs = Vec::with_capacity(worker_dirs.len());
    for dir in worker_dirs {
        let handle = worker::spawn(dir).expect("worker spawn");
        addrs.push(handle.addr());
        handles.push(Arc::new(Mutex::new(handle)));
    }
    let coord = Coordinator::new(addrs, fragments, fast_config());
    Cluster { handles, coord }
}

impl Cluster {
    fn kill_worker(&self, idx: usize) {
        self.handles[idx]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .kill();
    }
}

fn ingest(root: &Path, replication: usize) -> (Vec<PathBuf>, Vec<Fragment>, Vec<u8>) {
    let worker_dirs: Vec<PathBuf> = (0..WORKERS).map(|i| root.join(format!("w{i}"))).collect();
    let fragments =
        fixture::ingest_cluster(&worker_dirs, "vid", FRAMES, FRAGMENTS, replication)
            .expect("cluster ingest");
    let baseline_dir = root.join("baseline");
    fixture::ingest_baseline(&baseline_dir, "vid", FRAMES).expect("baseline ingest");
    let db = LightDb::open(&baseline_dir).expect("baseline open");
    let baseline = match db
        .execute_plan_with_ctx(&template(), QueryCtx::unbounded())
        .expect("baseline query")
    {
        QueryOutput::Encoded(streams) => {
            assert_eq!(streams.len(), 1);
            streams[0].to_bytes()
        }
        other => panic!("baseline produced {other:?}"),
    };
    (worker_dirs, fragments, baseline)
}

fn encoded_bytes(out: QueryOutput) -> Vec<u8> {
    match out {
        QueryOutput::Encoded(streams) => {
            assert_eq!(streams.len(), 1, "cluster queries produce one part");
            streams[0].to_bytes()
        }
        other => panic!("expected encoded output, got {other:?}"),
    }
}

// ---------------------------------------------------------------
// End-to-end: reassembly, failover, degraded loss, cancel, deadline.
// ---------------------------------------------------------------

#[test]
fn distributed_execution_matches_single_node_bytes() {
    let root = temp_root("bytes");
    let (dirs, fragments, baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    let out = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded())
        .expect("healthy cluster query");
    assert_eq!(encoded_bytes(out), baseline, "GOPUNION reassembly must be byte-identical");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_worker_fails_over_to_replica_byte_identically() {
    let root = temp_root("failover");
    let (dirs, fragments, baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    cluster.kill_worker(0);
    let out = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded())
        .expect("query must survive a killed worker via replicas");
    assert_eq!(encoded_bytes(out), baseline);
    // Either the query itself failed over mid-flight, or the
    // heartbeat beat it to the diagnosis and placement routed around
    // the corpse — both count as detecting the death.
    assert!(
        cluster.coord.metrics().counter(counters::CLUSTER_FAILOVERS) > 0
            || !cluster.coord.worker_healthy(0),
        "the killed worker's death went entirely unnoticed"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unreplicated_fragment_fails_classified_unavailable() {
    let root = temp_root("unavail");
    let (dirs, fragments, _baseline) = ingest(&root, 1);
    let cluster = spawn_cluster(&dirs, fragments);
    cluster.kill_worker(0);
    let err = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded())
        .expect_err("an unreplicated fragment on a dead worker cannot succeed under Fail");
    assert_eq!(err.classify(), ErrorClass::Unavailable, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unreplicated_fragment_under_degrade_drops_whole_gops() {
    let root = temp_root("degrade");
    let (dirs, fragments, baseline) = ingest(&root, 1);
    let baseline_stream = lightdb_codec::VideoStream::from_bytes(&baseline).expect("baseline");
    let cluster = spawn_cluster(&dirs, fragments);
    cluster.kill_worker(0);
    let out = cluster
        .coord
        .execute(
            &template(),
            ReadPolicy::Degrade { max_degraded: 8 },
            &QueryCtx::unbounded(),
        )
        .expect("Degrade policy must deliver the surviving fragments");
    let stream = match out {
        QueryOutput::Encoded(streams) => streams.into_iter().next().expect("one part"),
        other => panic!("expected encoded output, got {other:?}"),
    };
    // Well-formed: it reparses, and the loss is exactly whole
    // fragments (GOP-aligned), counted by the coordinator.
    let reparsed =
        lightdb_codec::VideoStream::from_bytes(&stream.to_bytes()).expect("degraded stream");
    assert!(reparsed.frame_count() < baseline_stream.frame_count());
    assert_eq!(reparsed.frame_count() % fixture::GOP_LENGTH, 0);
    let lost = cluster.coord.metrics().counter(counters::CLUSTER_LOST_FRAGMENTS);
    assert!(lost > 0, "lost fragments must be counted");
    assert_eq!(
        reparsed.frame_count(),
        baseline_stream.frame_count() - lost as usize * (FRAMES / FRAGMENTS),
        "loss must be whole fragments"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pre_cancelled_query_classifies_cancelled_without_dispatch() {
    let root = temp_root("cancel");
    let (dirs, fragments, _baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    let ctx = QueryCtx::unbounded();
    ctx.cancel_token().cancel();
    let err = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &ctx)
        .expect_err("cancelled before dispatch");
    assert_eq!(err.classify(), ErrorClass::Cancelled, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mid_query_cancel_interrupts_the_rpc_wait() {
    let root = temp_root("midcancel");
    let (dirs, fragments, _baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    // Slow every worker down well past the canceller's fuse.
    faults::reset();
    for w in 0..WORKERS {
        faults::arm_n(
            &format!("{}.w{w}", sites::CLUSTER_SEND),
            Fault::Delay { ms: 150 },
            100,
        );
    }
    let ctx = QueryCtx::unbounded();
    let token = ctx.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
    });
    let err = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &ctx)
        .expect_err("cancel must win against delayed RPCs");
    faults::reset();
    canceller.join().expect("canceller");
    assert_eq!(err.classify(), ErrorClass::Cancelled, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn expired_deadline_classifies_deadline_exceeded() {
    let root = temp_root("deadline");
    let (dirs, fragments, _baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    let ctx = QueryCtx::unbounded().with_deadline(Duration::from_millis(1));
    std::thread::sleep(Duration::from_millis(5));
    let err = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &ctx)
        .expect_err("expired deadline");
    assert_eq!(err.classify(), ErrorClass::DeadlineExceeded, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn transient_link_faults_are_retried_with_backoff_and_recovered() {
    let root = temp_root("transient");
    let (dirs, fragments, baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    faults::reset();
    faults::arm_n(
        &format!("{}.w0", sites::CLUSTER_CONNECT),
        Fault::Transient(std::io::ErrorKind::Interrupted),
        2,
    );
    let out = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded())
        .expect("transient connect faults must be retried through");
    faults::reset();
    assert_eq!(encoded_bytes(out), baseline);
    assert!(
        cluster.coord.metrics().counter(counters::CLUSTER_RPC_RETRIES) > 0,
        "retries must be counted"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn partitioned_worker_fails_over_byte_identically() {
    let root = temp_root("partition");
    let (dirs, fragments, baseline) = ingest(&root, 2);
    let cluster = spawn_cluster(&dirs, fragments);
    faults::reset();
    // Every connect to w1 is refused for the whole run.
    faults::arm_n(
        &format!("{}.w1", sites::CLUSTER_CONNECT),
        Fault::Partition,
        1_000,
    );
    let out = cluster
        .coord
        .execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded())
        .expect("partitioned worker must fail over to replicas");
    faults::reset();
    assert_eq!(encoded_bytes(out), baseline);
    assert!(cluster.coord.metrics().counter(counters::CLUSTER_FAILOVERS) > 0);
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------
// The seeded cluster chaos soak.
// ---------------------------------------------------------------

fn seeds() -> u64 {
    lightdb_core::envknob::read_u64("LIGHTDB_CLUSTER_SEEDS").unwrap_or(60)
}

#[test]
fn seeded_cluster_soak_holds_tri_state_and_leaks_nothing() {
    let root = temp_root("soak");
    let (dirs, fragments, baseline) = ingest(&root, 2);
    let baseline_stream =
        lightdb_codec::VideoStream::from_bytes(&baseline).expect("baseline stream");
    let fragment_frames = FRAMES / FRAGMENTS;

    let mut identical = 0u64;
    let mut failed = 0u64;
    let mut degraded_runs = 0u64;
    for seed in 0..seeds() {
        let sc = ClusterScenario::from_seed(seed, WORKERS);
        let cluster = spawn_cluster(&dirs, fragments.clone());
        faults::reset();
        if let Some((site, fault, hits)) = &sc.fault {
            faults::arm_n(site, fault.clone(), *hits);
        }
        let killer = sc.kill_worker.map(|victim| {
            let handle = cluster.handles[victim].clone();
            let delay = sc.kill_after;
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                handle.lock().unwrap_or_else(|e| e.into_inner()).kill();
            })
        });
        let mut ctx = QueryCtx::unbounded();
        if let Some(budget) = sc.deadline {
            ctx = ctx.with_deadline(budget);
        }
        let token = ctx.cancel_token();
        let canceller = sc.cancel_after.map(|after| {
            std::thread::spawn(move || {
                std::thread::sleep(after);
                token.cancel();
            })
        });

        let count = |name| cluster.coord.metrics().counter(name);
        let lost0 = count(counters::CLUSTER_LOST_FRAGMENTS);
        let skipped0 = count(counters::SKIPPED_GOPS);
        let degraded0 = count(counters::DEGRADED_GOPS);
        let result = cluster.coord.execute(&template(), sc.read_policy, &ctx);
        faults::reset();
        if let Some(handle) = killer {
            handle.join().expect("killer thread");
        }
        if let Some(handle) = canceller {
            handle.join().expect("canceller thread");
        }
        let lost = count(counters::CLUSTER_LOST_FRAGMENTS) - lost0;
        // GOPs the workers reported skipping or degrading; the
        // coordinator adds them up per query.
        let skipped = count(counters::SKIPPED_GOPS) - skipped0;
        let degraded = count(counters::DEGRADED_GOPS) - degraded0;

        match result {
            Ok(out) => {
                let bytes = encoded_bytes(out);
                if bytes == baseline {
                    identical += 1;
                    assert_eq!(lost, 0, "seed {seed}: identical output cannot lose fragments");
                } else {
                    degraded_runs += 1;
                    // A decode inside the deadline's at-risk window goes
                    // prediction-only under every read policy (counted in
                    // `scan.degraded_gops`); only the lossy policies may
                    // lose fragments or skip GOPs.
                    assert!(
                        !matches!(sc.read_policy, ReadPolicy::Fail)
                            || (lost == 0 && skipped == 0 && degraded > 0),
                        "seed {seed}: Fail policy must never return degraded bytes \
                         other than counted deadline degradation \
                         (lost {lost}, skipped {skipped}, degraded {degraded})"
                    );
                    let stream = lightdb_codec::VideoStream::from_bytes(&bytes)
                        .expect("degraded output must stay well-formed");
                    assert!(
                        lost + skipped + degraded > 0,
                        "seed {seed}: divergent bytes with nothing lost, skipped or degraded"
                    );
                    assert_eq!(
                        stream.frame_count(),
                        baseline_stream.frame_count()
                            - lost as usize * fragment_frames
                            - skipped as usize * fixture::GOP_LENGTH,
                        "seed {seed}: degradation must be whole lost fragments or skipped GOPs"
                    );
                }
            }
            Err(err) => {
                failed += 1;
                let class = err.classify();
                // A cancel-only schedule that failed must say so.
                if sc.fault.is_none()
                    && sc.kill_worker.is_none()
                    && sc.deadline.is_none()
                    && sc.cancel_after.is_some()
                {
                    assert_eq!(class, ErrorClass::Cancelled, "seed {seed}: {err}");
                }
                // A quiet schedule must not fail at all.
                assert!(
                    sc.fault.is_some()
                        || sc.kill_worker.is_some()
                        || sc.deadline.is_some()
                        || sc.cancel_after.is_some(),
                    "seed {seed}: fault-free schedule failed: {err} ({class})"
                );
            }
        }

        // No-leak invariants on both sides of the wire, after EVERY
        // run: the coordinator's spans and every surviving worker's
        // admission/span counters (probed over the live Stats RPC).
        assert_eq!(
            cluster.coord.metrics().open_spans(),
            0,
            "seed {seed}: coordinator leaked an open span"
        );
        for w in 0..WORKERS {
            if Some(w) == sc.kill_worker {
                continue;
            }
            let (admitted, open_spans) = cluster
                .coord
                .worker_stats(w)
                .unwrap_or_else(|e| panic!("seed {seed}: stats probe of worker {w}: {e}"));
            assert_eq!(admitted, 0, "seed {seed}: worker {w} leaked admission bytes");
            assert_eq!(open_spans, 0, "seed {seed}: worker {w} leaked open spans");
        }
    }

    // The seed mix must exercise all three contract arms.
    assert!(identical > 0, "no soak run was byte-identical");
    assert!(failed > 0, "no soak run failed — schedules too gentle");
    assert!(
        degraded_runs > 0,
        "no soak run degraded — fragment loss under lossy policies never engaged"
    );
    let _ = std::fs::remove_dir_all(&root);
}
