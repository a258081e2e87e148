//! Worker behaviour under an armed decode failpoint, end to end
//! through a coordinator: what a deadline-degraded fragment reports,
//! and what a killed worker releases.
//!
//! The delays are armed in the test's fault scope, which the workers
//! it spawns inherit, so the tests run side by side.

use lightdb::LightDb;
use lightdb_cluster::{fixture, worker, Coordinator, CoordinatorConfig, Fragment};
use lightdb_codec::{CodecKind, VideoStream};
use lightdb_core::algebra::{LogicalOp, LogicalPlan};
use lightdb_core::RetryPolicy;
use lightdb_exec::metrics::counters;
use lightdb_exec::{QueryCtx, QueryOutput, ReadPolicy};
use lightdb_storage::faults::{self, sites, Fault};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `workers` freshly ingested data directories holding 8 frames per
/// fragment of `vid`, and the fragment table.
fn ingest(tag: &str, workers: usize, fragments: usize) -> (PathBuf, Vec<PathBuf>, Vec<Fragment>) {
    let root = std::env::temp_dir().join(format!("lightdb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dirs: Vec<_> = (0..workers).map(|i| root.join(format!("w{i}"))).collect();
    let replication = workers.min(2);
    let table = fixture::ingest_cluster(&dirs, "vid", 8 * fragments, fragments, replication);
    (root, dirs, table.unwrap())
}

fn coordinator(handles: &[worker::WorkerHandle], fragments: Vec<Fragment>) -> Coordinator {
    let cfg = CoordinatorConfig {
        rpc_timeout: Duration::from_secs(10),
        heartbeat_interval: Duration::from_millis(50),
        retry: RetryPolicy::rpc_default(),
    };
    Coordinator::new(handles.iter().map(|h| h.addr()).collect(), fragments, cfg)
}

/// `SCAN vid >> ENCODE`.
fn template() -> LogicalPlan {
    let scan = LogicalPlan::leaf(LogicalOp::Scan { name: "vid".to_string(), version: None });
    LogicalPlan::unary(LogicalOp::Encode { codec: CodecKind::H264Sim, quality: None }, scan)
}

#[test]
fn a_deadline_degraded_fragment_is_counted_not_lost() {
    let (root, dirs, fragments) = ingest("deadline", 3, 3);
    let handles: Vec<_> = dirs.iter().map(|d| worker::spawn(d).unwrap()).collect();
    let coord = coordinator(&handles, fragments);
    let template = template();
    let bytes = |out: QueryOutput| match out {
        QueryOutput::Encoded(streams) => streams[0].to_bytes(),
        other => panic!("expected encoded output, got {other:?}"),
    };
    let clean = bytes(coord.execute(&template, ReadPolicy::Fail, &QueryCtx::unbounded()).unwrap());
    // A 1 s budget is at risk from 750 ms on: the first GOP decode
    // sleeps until 800 ms, and every decode from then on degrades.
    faults::reset();
    faults::arm_n(sites::EXEC_DECODE_GOP, Fault::Delay { ms: 800 }, 1);
    let ctx = QueryCtx::unbounded().with_deadline(Duration::from_secs(1));
    let out = coord.execute(&template, ReadPolicy::Fail, &ctx);
    faults::reset();
    let out = bytes(out.expect("a degraded decode lands inside the deadline"));
    let frames = |b: &[u8]| VideoStream::from_bytes(b).unwrap().frame_count();
    assert_ne!(out, clean, "the at-risk decode did not degrade");
    assert_eq!(frames(&out), frames(&clean), "degradation keeps the shape");
    assert_eq!(coord.metrics().counter(counters::CLUSTER_LOST_FRAGMENTS), 0);
    assert!(coord.metrics().counter(counters::DEGRADED_GOPS) > 0, "degradation went uncounted");
    drop(coord);
    drop(handles);
    let _ = std::fs::remove_dir_all(&root);
}

/// A worker dropped (killed) while its handler is still inside a query
/// gives its data directory back before the drop returns, as a dead
/// process would: the next worker on that directory opens it at once.
#[test]
fn a_killed_worker_releases_its_data_directory() {
    let (root, dirs, fragments) = ingest("kill-release", 1, 1);
    let handle = worker::spawn(&dirs[0]).unwrap();
    let coord = coordinator(std::slice::from_ref(&handle), fragments);
    faults::reset();
    faults::arm_n(sites::EXEC_DECODE_GOP, Fault::Delay { ms: 300 }, 1);
    std::thread::scope(|s| {
        let query = s.spawn(|| coord.execute(&template(), ReadPolicy::Fail, &QueryCtx::unbounded()));
        // Kill while the handler sleeps in the decode failpoint.
        let start = Instant::now();
        while faults::hits(sites::EXEC_DECODE_GOP) == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "the query never reached DECODE");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(handle);
        let reopened = LightDb::open(&dirs[0]);
        assert!(reopened.is_ok(), "a killed worker still holds its data directory: {reopened:?}");
        drop(reopened);
        let _ = query.join();
    });
    faults::reset();
    drop(coord);
    let _ = std::fs::remove_dir_all(&root);
}
