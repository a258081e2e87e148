//! Resilient-execution integration tests: cancellation latency,
//! deadline expiry, admission control backpressure, degraded reads,
//! and metrics accounting under aborts.
//!
//! Faults armed on a test's thread reach the executor's scatter
//! workers (they inherit its fault scope) and no other test.

use lightdb::prelude::*;
use lightdb_core::ErrorClass;
use lightdb_exec::metrics::counters;
use lightdb_exec::ExecError;
use lightdb_storage::faults::{self, sites, Fault};
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("lightdb-resilience-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// 16 frames (8 two-frame GOPs) of 32×32 video stored as `vid`.
fn seeded_db(tag: &str) -> LightDb {
    let db = LightDb::open(temp_root(tag)).unwrap();
    let frames: Vec<Frame> =
        (0..16).map(|i| Frame::filled(32, 32, Yuv::new((i * 15) as u8, 100, 160))).collect();
    lightdb::ingest::store_frames(
        &db,
        "vid",
        &frames,
        &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
    )
    .unwrap();
    db
}

fn cleanup(db: LightDb) {
    let root = db.catalog().root().to_path_buf();
    drop(db);
    let _ = fs::remove_dir_all(root);
}

fn exec_err(err: lightdb::Error) -> ExecError {
    match err {
        lightdb::Error::Exec(e) => e,
        other => panic!("expected an exec error, got: {other}"),
    }
}

/// A decode-forcing query over the fixture (a bare `SCAN` stays
/// encoded end-to-end and never reaches the decode failpoints).
fn decoding_query() -> VrqlExpr {
    scan("vid") >> Map::builtin(BuiltinMap::Grayscale)
}

/// A cancel landing mid-query is observed within roughly one chunk of
/// work: every GOP decode is stalled 150 ms, so the query runs at
/// least 150 ms at any parallelism (8 chunks × 150 ms serially), the
/// 50 ms cancel always lands mid-flight, and the query returns
/// `Cancelled` within about one stalled chunk of the cancel — far
/// sooner than it could have finished.
#[test]
fn cancel_mid_query_returns_promptly_with_cancelled() {
    let db = seeded_db("cancel");
    faults::reset();
    faults::arm(sites::EXEC_DECODE_GOP, Fault::Delay { ms: 150 });
    let ctx = QueryCtx::unbounded();
    let token = ctx.cancel_token();
    let cancelled_at: std::sync::Arc<Mutex<Option<Instant>>> =
        std::sync::Arc::new(Mutex::new(None));
    let cancelled_at2 = cancelled_at.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        *cancelled_at2.lock().unwrap() = Some(Instant::now());
    });
    let result = db.execute_with_ctx(&decoding_query(), ctx);
    let returned_at = Instant::now();
    canceller.join().unwrap();
    faults::reset();
    let err = exec_err(result.unwrap_err());
    assert!(matches!(err, ExecError::Cancelled), "{err}");
    let cancel_instant = cancelled_at.lock().unwrap().expect("canceller ran");
    let latency = returned_at.saturating_duration_since(cancel_instant);
    // In-flight chunks finish their 150 ms stall, then the abort is
    // observed at the next chunk boundary. Serially, ~1.1 s of
    // remaining stalls were skipped.
    assert!(latency < Duration::from_millis(700), "cancel→return took {latency:?}");
    assert_eq!(db.pool().admitted(), 0);
    assert_eq!(db.metrics().open_spans(), 0);
    cleanup(db);
}

/// An expired deadline fails with `DeadlineExceeded` and the query's
/// admission reservation is released on the way out.
#[test]
fn deadline_expiry_releases_admission() {
    let db = seeded_db("deadline");
    faults::reset();
    // Every decode stalls 150 ms, so the query cannot finish inside a
    // 60 ms budget at any parallelism.
    faults::arm(sites::EXEC_DECODE_GOP, Fault::Delay { ms: 150 });
    let ctx = QueryCtx::unbounded()
        .with_deadline(Duration::from_millis(60))
        .with_mem_estimate(1 << 20);
    let err = exec_err(db.execute_with_ctx(&decoding_query(), ctx).unwrap_err());
    faults::reset();
    assert!(matches!(err, ExecError::DeadlineExceeded), "{err}");
    assert_eq!(err.classify(), ErrorClass::DeadlineExceeded);
    assert_eq!(db.pool().admitted(), 0, "deadline abort leaked its admission");
    assert_eq!(db.metrics().open_spans(), 0);
    cleanup(db);
}

/// Block-policy admission applies backpressure: a query that does not
/// fit waits, runs once capacity frees up, and times out `Overloaded`
/// when it never does.
#[test]
fn blocked_admission_waits_then_runs_or_times_out() {
    let db = seeded_db("admission");
    db.set_admission_limit(1 << 20);
    let mut session = db.session();
    // A rival thread occupies the whole admission budget for 600 ms.
    let pool = db.pool().clone();
    let (admitted_tx, admitted_rx) = std::sync::mpsc::channel();
    let rival = std::thread::spawn(move || {
        let reservation = pool.admit(1 << 20, AdmitPolicy::FailFast, &|| false).unwrap();
        admitted_tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        let released_at = Instant::now();
        drop(reservation);
        released_at
    });
    admitted_rx.recv().unwrap();
    // Short timeout → the blocked query times out, classified.
    session.set_admit_policy(AdmitPolicy::Block { timeout: Duration::from_millis(80) });
    let ctx = QueryCtx::unbounded().with_mem_estimate(1 << 20);
    let err = exec_err(session.execute_with_ctx(&scan("vid"), ctx).unwrap_err());
    assert!(matches!(err, ExecError::Overloaded(_)), "{err}");
    assert_eq!(err.classify(), ErrorClass::Overloaded);
    // Generous timeout → backpressure: the query waits out the rival,
    // is admitted the moment capacity frees, and completes.
    session.set_admit_policy(AdmitPolicy::Block { timeout: Duration::from_secs(10) });
    let ctx = QueryCtx::unbounded().with_mem_estimate(1 << 20);
    let out = session.execute_with_ctx(&scan("vid"), ctx).unwrap();
    let done = Instant::now();
    let released_at = rival.join().unwrap();
    assert!(done >= released_at, "query ran before capacity freed");
    assert_eq!(out.frame_count(), 16);
    assert_eq!(db.pool().admitted(), 0);
    cleanup(db);
}

/// `ReadPolicy::Degrade` turns a corrupt GOP into a well-formed
/// substitute instead of failing or shrinking the output, and counts
/// it in `scan.degraded_gops`.
#[test]
fn degrade_policy_preserves_output_shape_over_corruption() {
    let db = seeded_db("degrade");
    let root = db.catalog().root().to_path_buf();
    let baseline = db.execute(&scan("vid")).unwrap().into_frame_parts().unwrap();
    // Flip a byte in the third GOP's media range.
    {
        let stored = db.catalog().read("vid", None).unwrap();
        let track = &stored.metadata.tracks[0];
        let entry = &track.gop_index[2];
        let media = root.join("vid").join(&track.media_path);
        let mut bytes = fs::read(&media).unwrap();
        bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x01;
        fs::write(&media, &bytes).unwrap();
    }
    // Reopen: a fresh buffer pool, so the corruption is actually read.
    drop(db);
    let db = LightDb::open(&root).unwrap();
    let mut session = db.session();
    session.set_read_policy(ReadPolicy::Degrade { max_degraded: 1 });
    let out = session.execute(&scan("vid")).unwrap().into_frame_parts().unwrap();
    assert_eq!(session.metrics().counter(counters::DEGRADED_GOPS), 1);
    assert_eq!(session.metrics().counter(counters::SKIPPED_GOPS), 0);
    // Same shape as the clean baseline; undamaged GOPs byte-identical.
    assert_eq!(out.len(), baseline.len());
    let (got, want) = (&out[0], &baseline[0]);
    assert_eq!(got.len(), want.len(), "degrade must not drop frames");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!((g.width(), g.height()), (w.width(), w.height()), "frame {i}");
        if !(4..6).contains(&i) {
            assert_eq!(g, w, "undamaged frame {i} must be byte-identical");
        }
    }
    cleanup(db);
}

/// Aborts at every stage leave the span ledger balanced: no
/// `open_spans` leak, so wall/busy stay meaningful across failures.
#[test]
fn aborted_queries_leave_no_open_metrics_spans() {
    let db = seeded_db("spans");
    let mut session = db.session();
    // The reassembly failpoint only exists on the scatter path; force
    // it even on a single-core machine.
    session.set_parallelism(Parallelism::new(2));
    for site in [sites::EXEC_DECODE_GOP, sites::EXEC_CHUNK_MAP, sites::EXEC_REASSEMBLE] {
        faults::reset();
        faults::arm(site, Fault::Error(std::io::ErrorKind::Other));
        let result = session.execute(&decoding_query());
        faults::reset();
        assert!(result.is_err(), "fault at {site} must surface");
        assert_eq!(session.metrics().open_spans(), 0, "span leaked after abort at {site}");
        assert_eq!(db.pool().admitted(), 0);
    }
    // The database still works after all that.
    assert_eq!(session.execute(&scan("vid")).unwrap().frame_count(), 16);
    cleanup(db);
}

/// `LIGHTDB_DEADLINE_MS`-style contexts built from explicit values:
/// a pre-expired deadline never starts chunk work, and an unbounded
/// context never aborts.
#[test]
fn deadline_zero_fails_before_any_decode() {
    let db = seeded_db("predeadline");
    let decode_before = db.metrics().count("DECODE");
    let ctx = QueryCtx::unbounded().with_deadline(Duration::ZERO);
    let err = exec_err(db.execute_with_ctx(&scan("vid"), ctx).unwrap_err());
    assert!(matches!(err, ExecError::DeadlineExceeded), "{err}");
    assert_eq!(db.metrics().count("DECODE"), decode_before, "no decode may start");
    cleanup(db);
}
