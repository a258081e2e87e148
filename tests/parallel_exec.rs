//! Parallel-execution integration tests: determinism across thread
//! counts, the session-level knob, wall-vs-busy metrics under overlap,
//! buffer-pool accounting invariants under concurrent scans, and the
//! chunk-parallel `SUBQUERY` (overlap, error position, aborts, the
//! nesting rule).

use lightdb::prelude::*;
use lightdb_apps::predictor::is_important;
use lightdb_exec::ExecError;
use lightdb::frame::PlaneKind;
use lightdb_geom::Point6;
use std::collections::{BTreeSet, HashSet};
use std::f64::consts::PI;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightdb-par-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn seed(db: &LightDb, name: &str, gops: usize, gop_length: usize) {
    seed_sized(db, name, gops, gop_length, 64, 32);
}

fn seed_sized(db: &LightDb, name: &str, gops: usize, gop_length: usize, w: usize, h: usize) {
    let frames: Vec<Frame> = (0..gops * gop_length)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    f.set(x, y, Yuv::new(((x * 5 + y * 3 + i * 11) % 256) as u8, 128, 128));
                }
            }
            f
        })
        .collect();
    lightdb::ingest::store_frames(
        db,
        name,
        &frames,
        &lightdb::ingest::IngestConfig {
            fps: gop_length as u32,
            gop_length,
            ..Default::default()
        },
    )
    .unwrap();
}

/// The same plan, executed at 1/2/4/8 threads, produces byte-identical
/// encoded output — the parallel layer's ordering guarantee.
#[test]
fn query_output_is_identical_across_thread_counts() {
    let root = temp_root("determinism");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 6, 4);
    let mut session = db.session();
    let q = scan("vid") >> Map::builtin(BuiltinMap::Sharpen) >> Encode::with(CodecKind::HevcSim);
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for threads in [1usize, 2, 4, 8] {
        session.set_parallelism(Parallelism::new(threads));
        let QueryOutput::Encoded(streams) = session.execute(&q).unwrap() else { panic!() };
        let bytes: Vec<Vec<u8>> = streams.iter().map(|s| s.to_bytes()).collect();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{threads}-thread output diverged from serial"),
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Decoded (frame) outputs are identical too, including multi-part
/// plans that go through PARTITION.
#[test]
fn decoded_output_is_identical_across_thread_counts() {
    let root = temp_root("decdet");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 4, 4);
    let mut session = db.session();
    let q = scan("vid") >> Map::builtin(BuiltinMap::Blur);
    session.set_parallelism(Parallelism::SERIAL);
    let QueryOutput::Frames(serial) = session.execute(&q).unwrap() else { panic!() };
    session.set_parallelism(Parallelism::new(8));
    let QueryOutput::Frames(parallel) = session.execute(&q).unwrap() else { panic!() };
    assert_eq!(serial.len(), parallel.len());
    for ((va, fa), (vb, fb)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(va, vb);
        assert_eq!(fa, fb);
    }
    let _ = fs::remove_dir_all(&root);
}

/// A session surfaces the knob and honours `LIGHTDB_THREADS` as the
/// default; an explicit setter wins, for that session only.
#[test]
fn engine_parallelism_knob_roundtrips() {
    let root = temp_root("knob");
    let db = LightDb::open(&root).unwrap();
    let mut session = db.session();
    assert_eq!(session.config().parallelism.threads(), Parallelism::from_env().threads());
    session.set_parallelism(Parallelism::new(3));
    assert_eq!(session.config().parallelism.threads(), 3);
    session.set_parallelism(Parallelism::SERIAL);
    assert!(session.config().parallelism.is_serial());
    // A session minted afterwards starts from the default again.
    let fresh = db.session();
    assert_eq!(fresh.config().parallelism.threads(), Parallelism::from_env().threads());
    let _ = fs::remove_dir_all(&root);
}

/// STORE through the parallel auto-encode path: the stored TLF decodes
/// to the same frames regardless of thread count.
#[test]
fn parallel_store_matches_serial_store() {
    let root = temp_root("store");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "src", 4, 4);
    let mut session = db.session();
    session.set_parallelism(Parallelism::SERIAL);
    session.execute(&(scan("src") >> Map::builtin(BuiltinMap::Grayscale) >> Store::named("s1")))
        .unwrap();
    session.set_parallelism(Parallelism::new(8));
    session.execute(&(scan("src") >> Map::builtin(BuiltinMap::Grayscale) >> Store::named("s2")))
        .unwrap();
    let a = session.execute(&scan("s1")).unwrap().into_frame_parts().unwrap();
    let b = session.execute(&scan("s2")).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b, "parallel auto-encode at STORE changed the stored bytes");
    let _ = fs::remove_dir_all(&root);
}

/// Under parallel execution, per-operator wall time is bounded by busy
/// time (spans overlap, they don't sum) and both are recorded.
#[test]
fn metrics_distinguish_wall_from_busy() {
    let root = temp_root("walls");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 8, 4);
    let mut session = db.session();
    session.set_parallelism(Parallelism::new(8));
    let q = scan("vid") >> Map::builtin(BuiltinMap::Blur) >> Encode::with(CodecKind::HevcSim);
    session.execute(&q).unwrap();
    let m = session.metrics();
    for op in ["DECODE", "ENCODE", "MAP"] {
        let (busy, wall) = (m.total(op), m.wall(op));
        assert!(m.count(op) >= 8, "{op} ran once per GOP");
        assert!(busy > std::time::Duration::ZERO);
        assert!(wall > std::time::Duration::ZERO);
        // The union of spans can never exceed the sum of spans (allow
        // a tiny epsilon for the instants straddling the lock).
        assert!(
            wall <= busy + std::time::Duration::from_millis(5),
            "{op}: wall {wall:?} exceeds busy {busy:?}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// Concurrent scans through one shared buffer pool keep the
/// byte-accounting invariant: `stats.bytes` equals the sum of resident
/// entry lengths and stays within capacity.
#[test]
fn pool_accounting_invariant_under_concurrent_scans() {
    let root = temp_root("poolinv");
    let db = Arc::new({
        let db = LightDb::open(&root).unwrap();
        seed(&db, "vid", 6, 2);
        db
    });
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let out = db.execute(&scan("vid")).unwrap();
                    assert_eq!(out.frame_count(), 12);
                }
            });
        }
    });
    let stats = db.pool().stats();
    assert_eq!(
        stats.bytes,
        db.pool().resident_bytes(),
        "pool byte accounting diverged from residency under concurrency"
    );
    assert!(stats.hits + stats.misses >= 6 * 4 * 5_u64);
    assert!(stats.loads <= stats.misses, "single-flight: loads never exceed misses");
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------- SUBQUERY

/// `PARTITION` into a `cols × rows` tile grid per GOP.
fn tiles(cols: usize, rows: usize) -> Partition {
    Partition::along(Dimension::T, 1.0)
        .and(Dimension::Theta, 2.0 * PI / cols as f64)
        .and(Dimension::Phi, PI / rows as f64)
}

/// Splits one partition's own volume into `2 × 2` sub-partitions.
fn quarters(partition: &Volume) -> Partition {
    Partition::along(Dimension::Theta, partition.theta().length() / 2.0)
        .and(Dimension::Phi, partition.phi().length() / 2.0)
}

/// The first video track's stored bytes.
fn stored_bytes(db: &LightDb, name: &str) -> Vec<u8> {
    let stored = db.catalog().read(name, None).unwrap();
    stored.media().read_stream(&stored.metadata.tracks[0].media_path).unwrap().to_bytes()
}

fn exec_err(err: lightdb::Error) -> ExecError {
    match err {
        lightdb::Error::Exec(e) => e,
        other => panic!("expected an exec error, got: {other}"),
    }
}

/// (a) The Fig 11a predictive-tiling query — 4×4 tiles, the predicted
/// tile at one quality and the rest at another, stitched and stored —
/// stores the same bytes at every thread count as it does serially.
#[test]
fn tiling_store_is_byte_identical_across_thread_counts() {
    let root = temp_root("tiling");
    let db = LightDb::open(&root).unwrap();
    seed_sized(&db, "vid", 2, 4, 128, 64);
    let mut session = db.session();
    let tiling = |out: &str| {
        scan("vid")
            >> tiles(4, 4)
            >> Subquery::new("adaptive-quality", |partition, tile| {
                let quality =
                    if is_important(partition, 4, 4) { Quality::Medium } else { Quality::Low };
                tile >> Encode::quality(CodecKind::HevcSim, quality)
            })
            >> Store::named(out)
    };
    session.set_parallelism(Parallelism::SERIAL);
    session.execute(&tiling("serial")).unwrap();
    let reference = stored_bytes(&db, "serial");
    for threads in [1usize, 2, 4, 8] {
        session.set_parallelism(Parallelism::new(threads));
        let out = format!("tiled{threads}");
        session.execute(&tiling(&out)).unwrap();
        assert!(
            stored_bytes(&db, &out) == reference,
            "{threads}-thread tiling stored different bytes than the serial run"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// A point-map UDF that watches which threads evaluate it. With a
/// `rendezvous` it is also a bounded two-party barrier: the first
/// thread to enter waits inside `eval` until a second, different
/// thread enters too, or the bound runs out.
struct ThreadProbe {
    rendezvous: Option<Duration>,
    seen: Mutex<HashSet<ThreadId>>,
    arrived: Condvar,
    met: AtomicBool,
    timed_out: AtomicBool,
    inside: AtomicUsize,
    max_inside: AtomicUsize,
}

impl ThreadProbe {
    fn new(rendezvous: Option<Duration>) -> Arc<ThreadProbe> {
        Arc::new(ThreadProbe {
            rendezvous,
            seen: Mutex::new(HashSet::new()),
            arrived: Condvar::new(),
            met: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            inside: AtomicUsize::new(0),
            max_inside: AtomicUsize::new(0),
        })
    }

    fn threads_seen(&self) -> usize {
        self.seen.lock().unwrap().len()
    }
}

impl PointMapUdf for ThreadProbe {
    fn name(&self) -> &str {
        "thread-probe"
    }

    fn eval(&self, _p: &Point6, current: Yuv) -> Yuv {
        let now_inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inside.fetch_max(now_inside, Ordering::SeqCst);
        let mut seen = self.seen.lock().unwrap();
        seen.insert(std::thread::current().id());
        if let Some(bound) = self.rendezvous {
            if seen.len() >= 2 {
                self.met.store(true, Ordering::SeqCst);
                self.arrived.notify_all();
            } else if !self.timed_out.load(Ordering::SeqCst) {
                let (guard, wait) = self
                    .arrived
                    .wait_timeout_while(seen, bound, |_| !self.met.load(Ordering::SeqCst))
                    .unwrap();
                seen = guard;
                if wait.timed_out() {
                    self.timed_out.store(true, Ordering::SeqCst);
                }
            }
        }
        drop(seen);
        self.inside.fetch_sub(1, Ordering::SeqCst);
        current
    }
}

/// (b) Proof of overlap that does not depend on timing: each body runs
/// a MAP that will not return until a second thread is inside the same
/// UDF. Inside a body the MAP sees a one-chunk stream and stays on the
/// body's thread, so two threads in the UDF are two bodies in flight.
/// With two workers the partitions meet; serially nobody ever comes.
#[test]
fn subquery_bodies_overlap_on_the_worker_set() {
    let root = temp_root("overlap");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 2);
    let mut session = db.session();
    let run = |session: &Session, probe: &Arc<ThreadProbe>| {
        let probe = probe.clone();
        let q = scan("vid")
            >> tiles(2, 2)
            >> Subquery::new("meet", move |_, tile| tile >> Map::point_udf(probe.clone()));
        session.execute(&q).unwrap().into_frame_parts().unwrap()
    };
    session.set_parallelism(Parallelism::SERIAL);
    let lonely = ThreadProbe::new(Some(Duration::from_millis(100)));
    let serial = run(&session, &lonely);
    assert!(lonely.timed_out.load(Ordering::SeqCst), "a serial run has one thread");
    assert_eq!(lonely.threads_seen(), 1);

    for threads in [2usize, 8] {
        session.set_parallelism(Parallelism::new(threads));
        let probe = ThreadProbe::new(Some(Duration::from_secs(30)));
        let parallel = run(&session, &probe);
        assert!(
            probe.met.load(Ordering::SeqCst) && !probe.timed_out.load(Ordering::SeqCst),
            "{threads} threads: no two SUBQUERY bodies were ever in flight together"
        );
        assert_eq!(serial, parallel, "{threads}-thread output diverged from serial");
    }
    let _ = fs::remove_dir_all(&root);
}

/// Records which tiles of a `cols × rows` grid reach it.
struct TileRecorder {
    cols: usize,
    rows: usize,
    tiles: Mutex<BTreeSet<usize>>,
}

impl PointMapUdf for TileRecorder {
    fn name(&self) -> &str {
        "tile-recorder"
    }

    fn eval(&self, p: &Point6, current: Yuv) -> Yuv {
        let col = (p.theta.radians() / (2.0 * PI) * self.cols as f64) as usize;
        let row = (p.phi.radians() / PI * self.rows as f64) as usize;
        self.tiles.lock().unwrap().insert(row * self.cols + col);
        current
    }
}

/// (c) A body that fails on the k-th partition: the consumer sees the
/// k−1 partitions before it, then the error, and nothing after — the
/// same prefix at every thread count, although the parallel run had
/// already finished later partitions of the failing batch.
#[test]
fn failing_body_yields_the_serial_prefix_then_the_error() {
    let root = temp_root("bodyerr");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 2);
    let mut session = db.session();
    const FAILING: usize = 5; // row 1, col 1 of the 4×4 grid
    for threads in [1usize, 2, 4, 8] {
        session.set_parallelism(Parallelism::new(threads));
        let downstream =
            Arc::new(TileRecorder { cols: 4, rows: 4, tiles: Mutex::new(BTreeSet::new()) });
        let q = scan("vid")
            >> tiles(4, 4)
            >> Subquery::new("fails-on-6th", |partition, tile| {
                let col = (partition.theta().lo() / (2.0 * PI) * 4.0).round() as usize;
                let row = (partition.phi().lo() / PI * 4.0).round() as usize;
                if row * 4 + col == FAILING {
                    // Finer than the chunk's duration: PARTITION refuses.
                    tile >> Partition::along(Dimension::T, 1e-3)
                } else {
                    tile >> Map::builtin(BuiltinMap::Identity)
                }
            })
            >> Map::point_udf(downstream.clone());
        let err = exec_err(session.execute(&q).unwrap_err());
        assert!(matches!(err, ExecError::Domain(_)), "{threads} threads: {err}");
        let reached: Vec<usize> = downstream.tiles.lock().unwrap().iter().copied().collect();
        assert_eq!(
            reached,
            (0..FAILING).collect::<Vec<_>>(),
            "{threads} threads: wrong prefix ahead of the failing partition"
        );
        assert_eq!(session.metrics().open_spans(), 0);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Runs `trigger` once, from inside the first body to reach it.
struct AbortMidBody {
    trigger: Box<dyn Fn() + Send + Sync>,
    fired: AtomicBool,
}

impl PointMapUdf for AbortMidBody {
    fn name(&self) -> &str {
        "abort-mid-body"
    }

    fn eval(&self, _p: &Point6, current: Yuv) -> Yuv {
        if !self.fired.swap(true, Ordering::SeqCst) {
            (self.trigger)();
        }
        current
    }
}

/// (d) A cancel and a deadline that land while a batch of bodies is in
/// flight: the query ends with the matching error, every span opened
/// on the workers is closed, and the admission reservation is back.
#[test]
fn aborts_mid_batch_leave_no_spans_and_no_admitted_bytes() {
    let root = temp_root("midbatch");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 2, 2);
    let mut session = db.session();
    let query = |udf: Arc<AbortMidBody>| {
        scan("vid")
            >> tiles(4, 4)
            >> Subquery::new("aborted", move |_, tile| {
                tile >> Map::point_udf(udf.clone()) >> Encode::with(CodecKind::HevcSim)
            })
    };
    for threads in [1usize, 2, 8] {
        session.set_parallelism(Parallelism::new(threads));

        let ctx = QueryCtx::unbounded().with_mem_estimate(1 << 20);
        let token = ctx.cancel_token();
        let cancel = Arc::new(AbortMidBody {
            trigger: Box::new(move || token.cancel()),
            fired: AtomicBool::new(false),
        });
        let err = exec_err(session.execute_with_ctx(&query(cancel), ctx).unwrap_err());
        assert!(matches!(err, ExecError::Cancelled), "{threads} threads: {err}");
        assert_eq!(session.metrics().open_spans(), 0, "{threads} threads: cancel leaked a span");
        assert_eq!(db.pool().admitted(), 0, "{threads} threads: cancel leaked admission");

        let ctx = QueryCtx::unbounded()
            .with_deadline(Duration::from_millis(250))
            .with_mem_estimate(1 << 20);
        let expiring = ctx.clone();
        let outlive = Arc::new(AbortMidBody {
            // Holds the body until the deadline has passed (bounded).
            trigger: Box::new(move || {
                let give_up = Instant::now() + Duration::from_secs(30);
                while expiring.check().is_ok() && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }),
            fired: AtomicBool::new(false),
        });
        let err = exec_err(session.execute_with_ctx(&query(outlive), ctx).unwrap_err());
        assert!(matches!(err, ExecError::DeadlineExceeded), "{threads} threads: {err}");
        assert_eq!(session.metrics().open_spans(), 0, "{threads} threads: deadline leaked a span");
        assert_eq!(db.pool().admitted(), 0, "{threads} threads: deadline leaked admission");
    }
    let _ = fs::remove_dir_all(&root);
}

/// (e) The nesting rule: a body that itself re-partitions (and so has
/// chunk-parallel work of its own) runs serially when the SUBQUERY
/// already fans out. Four partitions are one batch at two threads, so
/// every evaluation happens on the batch's two workers: unbounded
/// nesting would add two more threads per body.
#[test]
fn nested_fan_out_stays_within_the_thread_budget() {
    let root = temp_root("nesting");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 2);
    let mut session = db.session();
    let threads = 2;
    session.set_parallelism(Parallelism::new(threads));
    let probe = ThreadProbe::new(None);
    let udf = probe.clone();
    let q = scan("vid")
        >> tiles(2, 2)
        >> Subquery::new("re-partitions", move |partition, tile| {
            tile >> quarters(partition) >> Map::point_udf(udf.clone())
        });
    session.execute(&q).unwrap();
    assert!(probe.max_inside.load(Ordering::SeqCst) <= threads);
    assert!(
        probe.threads_seen() <= threads,
        "{} threads ran bodies under a budget of {threads}",
        probe.threads_seen()
    );
    let _ = fs::remove_dir_all(&root);
}

/// (f) A SUBQUERY over a single partition has nothing to fan out, so
/// its body keeps the session's whole budget: the body's own four
/// sub-partitions meet on two workers.
#[test]
fn one_partition_subquery_keeps_inner_parallelism() {
    let root = temp_root("onepart");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 2);
    let mut session = db.session();
    session.set_parallelism(Parallelism::new(2));
    let probe = ThreadProbe::new(Some(Duration::from_secs(30)));
    let udf = probe.clone();
    let q = scan("vid")
        >> tiles(1, 1)
        >> Subquery::new("whole-frame", move |partition, tile| {
            tile >> quarters(partition) >> Map::point_udf(udf.clone())
        });
    session.execute(&q).unwrap();
    assert!(
        probe.met.load(Ordering::SeqCst) && !probe.timed_out.load(Ordering::SeqCst),
        "the lone body ran its sub-partitions on one thread"
    );
    let _ = fs::remove_dir_all(&root);
}

// --------------------------------------------------------------------- MAP

/// A frame-granular UDF that records which threads apply it and how
/// many are inside at once. (The pause only widens overlaps; every
/// assertion below is an upper bound.)
struct FrameProbe {
    seen: Mutex<HashSet<ThreadId>>,
    inside: AtomicUsize,
    max_inside: AtomicUsize,
}

impl FrameProbe {
    fn new() -> Arc<FrameProbe> {
        Arc::new(FrameProbe {
            seen: Mutex::new(HashSet::new()),
            inside: AtomicUsize::new(0),
            max_inside: AtomicUsize::new(0),
        })
    }
}

impl MapUdf for FrameProbe {
    fn name(&self) -> &str {
        "frame-probe"
    }

    fn apply(&self, frame: &Frame) -> Frame {
        let now_inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inside.fetch_max(now_inside, Ordering::SeqCst);
        self.seen.lock().unwrap().insert(std::thread::current().id());
        std::thread::sleep(Duration::from_millis(1));
        self.inside.fetch_sub(1, Ordering::SeqCst);
        frame.clone()
    }
}

/// (g) MAP runs on the session's thread budget, whatever device the
/// planner labels it with: a serial session applies the UDF on the
/// caller's thread alone, and at two threads the UDF runs on at most
/// two threads, each chunk's frames on the thread that drives it.
#[test]
fn map_runs_on_the_sessions_thread_budget() {
    let root = temp_root("mapbudget");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 8);
    let mut session = db.session();

    session.set_parallelism(Parallelism::SERIAL);
    let probe = FrameProbe::new();
    session.execute(&(scan("vid") >> Map::udf(probe.clone()))).unwrap();
    let seen = probe.seen.lock().unwrap().clone();
    assert_eq!(
        seen,
        HashSet::from([std::thread::current().id()]),
        "a serial session's MAP left the caller's thread"
    );

    session.set_parallelism(Parallelism::new(2));
    let probe = FrameProbe::new();
    session.execute(&(scan("vid") >> Map::udf(probe.clone()))).unwrap();
    assert!(probe.seen.lock().unwrap().len() <= 2);
    assert!(probe.max_inside.load(Ordering::SeqCst) <= 2);
    let _ = fs::remove_dir_all(&root);
}

/// (h) A MAP inside SUBQUERY bodies that share a batch inherits the
/// nesting rule: four bodies on two workers apply the UDF on those two
/// threads and no others.
#[test]
fn map_nested_in_a_subquery_batch_stays_within_the_thread_budget() {
    let root = temp_root("mapnested");
    let db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 1, 4);
    let mut session = db.session();
    let threads = 2;
    session.set_parallelism(Parallelism::new(threads));
    let probe = FrameProbe::new();
    let udf = probe.clone();
    let q = scan("vid")
        >> tiles(2, 2)
        >> Subquery::new("per-tile map", move |_, tile| tile >> Map::udf(udf.clone()));
    session.execute(&q).unwrap();
    assert!(probe.max_inside.load(Ordering::SeqCst) <= threads);
    let seen = probe.seen.lock().unwrap().len();
    assert!(seen <= threads, "{seen} threads applied the UDF under a budget of {threads}");
    let _ = fs::remove_dir_all(&root);
}

/// (i) MAP output does not depend on the thread count: built-in
/// kernels and a custom UDF, one-frame and many-frame GOPs, on a frame
/// height (34 rows of chroma) no band split divides evenly.
#[test]
fn map_output_is_identical_across_thread_counts() {
    struct Negative;
    impl MapUdf for Negative {
        fn name(&self) -> &str {
            "negative"
        }
        fn apply(&self, frame: &Frame) -> Frame {
            let mut out = frame.clone();
            out.plane_mut(PlaneKind::Luma).iter_mut().for_each(|p| *p = 255 - *p);
            out
        }
    }
    let root = temp_root("mapdet");
    let db = LightDb::open(&root).unwrap();
    // The codec wants macroblock-aligned frames; SELECT crops them to
    // 48×34 before the MAP.
    seed_sized(&db, "one", 3, 1, 64, 64);
    seed_sized(&db, "many", 2, 5, 64, 64);
    let mut session = db.session();
    let crop = || {
        Select::along(Dimension::Theta, 0.0, 2.0 * PI * 48.0 / 64.0).and(
            Dimension::Phi,
            0.0,
            PI * 34.0 / 64.0,
        )
    };
    let maps: Vec<(&str, Map)> = vec![
        ("blur", Map::builtin(BuiltinMap::Blur)),
        ("sharpen", Map::builtin(BuiltinMap::Sharpen)),
        ("grayscale", Map::builtin(BuiltinMap::Grayscale)),
        ("negative", Map::udf(Arc::new(Negative))),
    ];
    for (name, map) in maps {
        for tlf in ["one", "many"] {
            let q = scan(tlf) >> crop() >> map.clone();
            session.set_parallelism(Parallelism::SERIAL);
            let serial = session.execute(&q).unwrap().into_frame_parts().unwrap();
            let (w, h) = (serial[0][0].width(), serial[0][0].height());
            assert_eq!((w, h), (48, 34), "the crop this test is about");
            for threads in [2usize, 3, 8] {
                session.set_parallelism(Parallelism::new(threads));
                let got = session.execute(&q).unwrap().into_frame_parts().unwrap();
                assert_eq!(got, serial, "{name} over {tlf} at {threads} threads");
            }
        }
    }
    let _ = fs::remove_dir_all(&root);
}
