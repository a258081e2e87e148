//! Multi-session server front-end integration tests: per-session knob
//! isolation, byte-identical outputs under concurrency, the shared
//! plan cache (hit/miss/eviction counters and version safety), shared
//! scans decoding each GOP exactly once, per-session admission
//! accounting, session budgets, and a seeded concurrent-session chaos
//! soak.
//!
//! Runs honour `LIGHTDB_THREADS` (CI soaks both 1 and 8) and
//! `LIGHTDB_CHAOS_SEEDS` for the soak round count.

use lightdb::prelude::*;
use lightdb::storage::faults;
use lightdb_exec::metrics::counters;
use lightdb_testsuite::chaos::Scenario;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightdb-sess-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn seed_tlf(db: &LightDb, name: &str, gops: usize, gop_length: usize) {
    let frames: Vec<Frame> = (0..gops * gop_length)
        .map(|i| {
            let mut f = Frame::new(64, 32);
            for y in 0..32 {
                for x in 0..64 {
                    f.set(x, y, Yuv::new(((x * 7 + y * 3 + i * 13) % 256) as u8, 110, 150));
                }
            }
            f
        })
        .collect();
    lightdb::ingest::store_frames(
        db,
        name,
        &frames,
        &lightdb::ingest::IngestConfig { fps: gop_length as u32, gop_length, ..Default::default() },
    )
    .unwrap();
}

/// Knobs set on one session never show through another session or the
/// defaults later sessions start from.
#[test]
fn session_knobs_do_not_leak_across_sessions() {
    let root = temp_root("knobs");
    let db = LightDb::open(&root).unwrap();
    let default_threads = db.session().config().parallelism.threads();
    let mut a = db.session();
    let b = db.session();
    assert_ne!(a.id(), b.id(), "sessions must have distinct ids");
    a.set_parallelism(Parallelism::SERIAL);
    a.set_admit_policy(AdmitPolicy::FailFast);
    let mut opts = a.options();
    opts.use_indexes = !opts.use_indexes;
    a.set_options(opts);
    // B and sessions minted afterwards are untouched.
    assert_eq!(b.config().parallelism.threads(), default_threads);
    assert!(!b.config().parallelism.is_serial() || default_threads == 1);
    assert_eq!(db.session().config().parallelism.threads(), default_threads);
    assert_ne!(
        a.options().use_indexes,
        b.options().use_indexes,
        "options must be per-session"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Two sessions with divergent parallelism and planner options, each
/// running a mixed statement stream concurrently, produce outputs
/// byte-identical to a serial reference run.
#[test]
fn concurrent_divergent_sessions_match_serial_reference() {
    let root = temp_root("divergent");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 4, 4);
    let queries: Vec<VrqlExpr> = vec![
        scan("vid") >> Map::builtin(BuiltinMap::Grayscale),
        scan("vid") >> Select::along(Dimension::T, 0.0, 2.0) >> Map::builtin(BuiltinMap::Blur),
        scan("vid") >> Map::builtin(BuiltinMap::Sharpen),
    ];
    // Serial reference through a dedicated session.
    let mut reference_session = db.session();
    reference_session.set_parallelism(Parallelism::SERIAL);
    let reference: Vec<_> = queries
        .iter()
        .map(|q| reference_session.execute(q).unwrap().into_frame_parts().unwrap())
        .collect();

    let mut fast = db.session();
    fast.set_parallelism(Parallelism::new(8));
    let mut slow = db.session();
    slow.set_parallelism(Parallelism::SERIAL);
    // A divergent read policy is output-neutral on clean data.
    slow.set_read_policy(ReadPolicy::SkipCorruptGops { max_skipped: 2 });

    let queries = Arc::new(queries);
    let reference = Arc::new(reference);
    std::thread::scope(|s| {
        for session in [fast, slow] {
            let queries = queries.clone();
            let reference = reference.clone();
            s.spawn(move || {
                for round in 0..3 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = session.execute(q).unwrap().into_frame_parts().unwrap();
                        assert_eq!(
                            got, reference[i],
                            "round {round}, query {i}: output diverged from serial"
                        );
                    }
                }
            });
        }
    });
    let _ = fs::remove_dir_all(&root);
}

/// Repeat executions of a statement hit the engine plan cache,
/// counter-verified on the session's metrics.
#[test]
fn repeat_statements_hit_the_plan_cache() {
    let root = temp_root("plancache");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);
    let session = db.session();
    let stmt = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);

    session.execute(&stmt).unwrap();
    let misses_after_first = session.metrics().counter(counters::PLAN_CACHE_MISSES);
    assert!(misses_after_first >= 1, "first execution must miss the plan cache");
    assert_eq!(session.metrics().counter(counters::PLAN_CACHE_HITS), 0);
    assert!(db.plan_cache_len() >= 1, "the plan must be cached");

    session.execute(&stmt).unwrap();
    assert!(
        session.metrics().counter(counters::PLAN_CACHE_HITS) >= 1,
        "repeat execution must hit the plan cache"
    );
    assert_eq!(
        session.metrics().counter(counters::PLAN_CACHE_MISSES),
        misses_after_first,
        "repeat execution must not miss again"
    );
    let _ = fs::remove_dir_all(&root);
}

/// `EXPLAIN` on a session plans under that session's options; the
/// handle's `explain` plans at the defaults.
#[test]
fn session_explain_uses_the_sessions_options() {
    let root = temp_root("explain");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);
    let q = scan("vid") >> Select::along(Dimension::T, 0.0, 1.0);
    let mut no_hops = db.session();
    no_hops.set_options(PlannerOptions { use_hops: false, ..no_hops.options() });
    let plan = no_hops.explain(&q).unwrap();
    assert!(!plan.contains("GOPSELECT"), "{plan}");
    let default_plan = db.explain(&q).unwrap();
    assert!(default_plan.contains("GOPSELECT"), "{default_plan}");
    assert_eq!(default_plan, db.session().explain(&q).unwrap());
    let _ = fs::remove_dir_all(&root);
}

/// The plan cache is shared across sessions, keys on planner options,
/// and a STORE bumping the scanned version orphans old entries instead
/// of serving stale plans.
#[test]
fn plan_cache_is_shared_and_version_safe() {
    let root = temp_root("cachever");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);

    let a = db.session();
    let b = db.session();
    a.execute(&q).unwrap();
    b.execute(&q).unwrap();
    assert!(
        b.metrics().counter(counters::PLAN_CACHE_HITS) >= 1,
        "a second session running the same statement must hit the shared cache"
    );

    // Divergent options occupy a different cache entry (no false hit).
    let mut c = db.session();
    let mut opts = c.options();
    opts.use_indexes = !opts.use_indexes;
    c.set_options(opts);
    c.execute(&q).unwrap();
    assert_eq!(
        c.metrics().counter(counters::PLAN_CACHE_HITS),
        0,
        "divergent options must not share a cache entry"
    );
    assert!(c.metrics().counter(counters::PLAN_CACHE_MISSES) >= 1);

    // A new version of the scanned TLF changes the resolved plan shape
    // (the key pins scan versions), so the next execution misses and
    // observes the new content.
    let before = a.execute(&q).unwrap().into_frame_parts().unwrap();
    let brighter: Vec<Frame> = (0..4).map(|_| Frame::filled(64, 32, Yuv::new(250, 110, 150))).collect();
    lightdb::ingest::store_frames(
        &db,
        "vid",
        &brighter,
        &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
    )
    .unwrap();
    let misses0 = a.metrics().counter(counters::PLAN_CACHE_MISSES);
    let after = a.execute(&q).unwrap().into_frame_parts().unwrap();
    assert!(
        a.metrics().counter(counters::PLAN_CACHE_MISSES) > misses0,
        "a version bump must change the cache key"
    );
    assert_ne!(before, after, "stale plan served after STORE");
    let _ = fs::remove_dir_all(&root);
}

/// Eight barriered sessions running one cacheable statement plan it
/// once: the plan cache is single-flight, and a request that waited on
/// the planning counts as a hit. A session with different planner
/// options still gets an entry of its own.
#[test]
fn concurrent_identical_statements_plan_once() {
    let root = temp_root("planonce");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);
    const SESSIONS: usize = 8;
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);
    let barrier = Barrier::new(SESSIONS);
    let sessions: Vec<_> = (0..SESSIONS).map(|_| db.session()).collect();
    std::thread::scope(|s| {
        for session in &sessions {
            let (barrier, q) = (&barrier, &q);
            s.spawn(move || {
                barrier.wait();
                session.execute(q).unwrap();
            });
        }
    });
    let total = |name: &str| sessions.iter().map(|s| s.metrics().counter(name)).sum::<u64>();
    assert_eq!(total(counters::PLAN_CACHE_MISSES), 1, "one statement, one planning");
    assert_eq!(total(counters::PLAN_CACHE_HITS), SESSIONS as u64 - 1);
    assert_eq!(db.plan_cache_len(), 1);

    let mut other = db.session();
    let mut opts = other.options();
    opts.use_indexes = !opts.use_indexes;
    other.set_options(opts);
    other.execute(&q).unwrap();
    assert_eq!(other.metrics().counter(counters::PLAN_CACHE_HITS), 0);
    assert_eq!(other.metrics().counter(counters::PLAN_CACHE_MISSES), 1);
    assert_eq!(db.plan_cache_len(), 2, "divergent options get their own entry");
    let _ = fs::remove_dir_all(&root);
}

/// A TLF dropped and re-created under the same name with a different
/// GOP length is planned afresh: its version is new, so the cached
/// plan of the dropped TLF (whose temporal pushdown was computed from
/// the old frame rate) is never served for it.
#[test]
fn plan_cache_is_safe_across_drop_and_recreate() {
    let root = temp_root("planredrop");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);
    let q = |name: &str| {
        scan(name) >> Select::along(Dimension::T, 0.0, 1.0) >> Map::builtin(BuiltinMap::Grayscale)
    };
    let session = db.session();
    assert_eq!(session.execute(&q("vid")).unwrap().frame_count(), 2);
    db.execute(&drop_tlf("vid")).unwrap();
    seed_tlf(&db, "vid", 2, 4);
    seed_tlf(&db, "reference", 2, 4);
    let misses = session.metrics().counter(counters::PLAN_CACHE_MISSES);
    let got = session.execute(&q("vid")).unwrap().into_frame_parts().unwrap();
    assert_eq!(session.metrics().counter(counters::PLAN_CACHE_MISSES), misses + 1);
    assert_eq!(got, session.execute(&q("reference")).unwrap().into_frame_parts().unwrap());
    assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 4);
    let _ = fs::remove_dir_all(&root);
}

/// N sessions scanning the same TLF concurrently decode each GOP
/// exactly once through the shared-decode cache: the decode counters
/// summed across sessions equal the GOP count, everything else is hits.
#[test]
fn shared_scans_decode_each_gop_exactly_once() {
    let root = temp_root("sharedscan");
    let db = LightDb::open(&root).unwrap();
    const GOPS: usize = 6;
    seed_tlf(&db, "vid", GOPS, 2);
    const SESSIONS: usize = 4;
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);
    let sessions: Vec<_> = (0..SESSIONS).map(|_| db.session()).collect();
    let reference = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|session| {
                let barrier = barrier.clone();
                let q = q.clone();
                s.spawn(move || {
                    barrier.wait();
                    session.execute(&q).unwrap().into_frame_parts().unwrap()
                })
            })
            .collect();
        let mut outputs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let reference = outputs.pop().unwrap();
        for out in &outputs {
            assert_eq!(out, &reference, "shared-scan hit diverged from a fresh decode");
        }
        reference
    });
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), GOPS * 2);
    let decodes: u64 =
        sessions.iter().map(|s| s.metrics().counter(counters::SHARED_SCAN_DECODES)).sum();
    let hits: u64 =
        sessions.iter().map(|s| s.metrics().counter(counters::SHARED_SCAN_HITS)).sum();
    assert_eq!(decodes, GOPS as u64, "each GOP must be decoded exactly once");
    assert_eq!(
        hits,
        ((SESSIONS - 1) * GOPS) as u64,
        "every other access must be served from the shared cache"
    );
    let _ = fs::remove_dir_all(&root);
}

/// `seed_tlf`'s pattern at 128×64 on a 2×2 tile grid.
fn seed_tiled_tlf(db: &LightDb, name: &str, gops: usize, gop_length: usize) {
    let frames: Vec<Frame> = (0..gops * gop_length)
        .map(|i| {
            let mut f = Frame::new(128, 64);
            for y in 0..64 {
                for x in 0..128 {
                    f.set(x, y, Yuv::new(((x * 7 + y * 3 + i * 13) % 256) as u8, 110, 150));
                }
            }
            f
        })
        .collect();
    let config = lightdb::ingest::IngestConfig {
        fps: gop_length as u32,
        gop_length,
        grid: TileGrid::new(2, 2),
        ..Default::default()
    };
    lightdb::ingest::store_frames(db, name, &frames, &config).unwrap();
}

/// The placement is a label: a tiled scan decoded under the default
/// (GPU) placement does the decode a CPU-placed session does, and
/// reports it in the same `decode.*` counters.
#[test]
fn tiled_scans_report_the_same_decode_work_on_every_device() {
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);
    let run = |tag: &str, use_gpu: bool| {
        let root = temp_root(tag);
        let db = LightDb::open(&root).unwrap();
        seed_tiled_tlf(&db, "vid", 3, 4);
        let mut session = db.session();
        session.set_options(PlannerOptions { use_gpu, ..PlannerOptions::default() });
        let plan = session.explain(&q).unwrap();
        let device = if use_gpu { "DECODE [GPU]" } else { "DECODE [CPU]" };
        assert!(plan.contains(device), "{plan}");
        let frames = session.execute(&q).unwrap().into_frame_parts().unwrap();
        let m = session.metrics();
        let work = (m.counter(counters::DECODE_BLOCKS), m.counter(counters::DECODE_BLOCKS_UNCODED));
        drop(session);
        drop(db);
        let _ = fs::remove_dir_all(&root);
        (frames, work)
    };
    let (gpu_frames, gpu) = run("tiled-gpu", true);
    let (cpu_frames, cpu) = run("tiled-cpu", false);
    assert_eq!(gpu_frames, cpu_frames);
    assert!(cpu.0 > 0 && cpu.1 > 0, "the CPU-placed decode counted no blocks: {cpu:?}");
    assert_eq!(gpu, cpu, "(decode.blocks, decode.blocks_uncoded) differ by placement");
}

/// A GPU-placed and a CPU-placed session scanning the same bytes share
/// one decode of each GOP: the shared-decode key does not carry the
/// device.
#[test]
fn gpu_and_cpu_placed_scans_share_each_decode() {
    let root = temp_root("sharedplacement");
    let db = LightDb::open(&root).unwrap();
    const GOPS: usize = 3;
    seed_tiled_tlf(&db, "vid", GOPS, 4);
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);
    let gpu = db.session();
    let mut cpu = db.session();
    cpu.set_options(PlannerOptions { use_gpu: false, ..PlannerOptions::default() });
    let a = gpu.execute(&q).unwrap().into_frame_parts().unwrap();
    let b = cpu.execute(&q).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b);
    let sessions = [&gpu, &cpu];
    let decodes: u64 =
        sessions.iter().map(|s| s.metrics().counter(counters::SHARED_SCAN_DECODES)).sum();
    let hits: u64 =
        sessions.iter().map(|s| s.metrics().counter(counters::SHARED_SCAN_HITS)).sum();
    assert_eq!(decodes, GOPS as u64, "each GOP must be decoded once across both placements");
    assert_eq!(hits, GOPS as u64);
    drop((gpu, cpu));
    drop(db);
    let _ = fs::remove_dir_all(&root);
}

/// A session's default budget applies to statements that carry no
/// explicit limits: deadlines classify as DeadlineExceeded, declared
/// working sets pass through admission, and admissions release fully.
#[test]
fn session_budget_applies_and_admissions_release() {
    let root = temp_root("budget");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 2, 2);

    let mut strict = db.session();
    strict.set_budget(SessionBudget {
        deadline: Some(std::time::Duration::ZERO),
        mem_estimate: None,
    });
    match strict.execute(&scan("vid")).unwrap_err() {
        lightdb::Error::Exec(e) => {
            assert!(matches!(e, lightdb_exec::ExecError::DeadlineExceeded), "{e}")
        }
        other => panic!("unexpected error: {other}"),
    }

    db.set_admission_limit(1 << 20);
    let mut greedy = db.session();
    greedy.set_admit_policy(AdmitPolicy::FailFast);
    greedy.set_budget(SessionBudget { deadline: None, mem_estimate: Some(8 << 20) });
    match greedy.execute(&scan("vid")).unwrap_err() {
        lightdb::Error::Exec(e) => {
            assert!(matches!(e, lightdb_exec::ExecError::Overloaded(_)), "{e}")
        }
        other => panic!("unexpected error: {other}"),
    }

    let mut fitting = db.session();
    fitting.set_budget(SessionBudget { deadline: None, mem_estimate: Some(64 << 10) });
    fitting.execute(&scan("vid")).unwrap();
    assert_eq!(fitting.admitted_bytes(), 0, "session admission must release fully");
    assert_eq!(db.pool().admitted(), 0);
    let _ = fs::remove_dir_all(&root);
}

/// The concurrent-session chaos soak: each round arms one seeded fault
/// scenario while several sessions execute simultaneously; every
/// outcome must be well-formed output or a classified error, and
/// nothing may leak.
#[test]
fn concurrent_session_chaos_soak() {
    let root = temp_root("soak");
    let db = LightDb::open(&root).unwrap();
    seed_tlf(&db, "vid", 8, 2);
    let q = scan("vid") >> Map::builtin(BuiltinMap::Grayscale);
    const SESSIONS: usize = 3;
    let rounds = lightdb_core::envknob::read_u64("LIGHTDB_CHAOS_SEEDS").unwrap_or(100).min(60);
    for seed in 0..rounds {
        let sc = Scenario::from_seed(seed);
        let mut sessions: Vec<_> = (0..SESSIONS).map(|_| db.session()).collect();
        for session in &mut sessions {
            session.set_read_policy(sc.read_policy);
        }
        let barrier = Arc::new(Barrier::new(SESSIONS));
        sc.arm();
        std::thread::scope(|s| {
            for session in &sessions {
                let barrier = barrier.clone();
                let q = q.clone();
                let sc = &sc;
                s.spawn(faults::inherit(move || {
                    let mut ctx = QueryCtx::unbounded();
                    if let Some(budget) = sc.deadline {
                        ctx = ctx.with_deadline(budget);
                    }
                    if let Some(bytes) = sc.mem_estimate {
                        ctx = ctx.with_mem_estimate(bytes);
                    }
                    barrier.wait();
                    match session.execute_with_ctx(&q, ctx) {
                        Ok(out) => {
                            let frames = out.into_frame_parts().unwrap();
                            let total: usize = frames.iter().map(Vec::len).sum();
                            assert!(total <= 16, "seed {seed}: more output than input");
                            for part in &frames {
                                for f in part {
                                    assert_eq!(
                                        (f.width(), f.height()),
                                        (64, 32),
                                        "seed {seed}: malformed degraded frame"
                                    );
                                }
                            }
                        }
                        Err(err) => {
                            // Every failure must carry a classification.
                            match &err {
                                lightdb::Error::Exec(e) => {
                                    let _ = e.classify();
                                }
                                lightdb::Error::Storage(e) => {
                                    let _ = e.classify();
                                }
                                other => {
                                    panic!("seed {seed}: unclassifiable error family: {other}")
                                }
                            }
                        }
                    }
                }));
            }
        });
        Scenario::disarm();
        // No-leak invariants after every round, per session and global.
        for session in &sessions {
            assert_eq!(session.admitted_bytes(), 0, "seed {seed}: session admission leaked");
        }
        assert_eq!(db.pool().admitted(), 0, "seed {seed}: global admission leaked");
    }
    // The clean path still works after the whole soak.
    let out = db.session().execute(&q).unwrap();
    assert_eq!(out.frame_count(), 16);
    let _ = fs::remove_dir_all(&root);
}
