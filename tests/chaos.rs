//! The randomized chaos soak: many seeded schedules of faults,
//! deadlines, cancels, admission pressure, and corrupt sources, each
//! asserting the tri-state resilience contract (byte-identical /
//! classified error / well-formed degraded) plus the no-leak
//! invariants after every run. Seeds are deterministic, so a failure
//! reproduces from its printed seed alone.
//!
//! Runs honour `LIGHTDB_THREADS` (CI soaks both 1 and 8) and
//! `LIGHTDB_CHAOS_SEEDS` (default 100).

use lightdb::prelude::*;
use lightdb_core::ErrorClass;
use lightdb_exec::metrics::counters;
use lightdb_testsuite::chaos::Scenario;
use std::fs;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lightdb-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn seeds() -> u64 {
    lightdb_core::envknob::read_u64("LIGHTDB_CHAOS_SEEDS").unwrap_or(100)
}

fn demo_frames() -> Vec<Frame> {
    (0..16).map(|i| Frame::filled(32, 32, Yuv::new((i * 15) as u8, 100, 160))).collect()
}

fn store_fixture(db: &LightDb, name: &str) {
    lightdb::ingest::store_frames(
        db,
        name,
        &demo_frames(),
        &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
    )
    .unwrap();
}

/// Flips one byte in the middle of `name`'s third GOP on disk.
fn corrupt_one_gop(db: &LightDb, name: &str) {
    let stored = db.catalog().read(name, None).unwrap();
    let track = &stored.metadata.tracks[0];
    let entry = &track.gop_index[2];
    let media = db.catalog().root().join(name).join(&track.media_path);
    let mut bytes = fs::read(&media).unwrap();
    bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x01;
    fs::write(&media, &bytes).unwrap();
}

#[test]
fn seeded_soak_holds_tri_state_contract_and_leaks_nothing() {
    let root = temp_root("soak");
    let db = LightDb::open(&root).unwrap();
    store_fixture(&db, "vid");
    store_fixture(&db, "vid_damaged");
    corrupt_one_gop(&db, "vid_damaged");
    let mut session = db.session();
    // Decode-forcing query: a bare `SCAN` stays encoded end-to-end and
    // would never reach the decode/map failpoints.
    let query = |damaged: bool| {
        scan(if damaged { "vid_damaged" } else { "vid" }) >> Map::builtin(BuiltinMap::Grayscale)
    };
    // Fault-free baseline for the clean source.
    let baseline = session.execute(&query(false)).unwrap().into_frame_parts().unwrap();
    assert_eq!(baseline.iter().map(Vec::len).sum::<usize>(), 16);

    let mut completed = 0u64;
    let mut degraded_runs = 0u64;
    let mut failed = 0u64;
    for seed in 0..seeds() {
        let sc = Scenario::from_seed(seed);
        session.set_read_policy(sc.read_policy);
        let skipped0 = session.metrics().counter(counters::SKIPPED_GOPS);
        let degraded0 = session.metrics().counter(counters::DEGRADED_GOPS);
        let mut ctx = QueryCtx::unbounded();
        if let Some(budget) = sc.deadline {
            ctx = ctx.with_deadline(budget);
        }
        if let Some(bytes) = sc.mem_estimate {
            ctx = ctx.with_mem_estimate(bytes);
        }
        let token = ctx.cancel_token();
        let canceller = sc.cancel_after.map(|after| {
            std::thread::spawn(move || {
                std::thread::sleep(after);
                token.cancel();
            })
        });
        sc.arm();
        let result = session.execute_with_ctx(&query(sc.corrupt_source), ctx);
        Scenario::disarm();
        if let Some(handle) = canceller {
            handle.join().unwrap();
        }
        let skipped = session.metrics().counter(counters::SKIPPED_GOPS) - skipped0;
        let degraded = session.metrics().counter(counters::DEGRADED_GOPS) - degraded0;
        match result {
            Ok(out) => {
                completed += 1;
                let frames = out.into_frame_parts().unwrap();
                if skipped == 0 && degraded == 0 {
                    assert!(
                        !sc.corrupt_source,
                        "seed {seed}: a damaged GOP completed without skip/degrade"
                    );
                    assert_eq!(
                        frames, baseline,
                        "seed {seed}: clean completion must be byte-identical"
                    );
                } else {
                    degraded_runs += 1;
                    // Well-formed degraded output: every frame has the
                    // fixture geometry, and skips shrink the output by
                    // exactly whole GOPs.
                    for part in &frames {
                        for f in part {
                            assert_eq!((f.width(), f.height()), (32, 32), "seed {seed}");
                        }
                    }
                    let total: usize = frames.iter().map(Vec::len).sum();
                    assert_eq!(
                        total,
                        16 - 2 * skipped as usize,
                        "seed {seed}: degraded output shape"
                    );
                }
            }
            Err(err) => {
                failed += 1;
                // Every failure must carry a classification.
                let class = match &err {
                    lightdb::Error::Exec(e) => e.classify(),
                    lightdb::Error::Storage(e) => e.classify(),
                    other => panic!("seed {seed}: unclassifiable error family: {other}"),
                };
                // A cancel-only schedule must be classified as such.
                if sc.fault.is_none()
                    && sc.deadline.is_none()
                    && sc.cancel_after.is_some()
                    && !sc.corrupt_source
                {
                    assert_eq!(class, ErrorClass::Cancelled, "seed {seed}: {err}");
                }
            }
        }
        // The no-leak invariants, after EVERY run, whatever happened:
        assert_eq!(db.pool().admitted(), 0, "seed {seed}: leaked admission bytes");
        assert_eq!(session.metrics().open_spans(), 0, "seed {seed}: leaked metrics span");
        assert!(
            db.pool().stats().bytes <= lightdb::DEFAULT_POOL_BYTES,
            "seed {seed}: pool over capacity"
        );
    }
    // The seed mix must actually exercise all three contract arms.
    assert!(completed > 0, "no chaos run completed");
    assert!(failed > 0, "no chaos run failed — schedules too gentle");
    assert!(degraded_runs > 0, "no chaos run degraded — Degrade policy never engaged");
    let _ = fs::remove_dir_all(&root);
}
