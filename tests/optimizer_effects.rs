//! Integration tests verifying that the optimizer's substitutions
//! change *plans and costs* without changing *answers*.

use lightdb::prelude::*;
use lightdb_datasets::{install, Dataset, DatasetSpec};

fn tiny() -> DatasetSpec {
    DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 24 }
}

/// A seeded database and a session on it planning with `options`.
fn temp_db(tag: &str, options: PlannerOptions) -> (LightDb, Session) {
    let root = std::env::temp_dir().join(format!("lightdb-opt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(root).unwrap();
    install(&db, Dataset::Venice, &tiny()).unwrap();
    let mut session = db.session();
    session.set_options(options);
    (db, session)
}

fn cleanup(db: &LightDb) {
    let _ = std::fs::remove_dir_all(db.catalog().root());
}

/// Runs the same query under two option sets and asserts identical
/// decoded output.
fn same_answer(q: &VrqlExpr, tag: &str) {
    let (optimized_db, optimized) = temp_db(&format!("{tag}-opt"), PlannerOptions::default());
    let (naive_db, naive) = temp_db(&format!("{tag}-naive"), PlannerOptions::naive());
    let a = optimized.execute(q).unwrap().into_frame_parts().unwrap();
    let b = naive.execute(q).unwrap().into_frame_parts().unwrap();
    assert_eq!(a.len(), b.len(), "part count differs");
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa.len(), pb.len(), "frame count differs");
        for (fa, fb) in pa.iter().zip(pb.iter()) {
            // Optimized plans may skip a decode/encode generation, so
            // compare with a quality bound rather than bit equality.
            let psnr = lightdb::frame::stats::luma_psnr(fa, fb);
            assert!(psnr > 30.0, "optimized and naive outputs diverge: {psnr} dB");
        }
    }
    cleanup(&optimized_db);
    cleanup(&naive_db);
}

#[test]
fn gop_aligned_select_same_answer_with_and_without_hops() {
    same_answer(&(scan("venice") >> Select::along(Dimension::T, 1.0, 2.0)), "gopsel");
}

#[test]
fn map_fusion_same_answer() {
    same_answer(
        &(scan("venice")
            >> Map::builtin(BuiltinMap::Blur)
            >> Map::builtin(BuiltinMap::Grayscale)),
        "fusion",
    );
}

#[test]
fn self_union_same_answer() {
    same_answer(
        &union(vec![scan("venice"), scan("venice")], MergeFunction::Last),
        "selfunion",
    );
}

#[test]
fn hops_actually_skip_decode() {
    let (db, session) = temp_db("skipdecode", PlannerOptions::default());
    let q = scan("venice") >> Select::along(Dimension::T, 0.0, 1.0);
    session.execute(&q).unwrap();
    assert_eq!(session.metrics().count("DECODE"), 0, "GOPSELECT plan must not decode");
    assert!(session.metrics().count("GOPSELECT") > 0);
    cleanup(&db);
}

#[test]
fn naive_plans_do_decode() {
    let (db, session) = temp_db("dodecode", PlannerOptions::naive());
    let q = scan("venice") >> Select::along(Dimension::T, 0.0, 1.0);
    session.execute(&q).unwrap();
    assert!(session.metrics().count("DECODE") > 0, "naive plan must decode");
    assert_eq!(session.metrics().count("GOPSELECT"), 0);
    cleanup(&db);
}

#[test]
fn gpu_and_cpu_map_plans_agree_bit_exactly() {
    let (gpu_db, gpu) = temp_db("gpu", PlannerOptions::default());
    let (cpu_db, cpu) = temp_db(
        "cpu",
        PlannerOptions { use_gpu: false, ..PlannerOptions::default() },
    );
    let q = scan("venice") >> Map::builtin(BuiltinMap::Sharpen);
    let a = gpu.execute(&q).unwrap().into_frame_parts().unwrap();
    let b = cpu.execute(&q).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b, "device placement must not change MAP results");
    cleanup(&gpu_db);
    cleanup(&cpu_db);
}

#[test]
fn explain_reflects_option_changes() {
    let (db, session) = temp_db("explain", PlannerOptions::default());
    let q = scan("venice") >> Select::along(Dimension::T, 0.0, 1.0);
    assert!(session.explain(&q).unwrap().contains("GOPSELECT"));
    let mut naive = db.session();
    naive.set_options(PlannerOptions::naive());
    let plan = naive.explain(&q).unwrap();
    assert!(!plan.contains("GOPSELECT"), "{plan}");
    assert!(plan.contains("DECODE"), "{plan}");
    let mut opts = naive.options();
    opts.use_hops = true;
    opts.use_indexes = true;
    naive.set_options(opts);
    assert!(naive.explain(&q).unwrap().contains("GOPSELECT"));
    cleanup(&db);
}

#[test]
fn covering_tile_pushdown_decodes_fewer_tiles() {
    // A misaligned angular selection over a tiled TLF should decode
    // only the covering tiles when indexes are on.
    let root = std::env::temp_dir().join(format!("lightdb-opt-cover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(&root).unwrap();
    // Store a 2×1-tiled stream.
    let spec = tiny();
    let frames: Vec<Frame> =
        (0..8).map(|i| lightdb_datasets::frame(lightdb_datasets::Dataset::Venice, &spec, i)).collect();
    lightdb::ingest::store_frames(
        &db,
        "tiled",
        &frames,
        &lightdb::ingest::IngestConfig {
            fps: 4,
            gop_length: 4,
            grid: lightdb::codec::TileGrid::new(2, 1),
            ..Default::default()
        },
    )
    .unwrap();
    // θ ∈ [0, 2] is inside the left tile (θ < π) but not tile-aligned.
    let q = scan("tiled") >> Select::along(Dimension::Theta, 0.0, 2.0);
    let plan = db.explain(&q).unwrap();
    assert!(plan.contains("TILESELECT([0])"), "covering-tile pushdown expected: {plan}");
    let parts = db.execute(&q).unwrap().into_frame_parts().unwrap();
    // 2 rad of 2π over 128 px ≈ 40 px wide, 2-aligned.
    assert!(parts[0][0].width() < 64, "residual crop expected");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn redundant_select_double_filter_same_result() {
    let (db, session) = temp_db("redsel", PlannerOptions::default());
    let narrow = scan("venice") >> Select::along(Dimension::T, 0.0, 1.0);
    let nested = scan("venice")
        >> Select::along(Dimension::T, 0.0, 2.0)
        >> Select::along(Dimension::T, 0.0, 1.0);
    let a = session.execute(&narrow).unwrap().into_frame_parts().unwrap();
    let b = session.execute(&nested).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b, "redundant-select elimination changed the answer");
    cleanup(&db);
}
