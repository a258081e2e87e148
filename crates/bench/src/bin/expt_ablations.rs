//! Ablation study: each optimizer family (homomorphic operators,
//! index pushdown, GPU placement, logical rewrites) toggled off
//! individually, measured on the queries it accelerates.

use lightdb::prelude::*;
use lightdb_apps::workloads::lightdb_q;
use lightdb_bench::{fmt_fps, fps, setup, timed};

fn main() {
    let spec = setup::bench_spec();
    let db = setup::bench_db(&spec);
    let frames = spec.frame_count();

    let configs: Vec<(&str, PlannerOptions)> = vec![
        ("full optimizer", PlannerOptions::default()),
        ("no homomorphic ops", PlannerOptions { use_hops: false, ..Default::default() }),
        ("no index pushdown", PlannerOptions { use_indexes: false, ..Default::default() }),
        ("no GPU placement", PlannerOptions { use_gpu: false, ..Default::default() }),
        ("no logical rewrites", PlannerOptions { logical_rewrites: false, ..Default::default() }),
        ("naive (all off)", PlannerOptions::naive()),
    ];

    println!("Ablations @ {}x{}, {} s (FPS; higher is better)", spec.width, spec.height, spec.seconds);
    lightdb_bench::row(
        "configuration",
        &["tiling 4×4".into(), "select t(1s)".into(), "map blur".into(), "self-union".into()],
    );
    for (label, options) in configs {
        let mut d = db.session();
        d.set_options(options);
        // Predictive tiling (exercises TILEUNION + GPU encode).
        let _ = d.execute(&drop_tlf("abl_tiled"));
        let (t_tiling, r) = timed(|| lightdb_q::tiling(&d, "venice", "abl_tiled", 4, 4));
        r.expect("tiling");
        // GOP-aligned one-second select (exercises GOPSELECT + GOP index).
        let (t_select, r) = timed(|| {
            d.execute(&(scan("venice") >> Select::along(Dimension::T, 1.0, 2.0)))
        });
        r.expect("select");
        // A map (exercises GPU placement).
        let (t_map, r) = timed(|| d.execute(&(scan("venice") >> Map::builtin(BuiltinMap::Blur))));
        r.expect("map");
        // Self-union (exercises the degeneracy rewrite).
        let (t_union, r) = timed(|| {
            d.execute(&union(vec![scan("venice"), scan("venice")], MergeFunction::Last))
        });
        r.expect("union");
        lightdb_bench::row(
            label,
            &[
                fmt_fps(fps(frames, t_tiling)),
                fmt_fps(fps(frames, t_select)),
                fmt_fps(fps(frames, t_map)),
                fmt_fps(fps(frames, t_union)),
            ],
        );
    }
}
