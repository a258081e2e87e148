//! Figure 16: index performance — GOP index, tile index, and the
//! spatial R-tree, each with the index enabled vs disabled.

use crate::setup;
use crate::timed;
use lightdb::prelude::*;
use lightdb_datasets::{Dataset, DatasetSpec};
use std::f64::consts::PI;

/// How many sphere points the spatial-index TLF simulates (the paper
/// used five million simulated pointers; `LIGHTDB_FULL_SCALE=1`
/// raises ours).
pub fn spatial_points() -> usize {
    if std::env::var("LIGHTDB_FULL_SCALE").as_deref() == Ok("1") {
        5_000_000
    } else {
        20_000
    }
}

/// A session on `db` with the index and homomorphic-operator rewrites
/// on or off.
fn with_indexes(db: &LightDb, on: bool) -> Session {
    let mut session = db.session();
    session.set_options(PlannerOptions {
        use_indexes: on,
        use_hops: on,
        ..session.options()
    });
    session
}

/// Like [`with_indexes`] but CPU-only, isolating the index effect
/// from the GPU's parallel tile decode.
fn with_indexes_cpu(db: &LightDb, on: bool) -> Session {
    let mut session = with_indexes(db, on);
    session.set_options(PlannerOptions {
        use_gpu: false,
        ..session.options()
    });
    session
}

/// GOP-index experiment: last-second vs whole-extent temporal select.
pub fn gop_index(db: &LightDb) -> Vec<(String, f64, f64)> {
    let seconds = db
        .catalog()
        .read("timelapse", None)
        .expect("timelapse")
        .metadata
        .tlf
        .volume
        .t()
        .hi();
    // Ranges are deliberately misaligned with GOP boundaries so the
    // decode path runs in both configurations; only the GOP-index
    // pushdown (which GOPs are read and decoded) differs.
    let run = |indexed: bool, lo: f64, hi: f64| {
        let d = with_indexes(db, indexed);
        let q = scan("timelapse") >> Select::along(Dimension::T, lo, hi);
        let (secs, r) = timed(|| d.execute(&q));
        r.expect("select");
        secs
    };
    vec![
        (
            format!("t=[{:.1}, {seconds}]", seconds - 0.9),
            run(true, seconds - 0.9, seconds),
            run(false, seconds - 0.9, seconds),
        ),
        (
            format!("t=[0.1, {seconds}]"),
            run(true, 0.1, seconds),
            run(false, 0.1, seconds),
        ),
    ]
}

/// Tile-index experiment on a tiled copy of Timelapse: half-sphere vs
/// full-sphere angular select.
pub fn tile_index(db: &LightDb, spec: &DatasetSpec) -> Vec<(String, f64, f64)> {
    let tiled = setup::install_tiled(db, Dataset::Timelapse, spec, 2, 2);
    // A MAP stage forces decoding, so the configurations differ only
    // in *which tiles* the tile index lets them decode.
    let run = |indexed: bool, hi: f64| {
        let d = with_indexes_cpu(db, indexed);
        let q = scan(&tiled)
            >> Select::along(Dimension::Theta, 0.0, hi)
            >> Map::builtin(BuiltinMap::Grayscale);
        let (secs, r) = timed(|| d.execute(&q));
        r.expect("select");
        secs
    };
    vec![
        ("θ=[0, π-0.2]".to_string(), run(true, PI - 0.2), run(false, PI - 0.2)),
        ("θ=[0, 2π]".to_string(), run(true, 2.0 * PI), run(false, 2.0 * PI)),
    ]
}

/// Spatial-index experiment: a TLF simulating many 360° videos at
/// random points (sharing one media file, as the paper's simulated
/// five-million-pointer TLF did), selected at a point vs everywhere.
pub fn spatial_index(db: &LightDb) -> Vec<(String, f64, f64)> {
    let name = "tourist_site";
    build_many_point_tlf(db, name, spatial_points());
    // Build the R-tree.
    db.execute(&create_index(name, vec![Dimension::X, Dimension::Y, Dimension::Z]))
        .expect("create index");
    let run_point = |indexed: bool| {
        let d = with_indexes(db, indexed);
        let q = scan(name) >> Select::at_point(0.0, 0.0, 0.0);
        // Warm the R-tree cache (loading the index file is a one-time
        // cost shared across queries, as in any warm DBMS).
        d.execute(&q).expect("warmup");
        let (secs, r) = timed(|| d.execute(&q));
        r.expect("point select");
        secs
    };
    let run_all = |indexed: bool| {
        let d = with_indexes(db, indexed);
        // Full-extent spatial select: the index cannot prune.
        let q = scan(name) >> Select::along(Dimension::X, -1e12, 1e12);
        let (secs, r) = timed(|| d.execute(&q));
        r.expect("full select");
        secs
    };
    vec![
        ("point (0,0,0)".to_string(), run_point(true), run_point(false)),
        ("[-∞, +∞]".to_string(), run_all(true), run_all(false)),
    ]
}

/// Creates a TLF whose descriptor holds `n` sphere points at seeded
/// pseudo-random positions in the unit cube (plus one at the origin),
/// all sharing a single small media track.
pub fn build_many_point_tlf(db: &LightDb, name: &str, n: usize) {
    if db.catalog().exists(name) {
        return;
    }
    use lightdb::container::{SpherePoint, TlfBody, TlfDescriptor, TrackRole};
    use lightdb::storage::catalog::TrackWrite;
    let spec = DatasetSpec { width: 64, height: 32, fps: 2, seconds: 1, qp: 40 };
    let stream = lightdb_datasets::encode_dataset(Dataset::Timelapse, &spec);
    // Version 1: one track.
    db.catalog()
        .store(
            name,
            vec![TrackWrite::New {
                role: TrackRole::Video,
                projection: lightdb::geom::projection::ProjectionKind::Equirectangular,
                stream,
            }],
            TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 1.0), 0),
        )
        .expect("store base");
    // Version 2: n points sharing track 0 (no media duplication —
    // the no-overwrite design at work).
    let stored = db.catalog().read(name, Some(1)).expect("v1");
    let track = stored.metadata.tracks[0].clone();
    let mut hash = 0x9e3779b97f4a7c15u64;
    let mut points = Vec::with_capacity(n);
    points.push(SpherePoint {
        position: Point3::ORIGIN,
        video_track: 0,
        depth_track: None,
        right_eye_track: None,
    });
    for _ in 1..n {
        hash = hash.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let fx = ((hash >> 11) & 0xfffff) as f64 / (1 << 20) as f64;
        let fy = ((hash >> 31) & 0xfffff) as f64 / (1 << 20) as f64;
        let fz = ((hash >> 43) & 0xfffff) as f64 / (1 << 20) as f64;
        points.push(SpherePoint {
            // Offset away from the origin so the point query matches
            // exactly one sphere.
            position: Point3::new(0.05 + fx, 0.05 + fy, 0.05 + fz),
            video_track: 0,
            depth_track: None,
            right_eye_track: None,
        });
    }
    let tlf = TlfDescriptor {
        volume: lightdb::geom::Volume::everywhere(),
        streaming: false,
        partition_spec: vec![],
        view_subgraph: None,
        body: TlfBody::Sphere360 { points },
    };
    db.catalog().store(name, vec![TrackWrite::Existing(track)], tlf).expect("store points");
}

/// Prints the Figure 16 tables.
pub fn print(db: &LightDb, spec: &DatasetSpec) {
    println!("\nFigure 16: index performance, seconds (with index vs without)");
    println!("\n(a) GOP index");
    crate::row("selection", &["indexed".into(), "no index".into()]);
    for (label, with, without) in gop_index(db) {
        crate::row(&label, &[format!("{with:.3}s"), format!("{without:.3}s")]);
    }
    println!("\n(b) tile index");
    crate::row("selection", &["indexed".into(), "no index".into()]);
    for (label, with, without) in tile_index(db, spec) {
        crate::row(&label, &[format!("{with:.3}s"), format!("{without:.3}s")]);
    }
    println!("\n(c) spatial R-tree ({} simulated videos)", spatial_points());
    crate::row("selection", &["indexed".into(), "no index".into()]);
    for (label, with, without) in spatial_index(db) {
        crate::row(&label, &[format!("{with:.3}s"), format!("{without:.3}s")]);
    }
}
