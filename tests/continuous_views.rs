//! Integration tests for partially materialised continuous TLFs
//! (Section 4.1): a `STORE` whose input ends in `INTERPOLATE`
//! materialises only the discrete prefix and records the remaining
//! operator subgraph; a later `SCAN` transparently re-applies it.

use lightdb::exec::fpga::DepthMapFpga;
use lightdb::prelude::*;
use lightdb_datasets::{install, Dataset, DatasetSpec};
use std::sync::Arc;

fn tiny() -> DatasetSpec {
    DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 22 }
}

/// A seeded database and a session with partially materialised views
/// on.
fn temp_db(tag: &str) -> (LightDb, Session) {
    let root = std::env::temp_dir().join(format!("lightdb-cv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(root).unwrap();
    let mut session = db.session();
    session.set_options(PlannerOptions { defer_continuous: true, ..session.options() });
    install(&db, Dataset::Venice, &tiny()).unwrap();
    (db, session)
}

fn cleanup(db: &LightDb) {
    let _ = std::fs::remove_dir_all(db.catalog().root());
}

#[test]
fn builtin_interpolate_store_records_view_subgraph() {
    let (db, session) = temp_db("builtin");
    let q = scan("venice")
        >> Interpolate::builtin(BuiltinInterp::NearestNeighbor)
        >> Store::named("cont");
    session.execute(&q).unwrap();
    let stored = db.catalog().read("cont", None).unwrap();
    assert!(
        stored.metadata.tlf.view_subgraph.is_some(),
        "a continuous store must carry its view subgraph"
    );
    // Scanning the continuous TLF re-applies the interpolation and
    // still yields the full content.
    let out = session.execute(&scan("cont")).unwrap();
    assert_eq!(out.frame_count(), 8);
    cleanup(&db);
}

#[test]
fn discrete_store_has_no_view_subgraph() {
    let (db, session) = temp_db("discrete");
    session.execute(&(scan("venice") >> Map::builtin(BuiltinMap::Blur) >> Store::named("d")))
        .unwrap();
    let stored = db.catalog().read("d", None).unwrap();
    assert!(stored.metadata.tlf.view_subgraph.is_none());
    cleanup(&db);
}

#[test]
fn operators_above_interpolate_are_deferred_not_materialized() {
    let (db, session) = temp_db("defer");
    // Interpolate, then grayscale: both belong to the view subgraph;
    // the materialised prefix is the raw scan.
    let q = scan("venice")
        >> Interpolate::builtin(BuiltinInterp::Linear)
        >> Map::builtin(BuiltinMap::Grayscale)
        >> Store::named("cont2");
    session.execute(&q).unwrap();
    // The stored media is NOT grayscale (the map is deferred)…
    let stored = db.catalog().read("cont2", None).unwrap();
    assert!(stored.metadata.tlf.view_subgraph.is_some());
    let raw = stored
        .media()
        .read_stream(&stored.metadata.tracks[0].media_path)
        .unwrap();
    let raw_frames = lightdb::codec::Decoder::new().decode(&raw).unwrap();
    let c = raw_frames[0].get(30, 50);
    assert!(
        (c.u as i32 - 128).abs() > 8 || (c.v as i32 - 128).abs() > 8,
        "materialised prefix should retain colour"
    );
    // …but scanning applies it, so query results are grayscale.
    let parts = session.execute(&scan("cont2")).unwrap().into_frame_parts().unwrap();
    let c = parts[0][0].get(30, 50);
    assert!(
        (c.u as i32 - 128).abs() <= 8 && (c.v as i32 - 128).abs() <= 8,
        "scan must re-apply the deferred grayscale, got {c:?}"
    );
    cleanup(&db);
}

#[test]
fn custom_udf_views_resolve_through_the_registry() {
    let (db, mut session) = temp_db("customudf");
    session.register_interp_udf(Arc::new(DepthMapFpga));
    // A stereo-ish union + custom depth interpolation, stored
    // continuously.
    let spec = tiny();
    let stereo =
        lightdb_apps::depth::install_stereo(&db, Dataset::Venice, &spec).unwrap();
    let q = union(
        vec![
            scan(&stereo) >> Select::at(Dimension::X, 0.032),
            scan(&stereo) >> Select::at(Dimension::X, -0.032),
        ],
        MergeFunction::Last,
    ) >> Interpolate::udf(Arc::new(DepthMapFpga))
        >> Store::named("depth_view");
    session.execute(&q).unwrap();
    let stored = db.catalog().read("depth_view", None).unwrap();
    assert!(stored.metadata.tlf.view_subgraph.is_some());
    // The materialised prefix holds the two eye streams…
    assert_eq!(stored.metadata.tracks.len(), 2, "both union parts materialise");
    // …and scanning synthesises the depth map through the registry.
    let parts = session.execute(&scan("depth_view")).unwrap().into_frame_parts().unwrap();
    assert_eq!(parts.len(), 1, "interpolation collapses the stereo pair");
    assert_eq!(parts[0].len(), 8);
    cleanup(&db);
}

#[test]
fn unregistered_custom_udf_is_a_clean_error() {
    let db = {
        let (db, mut session) = temp_db("unregistered");
        session.register_interp_udf(Arc::new(DepthMapFpga));
        let spec = tiny();
        let stereo =
            lightdb_apps::depth::install_stereo(&db, Dataset::Venice, &spec).unwrap();
        let q = union(
            vec![
                scan(&stereo) >> Select::at(Dimension::X, 0.032),
                scan(&stereo) >> Select::at(Dimension::X, -0.032),
            ],
            MergeFunction::Last,
        ) >> Interpolate::udf(Arc::new(DepthMapFpga))
            >> Store::named("depth_view");
        session.execute(&q).unwrap();
        db
    };
    // A fresh session has no UDF registered: scanning must error, not
    // panic or silently skip the view. (Deferral setting is
    // irrelevant for reads: the stored subgraph always applies.)
    let fresh = db.session();
    let r = fresh.execute(&scan("depth_view"));
    assert!(r.is_err(), "scan of a view with an unregistered UDF must fail cleanly");
    cleanup(&db);
}
