//! Experiment setup: cached datasets, databases, and baseline stores.

use lightdb::prelude::*;
use lightdb_baselines::scidb::SciDb;
use lightdb_codec::{TileGrid, VideoStream};
use lightdb_datasets::{encode_frames, frame, install, install_cats, Dataset, DatasetSpec};
use std::path::PathBuf;

/// Duration of the benchmark datasets in seconds.
pub fn bench_seconds() -> usize {
    lightdb_core::envknob::read_usize("LIGHTDB_BENCH_SECONDS").unwrap_or(6)
}

/// The shared benchmark dataset spec.
pub fn bench_spec() -> DatasetSpec {
    DatasetSpec::mini(bench_seconds())
}

/// The cache directory datasets and databases live in, keyed by the
/// active spec so scale changes regenerate.
pub fn cache_dir(tag: &str, spec: &DatasetSpec) -> PathBuf {
    let base = std::env::var("LIGHTDB_BENCH_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("lightdb-bench-cache"));
    base.join(format!("{tag}-{}x{}-{}s-fps{}", spec.width, spec.height, spec.seconds, spec.fps))
}

/// Opens (or builds) the shared benchmark database with all three
/// 360° datasets, the watermark, and the Cats slab installed.
pub fn bench_db(spec: &DatasetSpec) -> LightDb {
    let db = LightDb::open(cache_dir("db", spec)).expect("open bench db");
    for d in Dataset::ALL {
        install(&db, d, spec).expect("install dataset");
    }
    lightdb_datasets::install_watermark(&db, spec).expect("install watermark");
    let st = (spec.width / 4).clamp(64, 512) & !15;
    install_cats(&db, st, 8, 8, spec.seconds.min(3)).expect("install cats");
    db
}

/// Installs a tiled copy of a dataset (`<name>_tiled`, `cols×rows`
/// motion-constrained tiles) for the TILESELECT experiments.
pub fn install_tiled(db: &LightDb, dataset: Dataset, spec: &DatasetSpec, cols: usize, rows: usize) -> String {
    let name = format!("{}_tiled{cols}x{rows}", dataset.name());
    if db.catalog().exists(&name) {
        return name;
    }
    let stream = encode_frames(
        (0..spec.frame_count()).map(|i| frame(dataset, spec, i)),
        spec,
        TileGrid::new(cols, rows),
    );
    lightdb::ingest::store_stream(
        db,
        &name,
        stream,
        Point3::ORIGIN,
        lightdb::geom::projection::ProjectionKind::Equirectangular,
    )
    .expect("store tiled dataset");
    name
}

/// The encoded stream of a dataset (for baseline pipelines), read
/// back out of the benchmark database so every system starts from
/// byte-identical input.
pub fn dataset_stream(db: &LightDb, dataset: Dataset) -> VideoStream {
    let stored = db.catalog().read(dataset.name(), None).expect("dataset installed");
    stored
        .media()
        .read_stream(&stored.metadata.tracks[0].media_path)
        .expect("readable media")
}

/// Opens (or builds) the SciDB array store with every dataset
/// imported (import cost is setup, not measured — the paper's arrays
/// were pre-loaded too).
pub fn bench_scidb(db: &LightDb, spec: &DatasetSpec) -> SciDb {
    let store = SciDb::open(cache_dir("scidb", spec)).expect("open scidb");
    for d in Dataset::ALL {
        if store.meta(d.name()).is_err() {
            let stream = dataset_stream(db, d);
            store.import_video(d.name(), &stream).expect("scidb import");
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_dirs_are_spec_keyed() {
        let a = cache_dir("db", &DatasetSpec { width: 64, height: 32, fps: 4, seconds: 1, qp: 30 });
        let b = cache_dir("db", &DatasetSpec { width: 128, height: 64, fps: 4, seconds: 1, qp: 30 });
        assert_ne!(a, b);
    }

    #[test]
    fn bench_db_installs_everything() {
        let spec = DatasetSpec { width: 64, height: 32, fps: 2, seconds: 1, qp: 30 };
        let dir = cache_dir("db", &spec);
        let _ = std::fs::remove_dir_all(&dir);
        let db = bench_db(&spec);
        for name in ["timelapse", "venice", "coaster", "watermark", "cats"] {
            assert!(db.catalog().exists(name), "{name} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
