//! The workloads as declarative VRQL queries.
//!
//! These are the nine-line queries of Table 2: the developer states
//! *what* — partition, per-partition quality, recombination happen
//! wherever the optimizer decides (here: homomorphically, on the
//! simulated GPU).

use crate::predictor::is_important;
use crate::workloads::{HI_QP, LO_QP};
use crate::{detect::DetectUdf, Result, RunStats};
use lightdb::prelude::*;
use lightdb::storage::Catalog;
use std::sync::Arc;

fn qp_quality(qp: u8) -> Quality {
    // Map the workload QPs onto the named qualities LightDB exposes.
    if qp <= 20 {
        Quality::Medium
    } else {
        Quality::Low
    }
}

/// Predictive 360° tiling: partition into a `cols × rows` grid per
/// second, encode the predicted-viewport tile at high quality and the
/// rest at low, recombine, store — under `session`'s settings.
pub fn tiling(session: &Session, input: &str, output: &str, cols: usize, rows: usize) -> Result<RunStats> {
    let bytes_in = stored_bytes(session.catalog(), input)?;
    // LOC:BEGIN lightdb-tiling
    let query = scan(input)
        >> Partition::along(Dimension::T, 1.0)
            .and(Dimension::Theta, 2.0 * std::f64::consts::PI / cols as f64)
            .and(Dimension::Phi, std::f64::consts::PI / rows as f64)
        >> Subquery::new("adaptive-quality", move |partition, tile| {
            let quality =
                if is_important(partition, cols, rows) { qp_quality(HI_QP) } else { qp_quality(LO_QP) };
            tile >> Encode::quality(CodecKind::HevcSim, quality)
        })
        >> Store::named(output);
    session.execute(&query)?;
    // LOC:END lightdb-tiling
    let frames = stored_frames(session.catalog(), output)?;
    Ok(RunStats { frames, bytes_in, bytes_out: stored_bytes(session.catalog(), output)? })
}

/// Augmented reality: discretise to the detector's input resolution,
/// detect, union the red boxes back onto the source — under `session`'s
/// settings.
pub fn ar(session: &Session, input: &str, output: &str, detect_size: usize) -> Result<RunStats> {
    let bytes_in = stored_bytes(session.catalog(), input)?;
    // LOC:BEGIN lightdb-ar
    let source = scan(input);
    let lowres = source.clone() >> Discretize::angular(detect_size, detect_size);
    let boxes = lowres >> Map::udf(Arc::new(DetectUdf));
    let query = union(vec![source, boxes], MergeFunction::Last) >> Store::named(output);
    session.execute(&query)?;
    // LOC:END lightdb-ar
    let frames = stored_frames(session.catalog(), output)?;
    Ok(RunStats { frames, bytes_in, bytes_out: stored_bytes(session.catalog(), output)? })
}

/// Total encoded media bytes of a stored TLF's latest version.
pub fn stored_bytes(catalog: &Catalog, name: &str) -> Result<usize> {
    let stored = catalog.read(name, None).map_err(lightdb::Error::from)?;
    let media = stored.media();
    let mut total = 0usize;
    for t in &stored.metadata.tracks {
        total += media.file_size(&t.media_path).map_err(lightdb::Error::from)? as usize;
    }
    Ok(total)
}

/// Frame count of a stored TLF's latest version (first track).
pub fn stored_frames(catalog: &Catalog, name: &str) -> Result<usize> {
    let stored = catalog.read(name, None).map_err(lightdb::Error::from)?;
    Ok(stored.metadata.tracks.first().map(|t| t.frame_count() as usize).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_datasets::{install, Dataset, DatasetSpec};

    fn db(tag: &str) -> LightDb {
        let root = std::env::temp_dir().join(format!("lightdb-appsq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        LightDb::open(root).unwrap()
    }

    fn tiny_spec() -> DatasetSpec {
        // 128×64 divides into a 4×4 grid of 32×16… 16 is MB-misaligned;
        // use 2×2 grids in tests (64×32 tiles).
        DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 22 }
    }

    #[test]
    fn tiling_reduces_size_and_roundtrips() {
        let db = db("tiling");
        install(&db, Dataset::Venice, &tiny_spec()).unwrap();
        let session = db.session();
        let stats = tiling(&session, "venice", "venice_tiled", 2, 2).unwrap();
        assert_eq!(stats.frames, 8);
        assert!(
            stats.reduction() > 0.2,
            "adaptive tiling should shrink the video, got {:.2}",
            stats.reduction()
        );
        // The tiled output decodes at full dimensions.
        let out = db.execute(&scan("venice_tiled")).unwrap();
        assert_eq!(out.frame_count(), 8);
        // The homomorphic stitch ran.
        assert!(session.metrics().count("TILEUNION") >= 2);
        std::fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn ar_produces_full_length_output() {
        let db = db("ar");
        install(&db, Dataset::Venice, &tiny_spec()).unwrap();
        let session = db.session();
        let stats = ar(&session, "venice", "venice_ar", 64).unwrap();
        assert_eq!(stats.frames, 8);
        assert!(session.metrics().count("MAP") >= 1);
        std::fs::remove_dir_all(db.catalog().root()).unwrap();
    }
}
