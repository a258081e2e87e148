//! The depth-map generation workload (Section 3.5 / Figure 12).
//!
//! Samples a light field (or a stereoscopic 360° TLF) at the two
//! points a viewer's eyes occupy (`p ± i/2`), and synthesises a depth
//! map with the `DepthMapInterpolation` UDF. Three physical variants
//! reproduce Figure 12: all-CPU, all-CPU-with-FPGA-UDF, and hybrid
//! (GPU decode + FPGA UDF).

use crate::{Result, RunStats};
use lightdb::exec::fpga::{DepthMapCpu, DepthMapFpga};
use lightdb::ingest::IngestConfig;
use lightdb::prelude::*;
use lightdb_datasets::DatasetSpec;
use std::sync::Arc;

/// Interpupillary distance used by the experiments (metres).
pub const IPD: f64 = 0.064;

/// Which physical configuration to run (the Figure 12 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthVariant {
    /// CPU decode + float NCC UDF.
    Cpu,
    /// CPU decode + fixed-point FPGA UDF.
    Fpga,
    /// GPU decode/transfer + FPGA UDF.
    Hybrid,
}

impl DepthVariant {
    pub const ALL: [DepthVariant; 3] = [DepthVariant::Cpu, DepthVariant::Fpga, DepthVariant::Hybrid];

    pub fn name(self) -> &'static str {
        match self {
            DepthVariant::Cpu => "CPU",
            DepthVariant::Fpga => "FPGA",
            DepthVariant::Hybrid => "Hybrid",
        }
    }
}

/// Installs a stereoscopic variant of a 360° dataset: two spheres at
/// `±IPD/2` whose content differs by a small horizontal parallax.
pub fn install_stereo(
    db: &LightDb,
    dataset: lightdb_datasets::Dataset,
    spec: &DatasetSpec,
) -> Result<String> {
    let name = format!("{}_stereo", dataset.name());
    if db.catalog().exists(&name) {
        return Ok(name);
    }
    // Left eye: the dataset itself. Right eye: the scene rotated by a
    // couple of pixels (a crude but deterministic parallax).
    let parallax_px = (spec.width / 128).max(2);
    let left: Vec<Frame> =
        (0..spec.frame_count()).map(|i| lightdb_datasets::frame(dataset, spec, i)).collect();
    let right: Vec<Frame> = left
        .iter()
        .map(|f| {
            let mut r = f.clone();
            for y in 0..f.height() {
                for x in 0..f.width() {
                    r.set(x, y, f.get((x + parallax_px) % f.width(), y));
                }
            }
            r
        })
        .collect();
    let cfg = IngestConfig {
        fps: spec.fps,
        gop_length: spec.fps as usize,
        qp: spec.qp,
        ..Default::default()
    };
    // Store as a two-point TLF: one track per eye.
    use lightdb::container::{SpherePoint, TlfBody, TlfDescriptor, TrackRole};
    use lightdb::storage::catalog::TrackWrite;
    let enc = |frames: &[Frame]| {
        lightdb::codec::Encoder::new(lightdb::codec::EncoderConfig {
            codec: cfg.codec,
            qp: cfg.qp,
            grid: cfg.grid,
            gop_length: cfg.gop_length,
            fps: cfg.fps,
        })
        .and_then(|e| e.encode(frames))
        .map_err(lightdb::Error::from)
    };
    let mk_point = |x: f64, track: u32| SpherePoint {
        position: Point3::new(x, 0.0, 0.0),
        video_track: track,
        depth_track: None,
        right_eye_track: None,
    };
    let volume = Volume::new(
        Interval::new(-IPD / 2.0, IPD / 2.0),
        Interval::point(0.0),
        Interval::point(0.0),
        Interval::new(0.0, spec.seconds as f64),
        Interval::new(0.0, lightdb::geom::THETA_PERIOD),
        Interval::new(0.0, lightdb::geom::PHI_MAX),
    );
    let tlf = TlfDescriptor {
        volume,
        streaming: false,
        partition_spec: vec![],
        view_subgraph: None,
        body: TlfBody::Sphere360 {
            points: vec![mk_point(-IPD / 2.0, 0), mk_point(IPD / 2.0, 1)],
        },
    };
    db.catalog()
        .store(
            &name,
            vec![
                TrackWrite::New {
                    role: TrackRole::Video,
                    projection: lightdb::geom::projection::ProjectionKind::Equirectangular,
                    stream: enc(&left)?,
                },
                TrackWrite::New {
                    role: TrackRole::Video,
                    projection: lightdb::geom::projection::ProjectionKind::Equirectangular,
                    stream: enc(&right)?,
                },
            ],
            tlf,
        )
        .map_err(lightdb::Error::from)?;
    Ok(name)
}

/// Runs the depth-map query over a stereo TLF with the chosen
/// physical variant on `session`, storing the result. The variant
/// selects the session's GPU/FPGA placement options.
pub fn depth_map(
    session: &mut Session,
    stereo_tlf: &str,
    output: &str,
    variant: DepthVariant,
) -> Result<RunStats> {
    session.set_options(PlannerOptions {
        use_gpu: matches!(variant, DepthVariant::Hybrid),
        use_fpga: !matches!(variant, DepthVariant::Cpu),
        ..session.options()
    });
    let udf: Arc<dyn InterpUdf> = match variant {
        DepthVariant::Cpu => Arc::new(DepthMapCpu),
        _ => Arc::new(DepthMapFpga),
    };
    let bytes_in = crate::workloads::lightdb_q::stored_bytes(session.catalog(), stereo_tlf)?;
    // LOC:BEGIN lightdb-depth
    let p = 0.0;
    let stereo = union(
        vec![
            scan(stereo_tlf) >> Select::at(Dimension::X, p + IPD / 2.0),
            scan(stereo_tlf) >> Select::at(Dimension::X, p - IPD / 2.0),
        ],
        MergeFunction::Last,
    );
    let query = stereo >> Interpolate::udf(udf) >> Store::named(output);
    session.execute(&query)?;
    // LOC:END lightdb-depth
    let frames = crate::workloads::lightdb_q::stored_frames(session.catalog(), output)?;
    Ok(RunStats {
        frames,
        bytes_in,
        bytes_out: crate::workloads::lightdb_q::stored_bytes(session.catalog(), output)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_datasets::Dataset;

    fn db(tag: &str) -> LightDb {
        let root =
            std::env::temp_dir().join(format!("lightdb-depth-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        LightDb::open(root).unwrap()
    }

    #[test]
    fn stereo_install_has_two_points() {
        let db = db("install");
        let spec = DatasetSpec { width: 64, height: 32, fps: 2, seconds: 1, qp: 28 };
        let name = install_stereo(&db, Dataset::Timelapse, &spec).unwrap();
        let stored = db.catalog().read(&name, None).unwrap();
        assert_eq!(stored.metadata.tracks.len(), 2);
        std::fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn depth_map_runs_on_all_variants() {
        let database = db("variants");
        let spec = DatasetSpec { width: 64, height: 32, fps: 2, seconds: 1, qp: 28 };
        let name = install_stereo(&database, Dataset::Timelapse, &spec).unwrap();
        let mut session = database.session();
        for v in DepthVariant::ALL {
            let out = format!("depth_{}", v.name());
            let stats = depth_map(&mut session, &name, &out, v).unwrap();
            assert_eq!(stats.frames, 2, "{v:?}");
        }
        // The FPGA variant actually placed the UDF on the FPGA.
        assert!(session.metrics().count("INTERPOLATE[FPGA]") >= 1);
        std::fs::remove_dir_all(database.catalog().root()).unwrap();
    }
}
