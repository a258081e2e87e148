//! Direct-ingest helpers: load raw frames or prebuilt streams into
//! the catalog without writing a query.
//!
//! Every ingest path commits through the catalog's write-ahead log
//! (see `lightdb_storage::wal`): media files are written and fsynced
//! first, then the metadata version commits with one WAL record whose
//! group-commit fsync is the durability point. An acknowledged ingest
//! survives any crash; an interrupted one is rolled back all-or-
//! nothing by recovery on the next open.

use crate::{LightDb, Result};
use lightdb_codec::{CodecKind, Encoder, EncoderConfig, TileGrid, VideoStream};
use lightdb_container::{SlabGeometry, TlfBody, TlfDescriptor, TrackRole};
use lightdb_geom::projection::ProjectionKind;
use lightdb_geom::{Interval, Point3, Volume};
use lightdb_storage::catalog::TrackWrite;

/// Parameters for frame ingestion.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    pub codec: CodecKind,
    pub qp: u8,
    pub fps: u32,
    pub gop_length: usize,
    pub grid: TileGrid,
    /// Spatial point of the ingested sphere.
    pub position: Point3,
    pub projection: ProjectionKind,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            codec: CodecKind::HevcSim,
            qp: 22,
            fps: 30,
            gop_length: 30,
            grid: TileGrid::SINGLE,
            position: Point3::ORIGIN,
            projection: ProjectionKind::Equirectangular,
        }
    }
}

/// Encodes `frames` as a 360° sphere and stores them as a new version
/// of `name`. Returns the committed version.
pub fn store_frames(
    db: &LightDb,
    name: &str,
    frames: &[lightdb_frame::Frame],
    config: &IngestConfig,
) -> Result<u64> {
    let encoder = Encoder::new(EncoderConfig {
        codec: config.codec,
        qp: config.qp,
        grid: config.grid,
        gop_length: config.gop_length,
        fps: config.fps,
    })?;
    let stream = encoder.encode(frames)?;
    store_stream(db, name, stream, config.position, config.projection)
}

/// Stores a prebuilt encoded stream as a single-sphere TLF.
pub fn store_stream(
    db: &LightDb,
    name: &str,
    stream: VideoStream,
    position: Point3,
    projection: ProjectionKind,
) -> Result<u64> {
    let duration = stream.duration();
    let tlf = TlfDescriptor::single_sphere(position, Interval::new(0.0, duration), 0);
    Ok(db.catalog().store(
        name,
        vec![TrackWrite::New { role: TrackRole::Video, projection, stream }],
        tlf,
    )?)
}

/// Appends frames to a live (streaming) TLF: the new GOPs are
/// concatenated onto the existing stream **homomorphically** (byte
/// copy, no re-encode) and committed as a new version whose ending
/// time has advanced — the behaviour the `streaming` flag promises
/// ("LightDB automatically updates its ending time as new data
/// arrives"). Creates the TLF on first append.
pub fn append_frames(
    db: &LightDb,
    name: &str,
    frames: &[lightdb_frame::Frame],
    config: &IngestConfig,
) -> Result<u64> {
    let encoder = Encoder::new(EncoderConfig {
        codec: config.codec,
        qp: config.qp,
        grid: config.grid,
        gop_length: config.gop_length,
        fps: config.fps,
    })?;
    let fresh = encoder.encode(frames)?;
    let (stream, position, projection) = match db.catalog().read(name, None) {
        Err(_) => (fresh, config.position, config.projection),
        Ok(stored) => {
            let track = stored
                .metadata
                .tracks
                .first()
                .ok_or_else(|| {
                    crate::Error::Codec(lightdb_codec::CodecError::Incompatible(
                        "cannot append to an empty TLF".into(),
                    ))
                })?
                .clone();
            let existing = stored.media().read_stream(&track.media_path)?;
            let joined = VideoStream::concat(&[&existing, &fresh])?;
            let position = match &stored.metadata.tlf.body {
                TlfBody::Sphere360 { points } if !points.is_empty() => points[0].position,
                _ => config.position,
            };
            (joined, position, track.projection)
        }
    };
    let duration = stream.duration();
    let mut tlf = TlfDescriptor::single_sphere(position, Interval::new(0.0, duration), 0);
    tlf.streaming = true;
    Ok(db.catalog().store(
        name,
        vec![TrackWrite::New { role: TrackRole::Video, projection, stream }],
        tlf,
    )?)
}

/// Stores a light slab: `frames` must hold `nu × nv` st-images per
/// time step in row-major uv order; one GOP per time step.
#[allow(clippy::too_many_arguments)]
pub fn store_slab(
    db: &LightDb,
    name: &str,
    frames: &[lightdb_frame::Frame],
    nu: usize,
    nv: usize,
    uv_min: Point3,
    uv_max: Point3,
    qp: u8,
) -> Result<u64> {
    assert!(nu > 0 && nv > 0, "slab sampling must be non-empty");
    assert_eq!(frames.len() % (nu * nv), 0, "frames must be whole uv samplings");
    let time_steps = frames.len() / (nu * nv);
    let encoder = Encoder::new(EncoderConfig {
        codec: CodecKind::HevcSim,
        qp,
        grid: TileGrid::SINGLE,
        gop_length: nu * nv,
        fps: (nu * nv) as u32, // one uv sampling per second of slab time
    })?;
    let stream = encoder.encode(frames)?;
    let st_w = frames[0].width() as u32;
    let st_h = frames[0].height() as u32;
    let volume = Volume::new(
        Interval::new(uv_min.x, uv_max.x),
        Interval::new(uv_min.y, uv_max.y),
        Interval::new(uv_min.z.min(uv_max.z), uv_max.z.max(uv_min.z)),
        Interval::new(0.0, time_steps as f64),
        Interval::new(0.0, lightdb_geom::THETA_PERIOD),
        Interval::new(0.0, lightdb_geom::PHI_MAX),
    );
    let tlf = TlfDescriptor {
        volume,
        streaming: false,
        partition_spec: vec![],
        view_subgraph: None,
        body: TlfBody::Slab {
            slabs: vec![SlabGeometry {
                uv_min,
                uv_max,
                st_min: Point3::new(uv_min.x, uv_min.y, uv_min.z + 1.0),
                st_max: Point3::new(uv_max.x, uv_max.y, uv_max.z + 1.0),
                uv_samples: (nu as u32, nv as u32),
                st_samples: (st_w, st_h),
                track: 0,
            }],
        },
    };
    Ok(db.catalog().store(
        name,
        vec![TrackWrite::New {
            role: TrackRole::Video,
            projection: ProjectionKind::Equirectangular,
            stream,
        }],
        tlf,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_frame::{Frame, Yuv};
    use std::fs;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-ing-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_frames_creates_versioned_tlf() {
        let db = LightDb::open(temp_root("frames")).unwrap();
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 4];
        let cfg = IngestConfig { fps: 2, gop_length: 2, ..Default::default() };
        assert_eq!(store_frames(&db, "a", &frames, &cfg).unwrap(), 1);
        assert_eq!(store_frames(&db, "a", &frames, &cfg).unwrap(), 2);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn store_slab_records_geometry() {
        let db = LightDb::open(temp_root("slab")).unwrap();
        // 2×2 uv grid, 2 time steps → 8 frames.
        let frames: Vec<Frame> =
            (0..8).map(|i| Frame::filled(32, 32, Yuv::new(20 * i as u8, 128, 128))).collect();
        store_slab(
            &db,
            "cats",
            &frames,
            2,
            2,
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 0.0),
            30,
        )
        .unwrap();
        let stored = db.catalog().read("cats", None).unwrap();
        let TlfBody::Slab { slabs } = &stored.metadata.tlf.body else { panic!() };
        assert_eq!(slabs[0].uv_samples, (2, 2));
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn acked_ingest_survives_immediate_reopen() {
        let root = temp_root("ingestwal");
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 4];
        let cfg = IngestConfig { fps: 2, gop_length: 2, ..Default::default() };
        {
            let db = LightDb::open(&root).unwrap();
            store_frames(&db, "a", &frames, &cfg).unwrap();
            store_frames(&db, "a", &frames, &cfg).unwrap();
            // No checkpoint: the handle drops with version 2 possibly
            // only in the WAL. Recovery must still surface it.
        }
        let db = LightDb::open(&root).unwrap();
        assert_eq!(db.catalog().all_versions("a").unwrap(), vec![1, 2]);
        db.checkpoint().unwrap();
        drop(db);
        let db2 = LightDb::open(&root).unwrap();
        assert_eq!(db2.catalog().all_versions("a").unwrap(), vec![1, 2]);
        fs::remove_dir_all(db2.catalog().root()).unwrap();
    }

    #[test]
    #[should_panic(expected = "whole uv samplings")]
    fn partial_uv_sampling_rejected() {
        let db = LightDb::open(temp_root("partial")).unwrap();
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 3];
        let _ = store_slab(
            &db,
            "bad",
            &frames,
            2,
            2,
            Point3::ORIGIN,
            Point3::new(1.0, 1.0, 0.0),
            30,
        );
    }
}
