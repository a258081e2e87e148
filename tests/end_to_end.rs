//! End-to-end integration: ingest → declarative queries → storage →
//! read-back, across the whole stack.

use lightdb::ingest::{store_frames, IngestConfig};
use lightdb::prelude::*;
use lightdb_datasets::{install, Dataset, DatasetSpec};

fn temp_db(tag: &str) -> LightDb {
    let root = std::env::temp_dir().join(format!("lightdb-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    LightDb::open(root).unwrap()
}

fn cleanup(db: &LightDb) {
    let _ = std::fs::remove_dir_all(db.catalog().root());
}

fn tiny() -> DatasetSpec {
    DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 24 }
}

#[test]
fn figure7_pipeline_runs_end_to_end() {
    // The paper's running example: union a watermark onto an ingested
    // stream, sharpen, partition into 2-second fragments, encode.
    let db = temp_db("fig7");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    lightdb_datasets::install_watermark(&db, &tiny()).unwrap();
    let q = union(
        vec![scan("venice"), scan("watermark")],
        MergeFunction::Last,
    ) >> Map::builtin(BuiltinMap::Sharpen)
        >> Partition::along(Dimension::T, 2.0)
        >> Encode::with(CodecKind::H264Sim);
    let out = db.execute(&q).unwrap();
    let QueryOutput::Encoded(streams) = out else { panic!("expected encoded output") };
    assert_eq!(streams.iter().map(|s| s.frame_count()).sum::<usize>(), 8);
    assert!(streams.iter().all(|s| s.header.codec == CodecKind::H264Sim));
    cleanup(&db);
}

#[test]
fn stored_results_decode_to_watermarked_frames() {
    let db = temp_db("wmk");
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    lightdb_datasets::install_watermark(&db, &tiny()).unwrap();
    let q = union(vec![scan("timelapse"), scan("watermark")], MergeFunction::Last)
        >> Store::named("marked");
    db.execute(&q).unwrap();
    let parts = db.execute(&scan("marked")).unwrap().into_frame_parts().unwrap();
    let frame = &parts[0][0];
    // The watermark's ink (bright, near-neutral chroma) must appear in
    // the top-left cell of the frame.
    let mut bright = 0;
    for y in 0..frame.height() / 4 {
        for x in 0..frame.width() / 4 {
            if frame.get(x, y).y > 200 {
                bright += 1;
            }
        }
    }
    assert!(bright > 16, "watermark ink missing ({bright} bright pixels)");
    cleanup(&db);
}

#[test]
fn snapshot_isolation_across_queries() {
    let db = temp_db("si");
    let frames = |luma: u8| {
        vec![lightdb::frame::Frame::filled(64, 32, lightdb::frame::Yuv::new(luma, 128, 128)); 2]
    };
    let cfg = IngestConfig { fps: 2, gop_length: 2, qp: 8, ..Default::default() };
    store_frames(&db, "v", &frames(60), &cfg).unwrap();
    store_frames(&db, "v", &frames(200), &cfg).unwrap();
    // Version pins resolve to the right content.
    let check = |version: u64, expect: u8| {
        let parts = db
            .execute(&scan_version("v", version))
            .unwrap()
            .into_frame_parts()
            .unwrap();
        let y = parts[0][0].get(10, 10).y;
        assert!(
            (y as i32 - expect as i32).abs() < 12,
            "v{version}: luma {y}, expected ≈{expect}"
        );
    };
    check(1, 60);
    check(2, 200);
    cleanup(&db);
}

#[test]
fn transcode_changes_codec_and_preserves_content() {
    let db = temp_db("transcode");
    install(&db, Dataset::Coaster, &tiny()).unwrap();
    let q = scan("coaster") >> Transcode(CodecKind::H264Sim);
    let QueryOutput::Encoded(streams) = db.execute(&q).unwrap() else { panic!() };
    assert_eq!(streams[0].header.codec, CodecKind::H264Sim);
    assert_eq!(streams[0].frame_count(), 8);
    cleanup(&db);
}

#[test]
fn create_index_then_point_scan_uses_it() {
    let db = temp_db("index");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    db.execute(&create_index("venice", vec![Dimension::X, Dimension::Y, Dimension::Z]))
        .unwrap();
    // Point select at the sphere's position returns content; at a
    // distant point, nothing.
    let hit = db.execute(&(scan("venice") >> Select::at_point(0.0, 0.0, 0.0))).unwrap();
    assert_eq!(hit.frame_count(), 8);
    let miss = db.execute(&(scan("venice") >> Select::at_point(9.0, 9.0, 9.0))).unwrap();
    assert_eq!(miss.frame_count(), 0);
    cleanup(&db);
}

#[test]
fn rotation_roundtrip_content_check() {
    let db = temp_db("rotate");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    use std::f64::consts::PI;
    let q = scan("venice") >> Rotate::new(PI, 0.0) >> Rotate::new(PI, 0.0);
    let parts = db.execute(&q).unwrap().into_frame_parts().unwrap();
    let orig = db.execute(&scan("venice")).unwrap().into_frame_parts().unwrap();
    // Two half turns land back on the original (exact pixel roll).
    let psnr = lightdb::frame::stats::luma_psnr(&orig[0][0], &parts[0][0]);
    assert!(psnr > 45.0, "rotation roundtrip lost content: {psnr} dB");
    cleanup(&db);
}

#[test]
fn discretize_changes_output_resolution() {
    let db = temp_db("disc");
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    let q = scan("timelapse") >> Discretize::angular(32, 16);
    let parts = db.execute(&q).unwrap().into_frame_parts().unwrap();
    assert_eq!((parts[0][0].width(), parts[0][0].height()), (32, 16));
    cleanup(&db);
}

#[test]
fn flatten_after_partition_restores_single_part() {
    let db = temp_db("flatten");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    use std::f64::consts::PI;
    let q = scan("venice")
        >> Partition::along(Dimension::Theta, PI).and(Dimension::Phi, PI / 2.0)
        >> Flatten;
    let parts = db.execute(&q).unwrap().into_frame_parts().unwrap();
    assert_eq!(parts.len(), 1, "flatten must recombine the tiles");
    assert_eq!(parts[0][0].width(), 128);
    cleanup(&db);
}

#[test]
fn streaming_shorthand_and_nested_form_agree_at_runtime() {
    let db = temp_db("shorthand");
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    let shorthand = scan("timelapse") >> Map::builtin(BuiltinMap::Grayscale);
    let nested = VrqlExpr::from_plan(lightdb::core::algebra::LogicalPlan::unary(
        lightdb::core::algebra::LogicalOp::Map {
            f: lightdb::core::udf::MapFunction::Builtin(BuiltinMap::Grayscale),
            stencil: None,
        },
        scan("timelapse").into_plan(),
    ));
    let a = db.execute(&shorthand).unwrap().into_frame_parts().unwrap();
    let b = db.execute(&nested).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b);
    cleanup(&db);
}

#[test]
fn flatten_is_noop_on_single_part_encoded_stream() {
    let db = temp_db("flatnoop");
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    // Flatten over an untiled scan: the stream stays encoded and the
    // content is untouched.
    let q = scan("timelapse") >> Flatten;
    let out = db.execute(&q).unwrap();
    assert_eq!(out.frame_count(), 8);
    assert_eq!(db.metrics().count("DECODE"), 0, "single-part flatten must stay encoded");
    cleanup(&db);
}

#[test]
fn subquery_identity_roundtrips_partitions() {
    let db = temp_db("sqident");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    use std::f64::consts::PI;
    // A subquery that re-encodes every partition at one quality is a
    // (lossy) identity: the output still covers the full panorama.
    let q = scan("venice")
        >> Partition::along(Dimension::T, 1.0)
            .and(Dimension::Theta, PI)
            .and(Dimension::Phi, PI / 2.0)
        >> Subquery::new("reencode", |_vol, part| {
            part >> Encode::quality(CodecKind::HevcSim, Quality::Medium)
        })
        >> Store::named("sq_out");
    db.execute(&q).unwrap();
    let parts = db.execute(&scan("sq_out")).unwrap().into_frame_parts().unwrap();
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].len(), 8);
    assert_eq!(parts[0][0].width(), 128);
    let orig = db.execute(&scan("venice")).unwrap().into_frame_parts().unwrap();
    let psnr = lightdb::frame::stats::luma_psnr(&orig[0][0], &parts[0][0]);
    assert!(psnr > 28.0, "re-encoded partitions diverged: {psnr} dB");
    cleanup(&db);
}

/// `VideoStream::from_bytes` accepts a GOP of zero frames, so a file
/// read by `decode(path)` can hand every frame operator an empty chunk.
/// Each one returns well-formed output around it (or a classified
/// error), never a panic.
#[test]
fn frame_operators_pass_over_a_zero_frame_gop() {
    use lightdb::codec::{EncodedGop, Encoder, EncoderConfig};
    use std::f64::consts::PI;
    let db = temp_db("zero-gop");
    let frames: Vec<Frame> = (0..8)
        .map(|i| {
            let mut f = Frame::new(64, 32);
            for y in 0..32 {
                for x in 0..64 {
                    f.set(x, y, Yuv::new(((x * 3 + y * 5 + i * 7) % 256) as u8, 128, 128));
                }
            }
            f
        })
        .collect();
    let config = EncoderConfig { gop_length: 4, fps: 4, ..Default::default() };
    let mut stream = Encoder::new(config).unwrap().encode(&frames).unwrap();
    stream.gops.insert(1, EncodedGop::default());
    let path = db.catalog().root().join("zero-gop.bin");
    std::fs::write(&path, stream.to_bytes()).unwrap();
    let source = || decode(path.to_str().unwrap());
    let cases = [
        ("SELECT", source() >> Select::along(Dimension::Theta, 0.0, PI), 8),
        ("DISCRETIZE", source() >> Discretize::along(Dimension::Theta, PI / 16.0), 8),
        ("PARTITION", source() >> Partition::along(Dimension::Theta, PI), 16),
        ("MAP", source() >> Map::builtin(BuiltinMap::Grayscale), 8),
    ];
    for (op, q, frames) in cases {
        let out = db.execute(&q).unwrap_or_else(|e| panic!("{op}: {e}"));
        assert_eq!(out.frame_count(), frames, "{op}");
    }
    cleanup(&db);
}

/// A DISCRETIZE or PARTITION step that is not finite and positive is
/// refused by the operator, before any frame is resampled or cropped: a
/// zero θ step would ask for frames of infinite width, or for a tile
/// grid of `usize::MAX` columns.
#[test]
fn discretize_and_partition_reject_steps_that_are_not_finite_and_positive() {
    let db = temp_db("disc-step");
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    for dim in [Dimension::Theta, Dimension::Phi, Dimension::T] {
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let queries = [
                ("DISCRETIZE", scan("timelapse") >> Discretize::along(dim, step)),
                ("PARTITION", scan("timelapse") >> Partition::along(dim, step)),
            ];
            for (op, q) in queries {
                match db.execute(&q) {
                    Err(lightdb::Error::Exec(lightdb::exec::ExecError::Domain(_))) => {}
                    other => {
                        panic!("{op} {dim} step {step}: {:?}", other.map(|o| o.frame_count()))
                    }
                }
            }
        }
    }
    cleanup(&db);
}
