//! Integration tests for the Section 3.5 applications on LightDB and
//! each baseline: the workloads must run, produce full-length output,
//! and produce *equivalent content* across systems.

use lightdb::prelude::*;
use lightdb_apps::depth::{depth_map, install_stereo, DepthVariant};
use lightdb_apps::workloads::{ffmpeg_q, lightdb_q, opencv_q, scanner_q, scidb_q};
use lightdb_baselines::scidb::SciDb;
use lightdb_codec::Decoder;
use lightdb_datasets::{encode_dataset, install, Dataset, DatasetSpec};

fn tiny() -> DatasetSpec {
    DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 22 }
}

fn temp_db(tag: &str) -> LightDb {
    let root = std::env::temp_dir().join(format!("lightdb-app-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    LightDb::open(root).unwrap()
}

fn cleanup(db: &LightDb) {
    let _ = std::fs::remove_dir_all(db.catalog().root());
}

#[test]
fn tiling_outputs_agree_across_systems() {
    let db = temp_db("tiling-agree");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    let input = encode_dataset(Dataset::Venice, &tiny());

    // LightDB.
    lightdb_q::tiling(&db.session(), "venice", "venice_tiled", 2, 2).unwrap();
    let lightdb_frames =
        db.execute(&scan("venice_tiled")).unwrap().into_frame_parts().unwrap();

    // FFmpeg.
    let (ff_stream, _) = ffmpeg_q::tiling(&input, 2, 2).unwrap();
    let ff_frames = Decoder::new().decode(&ff_stream).unwrap();

    assert_eq!(lightdb_frames[0].len(), ff_frames.len());
    // The two adaptive outputs should resemble each other: both keep
    // the hot tile crisp and degrade the rest. Compare frame 0.
    let psnr = lightdb::frame::stats::luma_psnr(&lightdb_frames[0][0], &ff_frames[0]);
    assert!(psnr > 22.0, "tiled outputs diverged: {psnr} dB");
    cleanup(&db);
}

#[test]
fn tiling_quality_is_adaptive_in_lightdb_output() {
    let db = temp_db("tiling-quality");
    install(&db, Dataset::Coaster, &tiny()).unwrap();
    lightdb_q::tiling(&db.session(), "coaster", "coaster_tiled", 2, 2).unwrap();
    let tiled = db.execute(&scan("coaster_tiled")).unwrap().into_frame_parts().unwrap();
    let orig = db.execute(&scan("coaster")).unwrap().into_frame_parts().unwrap();
    // Second 0's hot tile is tile 0 (top-left). Its quality must beat
    // the other tiles' (compare PSNR against the source).
    let f_t = &tiled[0][1];
    let f_o = &orig[0][1];
    let (w, h) = (f_o.width(), f_o.height());
    let hot = lightdb::frame::stats::luma_psnr(
        &f_o.crop(0, 0, w / 2, h / 2),
        &f_t.crop(0, 0, w / 2, h / 2),
    );
    let cold = lightdb::frame::stats::luma_psnr(
        &f_o.crop(w / 2, h / 2, w / 2, h / 2),
        &f_t.crop(w / 2, h / 2, w / 2, h / 2),
    );
    assert!(
        hot > cold + 3.0,
        "hot tile should be visibly better: hot {hot:.1} dB vs cold {cold:.1} dB"
    );
    cleanup(&db);
}

#[test]
fn ar_overlay_marks_detections_in_all_systems() {
    let db = temp_db("ar-all");
    install(&db, Dataset::Venice, &tiny()).unwrap();
    let input = encode_dataset(Dataset::Venice, &tiny());
    let red_v = lightdb::frame::Rgb::RED.to_yuv().v;

    let count_red = |f: &lightdb::frame::Frame| {
        let mut n = 0;
        for y in 0..f.height() {
            for x in 0..f.width() {
                let c = f.get(x, y);
                if (c.v as i32 - red_v as i32).abs() < 30 && c.u < 110 {
                    n += 1;
                }
            }
        }
        n
    };

    lightdb_q::ar(&db.session(), "venice", "venice_ar", 64).unwrap();
    let ldb = db.execute(&scan("venice_ar")).unwrap().into_frame_parts().unwrap();
    assert!(count_red(&ldb[0][4]) > 10, "lightdb output lacks boxes");

    let (ff, _) = ffmpeg_q::ar(&input, 64).unwrap();
    let ff = Decoder::new().decode(&ff).unwrap();
    assert!(count_red(&ff[4]) > 10, "ffmpeg output lacks boxes");

    let (ocv, _) = opencv_q::ar(&input, 64).unwrap();
    let ocv = Decoder::new().decode(&ocv).unwrap();
    assert!(count_red(&ocv[4]) > 10, "opencv output lacks boxes");

    let (sc, _) = scanner_q::ar(&input, 64).unwrap();
    let sc = Decoder::new().decode(&sc).unwrap();
    assert!(count_red(&sc[4]) > 10, "scanner output lacks boxes");

    let store = SciDb::open(
        std::env::temp_dir().join(format!("lightdb-app-scidb-{}", std::process::id())),
    )
    .unwrap();
    scidb_q::setup(&store, "v", &input).unwrap();
    let (sd, _) = scidb_q::ar(&store, "v", 64, 0).unwrap();
    let sd = Decoder::new().decode(&sd).unwrap();
    assert!(count_red(&sd[4]) > 10, "scidb output lacks boxes");
    cleanup(&db);
}

#[test]
fn depth_variants_agree_on_output_content() {
    let db = temp_db("depth-agree");
    let spec = DatasetSpec { width: 128, height: 64, fps: 2, seconds: 1, qp: 18 };
    let stereo = install_stereo(&db, Dataset::Venice, &spec).unwrap();
    let mut session = db.session();
    depth_map(&mut session, &stereo, "d_cpu", DepthVariant::Cpu).unwrap();
    depth_map(&mut session, &stereo, "d_fpga", DepthVariant::Fpga).unwrap();
    let cpu = db.execute(&scan("d_cpu")).unwrap().into_frame_parts().unwrap();
    let fpga = db.execute(&scan("d_fpga")).unwrap().into_frame_parts().unwrap();
    // The two physical implementations estimate the same scene: their
    // maps should agree on most blocks.
    let a = &cpu[0][0];
    let b = &fpga[0][0];
    let mut agree = 0;
    let mut total = 0;
    for y in (0..a.height()).step_by(8) {
        for x in (0..a.width()).step_by(8) {
            total += 1;
            if (a.luma_at(x, y) as i32 - b.luma_at(x, y) as i32).abs() <= 32 {
                agree += 1;
            }
        }
    }
    assert!(
        agree * 10 >= total * 7,
        "depth maps disagree on {} of {total} blocks",
        total - agree
    );
    cleanup(&db);
}

#[test]
fn scanner_oom_is_reported_not_silent() {
    let input = encode_dataset(Dataset::Venice, &tiny());
    let r = scanner_q::tiling_within(&input, 2, 2, 10000);
    match r {
        Err(e) => assert!(e.to_string().contains("out of memory"), "{e}"),
        Ok(_) => panic!("scanner should exhaust a 10 kB budget"),
    }
}
