//! Augmented reality (Section 3.5): run an object detector over a
//! downsampled stream and union the detection boxes back onto the
//! original.
//!
//! ```sh
//! cargo run --release --example augmented_reality
//! ```

use lightdb::prelude::*;
use lightdb_apps::detect::detect_boxes;
use lightdb_apps::workloads::lightdb_q;
use lightdb_datasets::{install, Dataset, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("lightdb-ar-example");
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(&root)?;

    // Venice has gondolas the detector locks onto.
    let spec = DatasetSpec { width: 256, height: 128, fps: 10, seconds: 3, qp: 22 };
    install(&db, Dataset::Venice, &spec)?;

    let stats = lightdb_q::ar(&db.session(), "venice", "venice_ar", 128)?;
    println!("annotated {} frames ({} B output)", stats.frames, stats.bytes_out);

    // Inspect one output frame: count red-ish pixels (drawn boxes).
    let parts = db
        .execute(&(scan("venice_ar") >> Select::along(Dimension::T, 0.0, 0.2)))?
        .into_frame_parts()?;
    let frame = &parts[0][0];
    let red = lightdb::frame::Rgb::RED.to_yuv();
    let mut marked = 0usize;
    for y in 0..frame.height() {
        for x in 0..frame.width() {
            let c = frame.get(x, y);
            if (c.v as i32 - red.v as i32).abs() < 30 && c.u < 110 {
                marked += 1;
            }
        }
    }
    println!("first frame carries ~{marked} annotated pixels");

    // And the raw detector, standalone:
    let sample = lightdb_datasets::venice_frame(256, 128, 5, 10);
    for b in detect_boxes(&sample.resize(128, 128)) {
        println!("detection at ({}, {}) size {}×{}", b.x, b.y, b.w, b.h);
    }
    Ok(())
}
