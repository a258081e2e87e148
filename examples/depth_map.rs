//! Depth-map generation (Section 3.5 / Figure 12): sample a stereo
//! pair at `p ± i/2` and synthesise a depth map, on three physical
//! configurations (CPU, FPGA, hybrid).
//!
//! ```sh
//! cargo run --release --example depth_map
//! ```

use lightdb::prelude::*;
use lightdb_apps::depth::{depth_map, install_stereo, DepthVariant};
use lightdb_datasets::{Dataset, DatasetSpec};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("lightdb-depth-example");
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(&root)?;

    let spec = DatasetSpec { width: 256, height: 128, fps: 10, seconds: 2, qp: 22 };
    let stereo = install_stereo(&db, Dataset::Timelapse, &spec)?;
    println!("installed stereoscopic TLF '{stereo}' (two spheres, ±{}m)", 0.032);

    // Each variant is a placement choice, set on this session only.
    let mut session = db.session();
    for variant in DepthVariant::ALL {
        let started = Instant::now();
        let out = format!("depth_{}", variant.name().to_lowercase());
        let stats = depth_map(&mut session, &stereo, &out, variant)?;
        println!(
            "{:<7} {} frames in {:>7.1} ms",
            variant.name(),
            stats.frames,
            started.elapsed().as_secs_f64() * 1e3
        );
    }

    // Sanity: the depth output has bright (near) and dark (far)
    // regions rather than a flat field.
    let parts = db.execute(&scan("depth_hybrid"))?.into_frame_parts()?;
    let f = &parts[0][0];
    let variance = lightdb::frame::stats::luma_variance(f);
    println!("depth map luma variance: {variance:.1}");
    Ok(())
}
