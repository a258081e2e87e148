//! Predictive 360° tiling (Section 3.5): encode the predicted
//! viewport at high quality and everything else at low quality,
//! recombining the tiles homomorphically.
//!
//! ```sh
//! cargo run --release --example predictive_tiling
//! ```

use lightdb::prelude::*;
use lightdb_apps::workloads::lightdb_q;
use lightdb_datasets::{install, Dataset, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("lightdb-tiling-example");
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(&root)?;

    let spec = DatasetSpec { width: 256, height: 128, fps: 10, seconds: 4, qp: 22 };
    install(&db, Dataset::Coaster, &spec)?;

    let (cols, rows) = (4, 4);
    let session = db.session();
    let stats = lightdb_q::tiling(&session, "coaster", "coaster_tiled", cols, rows)?;
    println!(
        "tiled {} frames into a {cols}×{rows} grid: {} B → {} B ({:.0}% smaller)",
        stats.frames,
        stats.bytes_in,
        stats.bytes_out,
        stats.reduction() * 100.0
    );

    // The interesting part: the stitch happened in the encoded
    // domain. TILEUNION ran; no second decode/encode cycle.
    println!("\noperator breakdown:");
    for (op, dur, n) in session.metrics().report() {
        println!("  {op:<12} {:>8.1} ms  ×{n}", dur.as_secs_f64() * 1e3);
    }
    assert!(session.metrics().count("TILEUNION") > 0, "homomorphic stitch expected");

    // What the codec was handed against what carried a residual: blocks
    // the decoder copied or filled instead of inverse-transforming,
    // blocks the encoder never transformed or entropy-coded.
    println!("\ncodec work:");
    for (name, n) in session.metrics().counters() {
        if name.starts_with("decode.") || name.starts_with("encode.") {
            println!("  {name:<26} {n:>10}");
        }
    }

    // Decode the adaptive output and confirm it is a full panorama.
    let parts = db.execute(&scan("coaster_tiled"))?.into_frame_parts()?;
    println!(
        "\nadaptive stream decodes to {}×{} frames",
        parts[0][0].width(),
        parts[0][0].height()
    );
    Ok(())
}
