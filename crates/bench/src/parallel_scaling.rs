//! Serial vs. parallel executor comparison over two queries, each run
//! with one worker thread and with `LIGHTDB_THREADS`-many (default 8):
//!
//! * a multi-GOP, decode-heavy pipeline (SCAN → DECODE → MAP(BLUR) →
//!   ENCODE), where GOPs are the independent units;
//! * the Fig 11a predictive-tiling query (PARTITION 4×4 → SUBQUERY
//!   per-tile ENCODE → TILEUNION → STORE), where partitions are.
//!
//! Besides wall-clock speedup, the harness asserts the parallel
//! output is byte-identical to the serial output — the ordering
//! guarantee of `exec::parallel` — and reports per-operator busy vs.
//! wall time of the parallel run so overlap is visible (busy/wall ≈
//! effective parallelism).

use lightdb::prelude::*;
use std::path::PathBuf;

/// One measured configuration.
#[derive(Debug)]
pub struct Measurement {
    pub threads: usize,
    pub secs: f64,
    /// Serialized output streams, for byte-comparison across runs.
    pub bytes: Vec<Vec<u8>>,
    pub frames: usize,
}

fn dataset_root() -> PathBuf {
    std::env::temp_dir().join(format!("lightdb-pscale-{}", std::process::id()))
}

/// Builds a fresh database holding a multi-GOP dataset sized for the
/// scaling run: `gops` GOPs of `gop_length` frames at `w`×`h`.
pub fn build_db(gops: usize, gop_length: usize, w: usize, h: usize) -> LightDb {
    let root = dataset_root();
    let _ = std::fs::remove_dir_all(&root);
    let db = LightDb::open(&root).expect("open scaling db");
    let frames: Vec<Frame> = (0..gops * gop_length)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    f.set(
                        x,
                        y,
                        Yuv::new(
                            ((x * 3 + y * 5 + i * 7) % 256) as u8,
                            ((x + i) % 256) as u8,
                            ((y + 2 * i) % 256) as u8,
                        ),
                    );
                }
            }
            f
        })
        .collect();
    lightdb::ingest::store_frames(
        &db,
        "pscale",
        &frames,
        &lightdb::ingest::IngestConfig {
            fps: gop_length as u32,
            gop_length,
            ..Default::default()
        },
    )
    .expect("ingest scaling dataset");
    db
}

/// Runs the decode-heavy query on `session` at the given thread count.
pub fn run(session: &mut Session, threads: usize) -> Measurement {
    session.set_parallelism(Parallelism::new(threads));
    let q = scan("pscale")
        >> Map::builtin(BuiltinMap::Blur)
        >> Encode::with(CodecKind::H264Sim);
    let (secs, out) = crate::timed(|| session.execute(&q).expect("scaling query"));
    let frames = out.frame_count();
    let QueryOutput::Encoded(streams) = out else { panic!("expected encoded output") };
    Measurement { threads, secs, bytes: streams.iter().map(|s| s.to_bytes()).collect(), frames }
}

/// Runs the Fig 11a tiling query (4×4 tiles, the predicted tile at
/// high quality) on `session` at the given thread count; `bytes` is
/// the stored, stitched stream.
pub fn run_tiling(session: &mut Session, threads: usize) -> Measurement {
    session.set_parallelism(Parallelism::new(threads));
    let out = "pscale_tiled";
    let (secs, stats) =
        crate::timed(|| lightdb_apps::workloads::lightdb_q::tiling(session, "pscale", out, 4, 4));
    let stats = stats.expect("tiling query");
    let stored = session.catalog().read(out, None).expect("stored tiling output");
    let stream = stored
        .media()
        .read_stream(&stored.metadata.tracks[0].media_path)
        .expect("readable tiling output");
    Measurement { threads, secs, bytes: vec![stream.to_bytes()], frames: stats.frames }
}

/// One query's serial-vs-parallel rows plus the parallel run's
/// per-operator busy/wall table.
fn section(title: &str, db: &LightDb, threads: usize, run: fn(&mut Session, usize) -> Measurement) {
    // Warm the buffer pool so both timed runs read from cache.
    let mut session = db.session();
    let _ = run(&mut session, 1);
    let serial = run(&mut session, 1);
    // A fresh session, so the metrics below are the parallel run's.
    let mut session = db.session();
    let parallel = run(&mut session, threads);
    let identical = serial.bytes == parallel.bytes;
    let speedup = serial.secs / parallel.secs.max(1e-9);

    println!("\nParallel scaling — {title}\n");
    crate::row("config", &["secs".into(), "fps".into(), "speedup".into()]);
    crate::row(
        "serial (1 thread)",
        &[
            format!("{:.3}", serial.secs),
            crate::fmt_fps(crate::fps(serial.frames, serial.secs)),
            "1.00x".into(),
        ],
    );
    crate::row(
        &format!("parallel ({threads} threads)"),
        &[
            format!("{:.3}", parallel.secs),
            crate::fmt_fps(crate::fps(parallel.frames, parallel.secs)),
            format!("{speedup:.2}x"),
        ],
    );
    println!(
        "\noutput byte-identical to serial: {}",
        if identical { "yes" } else { "NO (BUG)" }
    );
    println!("\nper-operator busy vs wall, parallel run (busy/wall ~ effective parallelism):");
    for (op, busy, wall, count) in session.metrics().report_wall() {
        if count == 0 || busy.as_secs_f64() < 1e-4 {
            continue;
        }
        println!(
            "  {op:<12} busy {:>8.3}s  wall {:>8.3}s  x{:.2}  ({count} calls)",
            busy.as_secs_f64(),
            wall.as_secs_f64(),
            busy.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        );
    }
    assert!(identical, "parallel output must be byte-identical to serial");
    if speedup < 2.0 {
        println!("\nWARNING: speedup {speedup:.2}x below the 2x target (machine may lack cores)");
    }
}

/// Regenerates the serial-vs-parallel scaling tables.
pub fn print() {
    let threads = lightdb_core::envknob::read_usize("LIGHTDB_THREADS")
        .filter(|&n| n > 1)
        .unwrap_or(8);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Decode-heavy: many GOPs, modest frames — DECODE+MAP+ENCODE all
    // scale per chunk, and each GOP's 4×4 tiles encode independently.
    let (gops, gop_length, w, h) = (24, 8, 256, 128);
    let db = build_db(gops, gop_length, w, h);
    let shape = format!("{gops} GOPs × {gop_length} frames @ {w}x{h}, {cores} core(s)");
    section(&format!("SCAN>DECODE>MAP(BLUR)>ENCODE, {shape}"), &db, threads, run);
    section(
        &format!("Fig 11a tiling: PARTITION 4x4>SUBQUERY(ENCODE)>TILEUNION>STORE, {shape}"),
        &db,
        threads,
        run_tiling,
    );
    let _ = std::fs::remove_dir_all(dataset_root());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-scale smoke: parallel output matches serial bytes.
    #[test]
    fn parallel_output_matches_serial() {
        // 4×4 tiles of 32×16: whole macroblocks, so TILEUNION stitches.
        let db = build_db(4, 2, 128, 64);
        let mut session = db.session();
        let serial = run(&mut session, 1);
        let parallel = run(&mut session, 4);
        assert_eq!(serial.bytes, parallel.bytes);
        assert_eq!(serial.frames, 8);
        let serial = run_tiling(&mut session, 1);
        let parallel = run_tiling(&mut session, 4);
        assert_eq!(serial.bytes, parallel.bytes);
        let _ = std::fs::remove_dir_all(dataset_root());
    }
}
