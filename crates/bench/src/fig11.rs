//! Figure 11: application performance (predictive tiling & AR)
//! across the five systems, plus LightDB operator breakdowns.

use crate::setup;
use crate::{fmt_fps, fps, timed};
use lightdb::prelude::*;
use lightdb_apps::detect::detect_input_size;
use lightdb_apps::workloads::{ffmpeg_q, lightdb_q, opencv_q, scanner_q, scidb_q, System};
use lightdb_datasets::{Dataset, DatasetSpec};
use lightdb_exec::metrics::counters;

/// One measurement: frames per second plus the bytes produced.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    pub fps: f64,
    pub reduction: f64,
}

/// Runs the predictive-tiling workload on one system over one
/// dataset. Errors (e.g. Scanner OOM) surface as `Err`.
pub fn run_tiling(
    system: System,
    db: &LightDb,
    dataset: Dataset,
    cols: usize,
    rows: usize,
    spec: &DatasetSpec,
) -> Result<Measure, String> {
    let to_measure = |secs: f64, stats: &lightdb_apps::RunStats| Measure {
        fps: fps(stats.frames, secs),
        reduction: stats.reduction(),
    };
    match system {
        System::LightDb => {
            let out = format!("{}_tiled_out", dataset.name());
            let _ = db.execute(&drop_tlf(&out));
            let session = db.session();
            let (secs, stats) =
                timed(|| lightdb_q::tiling(&session, dataset.name(), &out, cols, rows));
            let stats = stats.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::Ffmpeg => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| ffmpeg_q::tiling(&input, cols, rows));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::OpenCv => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| opencv_q::tiling(&input, cols, rows));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::Scanner => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| scanner_q::tiling(&input, cols, rows));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::SciDb => {
            let store = setup::bench_scidb(db, spec);
            let input_bytes = setup::dataset_stream(db, dataset).to_bytes().len();
            let (secs, r) =
                timed(|| scidb_q::tiling(&store, dataset.name(), cols, rows, input_bytes));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
    }
}

/// Runs the AR workload on one system over one dataset.
pub fn run_ar(
    system: System,
    db: &LightDb,
    dataset: Dataset,
    spec: &DatasetSpec,
) -> Result<Measure, String> {
    let size = detect_input_size();
    let to_measure = |secs: f64, stats: &lightdb_apps::RunStats| Measure {
        fps: fps(stats.frames, secs),
        reduction: stats.reduction(),
    };
    match system {
        System::LightDb => {
            let out = format!("{}_ar_out", dataset.name());
            let _ = db.execute(&drop_tlf(&out));
            let session = db.session();
            let (secs, stats) = timed(|| lightdb_q::ar(&session, dataset.name(), &out, size));
            let stats = stats.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::Ffmpeg => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| ffmpeg_q::ar(&input, size));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::OpenCv => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| opencv_q::ar(&input, size));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::Scanner => {
            let input = setup::dataset_stream(db, dataset);
            let (secs, r) = timed(|| scanner_q::ar(&input, size));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
        System::SciDb => {
            let store = setup::bench_scidb(db, spec);
            let input_bytes = setup::dataset_stream(db, dataset).to_bytes().len();
            let (secs, r) = timed(|| scidb_q::ar(&store, dataset.name(), size, input_bytes));
            let (_, stats) = r.map_err(|e| e.to_string())?;
            Ok(to_measure(secs, &stats))
        }
    }
}

/// Prints the Figure 11(a) FPS table and returns the LightDB/FFmpeg
/// speedup observed (for EXPERIMENTS.md comparisons).
pub fn print_tiling_table(db: &LightDb, spec: &DatasetSpec, cols: usize, rows: usize) {
    println!("\nFigure 11(a): predictive {cols}×{rows} tiling, frames per second");
    crate::row(
        "system",
        &Dataset::ALL.iter().map(|d| d.name().to_string()).collect::<Vec<_>>(),
    );
    for system in System::ALL {
        let cells: Vec<String> = Dataset::ALL
            .iter()
            .map(|&d| match run_tiling(system, db, d, cols, rows, spec) {
                Ok(m) => fmt_fps(m.fps),
                Err(e) => format!("err:{}", &e[..e.len().min(8)]),
            })
            .collect();
        crate::row(system.name(), &cells);
    }
}

/// Prints the LightDB per-operator time breakdown across tile grids
/// (the right plot of Figure 11(a)): busy milliseconds per operator,
/// and how many GOPs the scan served from the shared-decode cache
/// against how many it decoded. Each grid runs on a freshly opened
/// engine — `db` is dropped and re-opened on its root, as one root
/// takes one live handle — so no grid finds decodes cached by an
/// earlier query and `DECODE` times real decodes. Returns the last
/// handle. A failed query prints its error.
pub fn print_tiling_breakdown(mut db: LightDb) -> LightDb {
    println!("\nFigure 11(a) right: LightDB operator breakdown (Timelapse), busy ms");
    let root = db.catalog().root().to_path_buf();
    for (cols, rows) in [(2, 2), (4, 4), (8, 8)] {
        drop(db);
        db = LightDb::open(&root).expect("re-open bench db");
        let session = db.session();
        let out = format!("timelapse_tiled_bd{cols}");
        let _ = db.execute(&drop_tlf(&out));
        let label = format!("{cols}x{rows} tiling");
        if let Err(e) = lightdb_q::tiling(&session, "timelapse", &out, cols, rows) {
            crate::row(&label, &[format!("error: {e}")]);
            continue;
        }
        let m = session.metrics();
        let mut cells: Vec<String> = ["DECODE", "PARTITION", "ENCODE", "TILEUNION", "STORE"]
            .iter()
            .map(|op| format!("{op}={:.3}", m.total(op).as_secs_f64() * 1e3))
            .collect();
        cells.push(format!(
            "scan hits/decodes={}/{}",
            m.counter(counters::SHARED_SCAN_HITS),
            m.counter(counters::SHARED_SCAN_DECODES)
        ));
        crate::row(&label, &cells);
    }
    db
}

/// Prints the Figure 11(b) AR FPS table.
pub fn print_ar_table(db: &LightDb, spec: &DatasetSpec) {
    println!("\nFigure 11(b): augmented reality (simulated YOLO), frames per second");
    crate::row(
        "system",
        &Dataset::ALL.iter().map(|d| d.name().to_string()).collect::<Vec<_>>(),
    );
    // SciDB is run once per dataset too; Cats (light field) is
    // LightDB-only, shown separately.
    for system in System::ALL {
        let cells: Vec<String> = Dataset::ALL
            .iter()
            .map(|&d| match run_ar(system, db, d, spec) {
                Ok(m) => fmt_fps(m.fps),
                Err(e) => format!("err:{}", &e[..e.len().min(8)]),
            })
            .collect();
        crate::row(system.name(), &cells);
    }
    // Light-field AR (LightDB only, as in the paper).
    let (secs, r) = timed(|| {
        let q = scan("cats")
            >> Select::at(Dimension::X, 0.5).and(Dimension::Y, 0.5, 0.5)
            >> Map::udf(std::sync::Arc::new(lightdb_apps::DetectUdf))
            >> Store::named("cats_ar");
        let _ = db.execute(&drop_tlf("cats_ar"));
        db.execute(&q)
    });
    if let Ok(out) = r {
        let _ = out;
        let frames = lightdb_q::stored_frames(db.catalog(), "cats_ar").unwrap_or(0);
        println!("LightDB on Cats (light field): {} FPS", fmt_fps(fps(frames, secs)));
    }
    // Operator breakdown for the AR query.
    let session = db.session();
    let _ = db.execute(&drop_tlf("timelapse_ar_out"));
    let _ = lightdb_q::ar(&session, "timelapse", "timelapse_ar_out", detect_input_size());
    print!("breakdown (timelapse): ");
    for (op, dur, _) in session.metrics().report() {
        print!("{op}={:.2}s ", dur.as_secs_f64());
    }
    println!();
}
