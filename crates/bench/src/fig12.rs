//! Figure 12: depth-map generation on CPU / FPGA / hybrid plans.

use crate::timed;
use lightdb::prelude::*;
use lightdb_apps::depth::{depth_map, install_stereo, DepthVariant};
use lightdb_datasets::{Dataset, DatasetSpec};

/// Seconds taken per variant, on a stereo 360° TLF and on the Cats
/// light slab (selected at two uv points).
#[derive(Debug, Clone)]
pub struct DepthResult {
    pub variant: DepthVariant,
    pub sphere_secs: f64,
    pub slab_secs: f64,
}

/// Runs all three variants on both inputs.
pub fn run(db: &LightDb, spec: &DatasetSpec) -> Vec<DepthResult> {
    let stereo = install_stereo(db, Dataset::Timelapse, spec).expect("stereo install");
    let mut out = Vec::new();
    for variant in DepthVariant::ALL {
        // 360° stereo pair.
        let name = format!("depth_sphere_{}", variant.name());
        let _ = db.execute(&drop_tlf(&name));
        let mut session = db.session();
        let (sphere_secs, r) = timed(|| depth_map(&mut session, &stereo, &name, variant));
        r.expect("sphere depth");
        if std::env::var("LIGHTDB_BENCH_VERBOSE").is_ok() {
            print!("  [{}] ", variant.name());
            for (op, dur, n) in session.metrics().report() {
                print!("{op}={:.3}s(x{n}) ", dur.as_secs_f64());
            }
            let bytes = lightdb_apps::workloads::lightdb_q::stored_bytes(db.catalog(), &name)
                .unwrap_or(0);
            println!("out_bytes={bytes}");
        }
        // Light slab sampled at two uv points, on the session the
        // sphere run configured for this variant.
        let slab_name = format!("depth_slab_{}", variant.name());
        let _ = db.execute(&drop_tlf(&slab_name));
        let (slab_secs, r) = timed(|| slab_depth(&session, &slab_name, variant));
        r.expect("slab depth");
        out.push(DepthResult { variant, sphere_secs, slab_secs });
    }
    out
}

fn slab_depth(session: &Session, output: &str, variant: DepthVariant) -> lightdb::Result<()> {
    use lightdb::exec::fpga::{DepthMapCpu, DepthMapFpga};
    use std::sync::Arc;
    let udf: Arc<dyn InterpUdf> = match variant {
        DepthVariant::Cpu => Arc::new(DepthMapCpu),
        _ => Arc::new(DepthMapFpga),
    };
    let ipd = lightdb_apps::depth::IPD;
    let stereo = union(
        vec![
            scan("cats") >> Select::at(Dimension::X, 0.5 - ipd / 2.0).and(Dimension::Y, 0.5, 0.5),
            scan("cats") >> Select::at(Dimension::X, 0.5 + ipd / 2.0).and(Dimension::Y, 0.5, 0.5),
        ],
        MergeFunction::Last,
    );
    session.execute(&(stereo >> Interpolate::udf(udf) >> Store::named(output)))?;
    Ok(())
}

/// Prints the Figure 12 table.
pub fn print(db: &LightDb, spec: &DatasetSpec) {
    println!("\nFigure 12: depth-map generation, total seconds (lower is better)");
    crate::row("variant", &["timelapse (stereo)".into(), "cats (light field)".into()]);
    for r in run(db, spec) {
        crate::row(
            r.variant.name(),
            &[format!("{:.2}s", r.sphere_secs), format!("{:.2}s", r.slab_secs)],
        );
    }
}
