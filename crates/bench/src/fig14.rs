//! Figure 14: SlabTLF (light-field) operator performance —
//! LightDB only, since none of the baselines accept light fields.

use crate::timed;
use lightdb::prelude::*;
use lightdb_apps::depth::IPD;

/// The Figure 14 operations over the Cats slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabOp {
    /// Monoscopic selection: one uv viewpoint.
    SelectMono,
    /// Stereoscopic selection: two uv viewpoints.
    SelectStereo,
    /// Temporal range selection `t ∈ [1, 2]`.
    SelectTime,
    /// Angular selection over the st-images.
    SelectAngles,
    /// Light-field refocus map.
    MapFocus,
    /// Grayscale map over every uv sample.
    MapGray,
}

impl SlabOp {
    pub const ALL: [SlabOp; 6] = [
        SlabOp::SelectMono,
        SlabOp::SelectStereo,
        SlabOp::SelectTime,
        SlabOp::SelectAngles,
        SlabOp::MapFocus,
        SlabOp::MapGray,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SlabOp::SelectMono => "select x=0.5 (mono)",
            SlabOp::SelectStereo => "select x=±i/2 (stereo)",
            SlabOp::SelectTime => "select t=[1,2]",
            SlabOp::SelectAngles => "select θ,φ range",
            SlabOp::MapFocus => "map focus",
            SlabOp::MapGray => "map grayscale",
        }
    }
}

/// Runs one slab operation; returns `(seconds, frames processed)`.
pub fn run(db: &LightDb, op: SlabOp) -> Result<(f64, usize), String> {
    use std::f64::consts::PI;
    let frames = lightdb_apps::workloads::lightdb_q::stored_frames(db.catalog(), "cats")
        .map_err(|e| e.to_string())?;
    let q = match op {
        SlabOp::SelectMono => {
            scan("cats") >> Select::at(Dimension::X, 0.5).and(Dimension::Y, 0.5, 0.5)
        }
        SlabOp::SelectStereo => union(
            vec![
                scan("cats")
                    >> Select::at(Dimension::X, 0.5 - IPD / 2.0).and(Dimension::Y, 0.5, 0.5),
                scan("cats")
                    >> Select::at(Dimension::X, 0.5 + IPD / 2.0).and(Dimension::Y, 0.5, 0.5),
            ],
            MergeFunction::Last,
        ),
        SlabOp::SelectTime => scan("cats") >> Select::along(Dimension::T, 1.0, 2.0),
        SlabOp::SelectAngles => {
            scan("cats")
                >> Select::along(Dimension::Theta, PI / 2.0, 3.0 * PI / 2.0).and(
                    Dimension::Phi,
                    PI / 4.0,
                    3.0 * PI / 4.0,
                )
        }
        SlabOp::MapFocus => scan("cats") >> Map::builtin(BuiltinMap::Focus),
        SlabOp::MapGray => scan("cats") >> Map::builtin(BuiltinMap::Grayscale),
    };
    let (secs, r) = timed(|| db.execute(&q));
    r.map_err(|e| e.to_string())?;
    Ok((secs, frames))
}

/// Prints the Figure 14 table.
pub fn print(db: &LightDb) {
    println!("\nFigure 14: SlabTLF operator performance (Cats), frames per second");
    println!("(baselines cannot accept light-field input — LightDB only, as in the paper)");
    for op in SlabOp::ALL {
        let cell = match run(db, op) {
            Ok((secs, frames)) => crate::fmt_fps(crate::fps(frames, secs)),
            Err(e) => format!("err:{e}"),
        };
        crate::row(op.name(), &[cell]);
    }
}
