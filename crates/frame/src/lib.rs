//! # lightdb-frame
//!
//! Raster-frame substrate for LightDB: YUV 4:2:0 frames, colour-space
//! conversion, and the whole-frame pixel kernels (grayscale, blur,
//! sharpen, keyed blits, …) that back LightDB's built-in `MAP` and
//! `UNION` functions.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod color;
pub mod frame;
pub mod kernels;
pub mod stats;

// The test oracle names this crate the way its other includer does.
#[cfg(test)]
extern crate self as lightdb_frame;

/// The kernels as per-sample definitions, for the unit tests'
/// differential checks.
#[cfg(test)]
#[path = "../tests/oracle/kernels.rs"]
mod reference_kernels;

pub use color::{Rgb, Yuv};
pub use frame::{Frame, PlaneKind};
