//! User-defined and built-in functions for `MAP`, `INTERPOLATE`, and
//! `UNION`.

use lightdb_frame::{kernels, Frame, Yuv};
use lightdb_geom::Point6;
use std::fmt;
use std::sync::Arc;

/// A frame-granular transformation UDF usable with `MAP`. The
/// executor applies it to the frames of a chunk in parallel, so it
/// must not keep per-frame state.
///
/// Implementations may declare FPGA acceleration, which the
/// optimizer's device placement considers.
pub trait MapUdf: Send + Sync {
    /// Stable name (used for plan display, equality, serialisation).
    fn name(&self) -> &str;

    /// Transforms a whole frame.
    fn apply(&self, frame: &Frame) -> Frame;

    /// True when an FPGA kernel exists for this UDF.
    fn fpga_accelerated(&self) -> bool {
        false
    }
}

/// A point-granular transformation: `f(p, color) → color`, the
/// paper's formal `MAP` signature. The execution layer evaluates it
/// per pixel, supplying the pixel's 6-D coordinates via the stream's
/// projection function.
pub trait PointMapUdf: Send + Sync {
    fn name(&self) -> &str;
    fn eval(&self, p: &Point6, current: Yuv) -> Yuv;
}

/// Built-in `MAP` functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinMap {
    Identity,
    Grayscale,
    Blur,
    Sharpen,
    Focus,
}

impl BuiltinMap {
    pub fn name(self) -> &'static str {
        match self {
            BuiltinMap::Identity => "IDENTITY",
            BuiltinMap::Grayscale => "GRAYSCALE",
            BuiltinMap::Blur => "BLUR",
            BuiltinMap::Sharpen => "SHARPEN",
            BuiltinMap::Focus => "FOCUS",
        }
    }

    /// Parses the stable name back (used by view-subgraph decoding).
    pub fn from_name(name: &str) -> Option<BuiltinMap> {
        Some(match name {
            "IDENTITY" => BuiltinMap::Identity,
            "GRAYSCALE" => BuiltinMap::Grayscale,
            "BLUR" => BuiltinMap::Blur,
            "SHARPEN" => BuiltinMap::Sharpen,
            "FOCUS" => BuiltinMap::Focus,
            _ => return None,
        })
    }
}

impl MapUdf for BuiltinMap {
    fn name(&self) -> &str {
        BuiltinMap::name(*self)
    }

    fn apply(&self, frame: &Frame) -> Frame {
        match self {
            BuiltinMap::Identity => frame.clone(),
            BuiltinMap::Grayscale => kernels::grayscale(frame),
            BuiltinMap::Blur => kernels::blur(frame),
            BuiltinMap::Sharpen => kernels::sharpen(frame),
            BuiltinMap::Focus => kernels::focus(frame),
        }
    }
}

/// A `MAP` function reference held in a logical plan.
#[derive(Clone)]
pub enum MapFunction {
    Builtin(BuiltinMap),
    /// Frame-granular UDF.
    Custom(Arc<dyn MapUdf>),
    /// Point-granular UDF.
    Point(Arc<dyn PointMapUdf>),
}

impl MapFunction {
    pub fn name(&self) -> &str {
        match self {
            MapFunction::Builtin(b) => b.name(),
            MapFunction::Custom(u) => u.name(),
            MapFunction::Point(u) => u.name(),
        }
    }
}

impl PartialEq for MapFunction {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl fmt::Debug for MapFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MapFunction({})", self.name())
    }
}

/// An interpolation UDF usable with `INTERPOLATE`: fills null regions
/// of a TLF from its non-null samples. The synthesis form consumes
/// the frames of a composite's children at one instant (e.g. the two
/// eye views for depth-map generation) and produces a new frame.
pub trait InterpUdf: Send + Sync {
    fn name(&self) -> &str;

    /// Synthesises a frame from co-temporal input frames.
    fn synthesize(&self, inputs: &[&Frame]) -> Frame;

    /// True when an FPGA kernel exists for this UDF.
    fn fpga_accelerated(&self) -> bool {
        false
    }
}

/// Built-in interpolation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinInterp {
    /// Nearest non-null sample (the paper's `nn` example).
    NearestNeighbor,
    /// Bilinear between the nearest samples.
    Linear,
}

impl BuiltinInterp {
    pub fn name(self) -> &'static str {
        match self {
            BuiltinInterp::NearestNeighbor => "NEAREST",
            BuiltinInterp::Linear => "LINEAR",
        }
    }

    pub fn from_name(name: &str) -> Option<BuiltinInterp> {
        Some(match name {
            "NEAREST" => BuiltinInterp::NearestNeighbor,
            "LINEAR" => BuiltinInterp::Linear,
            _ => return None,
        })
    }
}

/// An `INTERPOLATE` function reference held in a logical plan.
#[derive(Clone)]
pub enum InterpFunction {
    Builtin(BuiltinInterp),
    Custom(Arc<dyn InterpUdf>),
}

impl InterpFunction {
    pub fn name(&self) -> &str {
        match self {
            InterpFunction::Builtin(b) => b.name(),
            InterpFunction::Custom(u) => u.name(),
        }
    }

    pub fn fpga_accelerated(&self) -> bool {
        match self {
            InterpFunction::Builtin(_) => false,
            InterpFunction::Custom(u) => u.fpga_accelerated(),
        }
    }
}

impl PartialEq for InterpFunction {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl fmt::Debug for InterpFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InterpFunction({})", self.name())
    }
}

/// A merge UDF disambiguating overlapping light rays in `UNION`.
pub trait MergeUdf: Send + Sync {
    fn name(&self) -> &str;
    /// Merges the samples from two overlapping inputs (applied
    /// left-to-right across n-ary unions).
    fn merge(&self, first: Yuv, second: Yuv) -> Yuv;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_frame::Frame;

    #[test]
    fn builtin_names_roundtrip() {
        for b in [
            BuiltinMap::Identity,
            BuiltinMap::Grayscale,
            BuiltinMap::Blur,
            BuiltinMap::Sharpen,
            BuiltinMap::Focus,
        ] {
            assert_eq!(BuiltinMap::from_name(b.name()), Some(b));
        }
        assert_eq!(BuiltinMap::from_name("NOPE"), None);
    }

    #[test]
    fn map_function_equality_is_by_name() {
        let a = MapFunction::Builtin(BuiltinMap::Blur);
        let b = MapFunction::Builtin(BuiltinMap::Blur);
        let c = MapFunction::Builtin(BuiltinMap::Sharpen);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn custom_udf_participates() {
        struct Invert;
        impl MapUdf for Invert {
            fn name(&self) -> &str {
                "INVERT"
            }
            fn apply(&self, frame: &Frame) -> Frame {
                let mut out = frame.clone();
                let p = out.plane_mut(lightdb_frame::PlaneKind::Luma);
                for v in p.iter_mut() {
                    *v = 255 - *v;
                }
                out
            }
        }
        let f = MapFunction::Custom(Arc::new(Invert));
        assert_eq!(f.name(), "INVERT");
        let frame = Frame::filled(8, 8, Yuv::new(10, 128, 128));
        if let MapFunction::Custom(u) = &f {
            assert_eq!(u.apply(&frame).luma_at(0, 0), 245);
        }
    }
}
