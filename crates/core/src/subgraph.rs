//! View-subgraph serialisation.
//!
//! A *continuous* TLF cannot be fully materialised; LightDB stores a
//! partially materialised prefix plus the remaining logical operator
//! subgraph (everything from the last `INTERPOLATE` up), serialised
//! alongside the TLF metadata. This module serialises the
//! serialisable subset of the algebra — custom UDFs are stored by
//! name and resolved through a [`UdfRegistry`] at load time.
//!
//! By convention the materialised intermediate appears in the
//! subgraph as `SCAN($materialized)`.
//!
//! The same wire format ships *distributed subplans*: a coordinator
//! serialises the per-fragment operator chain (scan → transforms →
//! encode) and a worker deserialises and executes it locally, so the
//! serialisable subset also includes `ENCODE`.

use crate::algebra::{LogicalOp, LogicalPlan, MergeFunction, VolumePredicate};
use crate::udf::{BuiltinInterp, BuiltinMap, InterpFunction, InterpUdf, MapFunction, MapUdf};
use crate::{CoreError, Result};
use lightdb_codec::bitio::{read_varint, write_varint};
use lightdb_geom::{Dimension, Interval};
use std::collections::HashMap;
use std::sync::Arc;

/// The scan name that refers to the materialised intermediate.
pub const MATERIALIZED: &str = "$materialized";

/// Resolves custom UDF names at subgraph load time.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    maps: HashMap<String, Arc<dyn MapUdf>>,
    interps: HashMap<String, Arc<dyn InterpUdf>>,
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // UDFs are trait objects; their registered names identify them.
        let mut maps: Vec<&str> = self.maps.keys().map(String::as_str).collect();
        let mut interps: Vec<&str> = self.interps.keys().map(String::as_str).collect();
        maps.sort_unstable();
        interps.sort_unstable();
        f.debug_struct("UdfRegistry").field("maps", &maps).field("interps", &interps).finish()
    }
}

impl UdfRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register_map(&mut self, udf: Arc<dyn MapUdf>) {
        self.maps.insert(udf.name().to_string(), udf);
    }

    pub fn register_interp(&mut self, udf: Arc<dyn InterpUdf>) {
        self.interps.insert(udf.name().to_string(), udf);
    }

    pub fn map(&self, name: &str) -> Option<Arc<dyn MapUdf>> {
        self.maps.get(name).cloned()
    }

    pub fn interp(&self, name: &str) -> Option<Arc<dyn InterpUdf>> {
        self.interps.get(name).cloned()
    }
}

/// A plan rooted at `SCAN(MATERIALIZED)` — the canonical shape of a
/// view subgraph.
pub fn materialized_input() -> LogicalPlan {
    LogicalPlan::leaf(LogicalOp::Scan { name: MATERIALIZED.into(), version: None })
}

const TAG_SCAN: u8 = 0;
const TAG_SELECT: u8 = 1;
const TAG_DISCRETIZE: u8 = 2;
const TAG_PARTITION: u8 = 3;
const TAG_FLATTEN: u8 = 4;
const TAG_UNION: u8 = 5;
const TAG_MAP: u8 = 6;
const TAG_INTERPOLATE: u8 = 7;
const TAG_TRANSLATE: u8 = 8;
const TAG_ROTATE: u8 = 9;
const TAG_ENCODE: u8 = 10;

/// Deepest operator nesting a stored view may have. Real views are a
/// handful of operators deep; the cap keeps hostile bytes from
/// recursing the reader off the end of its stack.
const MAX_DEPTH: usize = 64;
/// Most inputs one operator of a view may have.
const MAX_INPUTS: usize = 1024;
/// Most steps a `DISCRETIZE` or `PARTITION` of a view may have.
const MAX_STEPS: usize = 64;

/// Serialises a view subgraph. Errors on operators that cannot appear
/// in a view (I/O, DDL, subqueries), UDFs without stable names, and
/// plans past the limits [`deserialize`] enforces, so a plan that
/// serialises also reads back.
pub fn serialize(plan: &LogicalPlan) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_node(plan, &mut out, 0)?;
    Ok(out)
}

fn write_node(plan: &LogicalPlan, out: &mut Vec<u8>, depth: usize) -> Result<()> {
    if depth == MAX_DEPTH {
        return Err(CoreError::Subgraph(format!("view nested deeper than {MAX_DEPTH}")));
    }
    if plan.inputs.len() > MAX_INPUTS {
        return Err(CoreError::Subgraph("implausible input count".into()));
    }
    match &plan.op {
        LogicalOp::Scan { name, .. } => {
            out.push(TAG_SCAN);
            write_str(out, name);
        }
        LogicalOp::Select { predicate } => {
            out.push(TAG_SELECT);
            for d in Dimension::ALL {
                match predicate.get(d) {
                    None => out.push(0),
                    Some(iv) => {
                        out.push(1);
                        out.extend_from_slice(&iv.lo().to_be_bytes());
                        out.extend_from_slice(&iv.hi().to_be_bytes());
                    }
                }
            }
        }
        LogicalOp::Discretize { steps } => {
            out.push(TAG_DISCRETIZE);
            write_steps(out, steps)?;
        }
        LogicalOp::Partition { spec } => {
            out.push(TAG_PARTITION);
            write_steps(out, spec)?;
        }
        LogicalOp::Flatten => out.push(TAG_FLATTEN),
        LogicalOp::Union { merge } => {
            out.push(TAG_UNION);
            write_str(out, merge.name());
        }
        LogicalOp::Map { f, stencil } => {
            if stencil.is_some() {
                return Err(CoreError::Subgraph("stencils are not serialisable".into()));
            }
            out.push(TAG_MAP);
            write_str(out, f.name());
        }
        LogicalOp::Interpolate { f, stencil } => {
            if stencil.is_some() {
                return Err(CoreError::Subgraph("stencils are not serialisable".into()));
            }
            out.push(TAG_INTERPOLATE);
            write_str(out, f.name());
        }
        LogicalOp::Translate { dx, dy, dz, dt } => {
            out.push(TAG_TRANSLATE);
            for v in [dx, dy, dz, dt] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        LogicalOp::Rotate { dtheta, dphi } => {
            out.push(TAG_ROTATE);
            out.extend_from_slice(&dtheta.to_be_bytes());
            out.extend_from_slice(&dphi.to_be_bytes());
        }
        LogicalOp::Encode { codec, quality } => {
            out.push(TAG_ENCODE);
            out.push(codec.to_byte());
            out.push(match quality {
                None => 0,
                Some(crate::Quality::High) => 1,
                Some(crate::Quality::Medium) => 2,
                Some(crate::Quality::Low) => 3,
            });
        }
        other => {
            return Err(CoreError::Subgraph(format!(
                "{} cannot appear in a view subgraph",
                other.name()
            )))
        }
    }
    write_varint(out, plan.inputs.len() as u64);
    for i in &plan.inputs {
        write_node(i, out, depth + 1)?;
    }
    Ok(())
}

/// Deserialises a view subgraph, resolving custom UDFs via `registry`.
pub fn deserialize(buf: &[u8], registry: &UdfRegistry) -> Result<LogicalPlan> {
    let mut pos = 0;
    let plan = read_node(buf, &mut pos, registry, 0)?;
    if pos != buf.len() {
        return Err(CoreError::Subgraph("trailing bytes".into()));
    }
    // Bytes that parse into an ill-formed plan are a bad subgraph too.
    plan.validate().map_err(|e| CoreError::Subgraph(e.to_string()))?;
    Ok(plan)
}

fn read_node(
    buf: &[u8],
    pos: &mut usize,
    registry: &UdfRegistry,
    depth: usize,
) -> Result<LogicalPlan> {
    if depth == MAX_DEPTH {
        return Err(CoreError::Subgraph(format!("view nested deeper than {MAX_DEPTH}")));
    }
    let tag = read_u8(buf, pos)?;
    let op = match tag {
        TAG_SCAN => LogicalOp::Scan { name: read_str(buf, pos)?, version: None },
        TAG_SELECT => {
            let mut pred = VolumePredicate::any();
            for d in Dimension::ALL {
                if read_u8(buf, pos)? == 1 {
                    let lo = read_f64(buf, pos)?;
                    let hi = read_f64(buf, pos)?;
                    if lo.is_nan() || hi.is_nan() || lo > hi {
                        return Err(CoreError::Subgraph("bad interval".into()));
                    }
                    pred = pred.with(d, Interval::new(lo, hi));
                }
            }
            LogicalOp::Select { predicate: pred }
        }
        TAG_DISCRETIZE => LogicalOp::Discretize { steps: read_steps(buf, pos)? },
        TAG_PARTITION => LogicalOp::Partition { spec: read_steps(buf, pos)? },
        TAG_FLATTEN => LogicalOp::Flatten,
        TAG_UNION => {
            let name = read_str(buf, pos)?;
            let merge = MergeFunction::from_name(&name)
                .ok_or_else(|| CoreError::Subgraph(format!("unknown merge fn {name}")))?;
            LogicalOp::Union { merge }
        }
        TAG_MAP => {
            let name = read_str(buf, pos)?;
            let f = match BuiltinMap::from_name(&name) {
                Some(b) => MapFunction::Builtin(b),
                None => MapFunction::Custom(registry.map(&name).ok_or_else(|| {
                    CoreError::Subgraph(format!("unregistered map UDF {name}"))
                })?),
            };
            LogicalOp::Map { f, stencil: None }
        }
        TAG_INTERPOLATE => {
            let name = read_str(buf, pos)?;
            let f = match BuiltinInterp::from_name(&name) {
                Some(b) => InterpFunction::Builtin(b),
                None => InterpFunction::Custom(registry.interp(&name).ok_or_else(|| {
                    CoreError::Subgraph(format!("unregistered interp UDF {name}"))
                })?),
            };
            LogicalOp::Interpolate { f, stencil: None }
        }
        TAG_TRANSLATE => LogicalOp::Translate {
            dx: read_f64(buf, pos)?,
            dy: read_f64(buf, pos)?,
            dz: read_f64(buf, pos)?,
            dt: read_f64(buf, pos)?,
        },
        TAG_ROTATE => {
            LogicalOp::Rotate { dtheta: read_f64(buf, pos)?, dphi: read_f64(buf, pos)? }
        }
        TAG_ENCODE => {
            let codec = lightdb_codec::CodecKind::from_byte(read_u8(buf, pos)?)
                .map_err(|e| CoreError::Subgraph(e.to_string()))?;
            let quality = match read_u8(buf, pos)? {
                0 => None,
                1 => Some(crate::Quality::High),
                2 => Some(crate::Quality::Medium),
                3 => Some(crate::Quality::Low),
                q => return Err(CoreError::Subgraph(format!("bad quality byte {q}"))),
            };
            LogicalOp::Encode { codec, quality }
        }
        _ => return Err(CoreError::Subgraph(format!("unknown tag {tag}"))),
    };
    let n = read_varint(buf, pos).map_err(|e| CoreError::Subgraph(e.to_string()))?;
    if n > MAX_INPUTS as u64 {
        return Err(CoreError::Subgraph("implausible input count".into()));
    }
    let mut inputs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        inputs.push(read_node(buf, pos, registry, depth + 1)?);
    }
    Ok(LogicalPlan { op, inputs })
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_varint(buf, pos).map_err(|e| CoreError::Subgraph(e.to_string()))?;
    // Against the bytes left, so a 64-bit length cannot overflow.
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= buf.len() - *pos)
        .ok_or_else(|| CoreError::Subgraph("string truncated".into()))?;
    let s = std::str::from_utf8(&buf[*pos..*pos + len])
        .map_err(|_| CoreError::Subgraph("non-UTF8 string".into()))?
        .to_string();
    *pos += len;
    Ok(s)
}

fn write_steps(out: &mut Vec<u8>, steps: &[(Dimension, f64)]) -> Result<()> {
    if steps.len() > MAX_STEPS {
        return Err(CoreError::Subgraph("implausible step count".into()));
    }
    write_varint(out, steps.len() as u64);
    for (d, v) in steps {
        out.push(d.index() as u8);
        out.extend_from_slice(&v.to_be_bytes());
    }
    Ok(())
}

fn read_steps(buf: &[u8], pos: &mut usize) -> Result<Vec<(Dimension, f64)>> {
    let n = read_varint(buf, pos).map_err(|e| CoreError::Subgraph(e.to_string()))?;
    if n > MAX_STEPS as u64 {
        return Err(CoreError::Subgraph("implausible step count".into()));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let d = Dimension::from_index(read_u8(buf, pos)? as usize)
            .ok_or_else(|| CoreError::Subgraph("bad dimension".into()))?;
        out.push((d, read_f64(buf, pos)?));
    }
    Ok(out)
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf.get(*pos).ok_or_else(|| CoreError::Subgraph("unexpected end".into()))?;
    *pos += 1;
    Ok(b)
}

fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    if *pos + 8 > buf.len() {
        return Err(CoreError::Subgraph("f64 truncated".into()));
    }
    let v = f64::from_be_bytes(
        buf[*pos..*pos + 8]
            .try_into()
            .map_err(|_| CoreError::Subgraph("f64 truncated".into()))?,
    );
    *pos += 8;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrql::{Interpolate, Map, Select, VrqlExpr};
    use lightdb_frame::Frame;

    fn roundtrip(plan: &LogicalPlan) -> LogicalPlan {
        let bytes = serialize(plan).unwrap();
        deserialize(&bytes, &UdfRegistry::new()).unwrap()
    }

    #[test]
    fn interpolate_view_roundtrips() {
        // The canonical continuous-TLF view: INTERPOLATE(SCAN($materialized), nn).
        let plan = (VrqlExpr::from_plan(materialized_input())
            >> Interpolate::builtin(BuiltinInterp::NearestNeighbor))
        .into_plan();
        let rt = roundtrip(&plan);
        assert_eq!(format!("{plan}"), format!("{rt}"));
    }

    #[test]
    fn select_map_chain_roundtrips() {
        let plan = (VrqlExpr::from_plan(materialized_input())
            >> Select::along(Dimension::T, 1.5, 3.5)
            >> Map::builtin(BuiltinMap::Grayscale))
        .into_plan();
        let rt = roundtrip(&plan);
        assert_eq!(format!("{plan}"), format!("{rt}"));
    }

    #[test]
    fn union_and_geometry_ops_roundtrip() {
        use crate::vrql::{union, Rotate, Translate};
        let a = VrqlExpr::from_plan(materialized_input()) >> Translate::time(5.0);
        let b = VrqlExpr::from_plan(materialized_input()) >> Rotate::new(1.0, 0.25);
        let plan = union(vec![a, b], MergeFunction::Mean).into_plan();
        let rt = roundtrip(&plan);
        assert_eq!(format!("{plan}"), format!("{rt}"));
    }

    #[test]
    fn custom_udf_needs_registry() {
        struct Detect;
        impl MapUdf for Detect {
            fn name(&self) -> &str {
                "DETECT"
            }
            fn apply(&self, f: &Frame) -> Frame {
                f.clone()
            }
        }
        let plan = (VrqlExpr::from_plan(materialized_input())
            >> Map::udf(Arc::new(Detect)))
        .into_plan();
        let bytes = serialize(&plan).unwrap();
        // Without the registry the UDF is unresolvable…
        assert!(deserialize(&bytes, &UdfRegistry::new()).is_err());
        // …with it, the plan loads.
        let mut reg = UdfRegistry::new();
        reg.register_map(Arc::new(Detect));
        let rt = deserialize(&bytes, &reg).unwrap();
        assert!(format!("{rt}").contains("MAP(DETECT)"));
    }

    #[test]
    fn encode_roundtrips_for_distributed_subplans() {
        use crate::vrql::Encode;
        use lightdb_codec::CodecKind;
        for plan in [
            (VrqlExpr::from_plan(materialized_input())
                >> Map::builtin(BuiltinMap::Grayscale)
                >> Encode::with(CodecKind::H264Sim))
            .into_plan(),
            (VrqlExpr::from_plan(materialized_input())
                >> Encode::quality(CodecKind::HevcSim, crate::Quality::Low))
            .into_plan(),
        ] {
            let rt = roundtrip(&plan);
            assert_eq!(format!("{plan}"), format!("{rt}"));
        }
    }

    #[test]
    fn io_operators_rejected() {
        let plan = LogicalPlan::unary(
            LogicalOp::Store { name: "x".into() },
            materialized_input(),
        );
        assert!(serialize(&plan).is_err());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let plan = (VrqlExpr::from_plan(materialized_input())
            >> Select::along(Dimension::T, 0.0, 1.0))
        .into_plan();
        let bytes = serialize(&plan).unwrap();
        assert!(deserialize(&bytes[..bytes.len() - 3], &UdfRegistry::new()).is_err());
    }

    /// Stored views and cluster sockets hand `deserialize` bytes nobody
    /// vouches for: every cut and every flipped bit of a real view is a
    /// value or a `Subgraph` error, never a panic.
    #[test]
    fn hostile_bytes_are_an_error_not_a_panic() {
        use crate::vrql::union;
        let a = VrqlExpr::from_plan(materialized_input())
            >> Select::along(Dimension::T, 0.5, 2.5)
            >> Map::builtin(BuiltinMap::Grayscale);
        let b = VrqlExpr::from_plan(materialized_input()) >> Map::builtin(BuiltinMap::Blur);
        let plan = union(vec![a, b], MergeFunction::Mean).into_plan();
        let bytes = serialize(&plan).unwrap();
        let reg = UdfRegistry::new();
        let check = |buf: &[u8]| match deserialize(buf, &reg) {
            Ok(_) | Err(CoreError::Subgraph(_)) => {}
            Err(e) => panic!("{e:?} is not a Subgraph error"),
        };
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn a_64_bit_string_length_is_an_error() {
        let mut buf = vec![TAG_SCAN];
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(deserialize(&buf, &UdfRegistry::new()), Err(CoreError::Subgraph(_))));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let mut buf = Vec::new();
        for _ in 0..200_000 {
            buf.push(TAG_FLATTEN);
            write_varint(&mut buf, 1);
        }
        assert_eq!(buf.len(), 400_000);
        assert!(matches!(deserialize(&buf, &UdfRegistry::new()), Err(CoreError::Subgraph(_))));
    }

    /// The writer refuses exactly the nesting the reader refuses, so a
    /// view too deep to read back is never stored.
    #[test]
    fn serialize_and_deserialize_agree_on_the_depth_cap() {
        let mut plan = materialized_input();
        for _ in 0..MAX_DEPTH - 1 {
            plan = LogicalPlan::unary(LogicalOp::Flatten, plan);
        }
        assert_eq!(format!("{}", roundtrip(&plan)), format!("{plan}"));
        let deeper = LogicalPlan::unary(LogicalOp::Flatten, plan);
        assert!(matches!(serialize(&deeper), Err(CoreError::Subgraph(_))));
        // The same nesting written by hand is what the reader refuses.
        let mut buf = Vec::new();
        for _ in 0..MAX_DEPTH {
            buf.push(TAG_FLATTEN);
            write_varint(&mut buf, 1);
        }
        buf.push(TAG_SCAN);
        write_str(&mut buf, MATERIALIZED);
        write_varint(&mut buf, 0);
        assert!(matches!(deserialize(&buf, &UdfRegistry::new()), Err(CoreError::Subgraph(_))));
    }
}
