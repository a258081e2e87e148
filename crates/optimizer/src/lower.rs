//! Logical → physical lowering with device placement and homomorphic
//! operator substitution.

use crate::rules;
use crate::{PlanError, Result};
use lightdb_core::algebra::{LogicalOp, LogicalPlan, VolumePredicate};
use lightdb_exec::device::Device;
use lightdb_exec::plan::{CompiledSubquery, PhysicalPlan};
use lightdb_geom::{Dimension, Volume, EPSILON, PHI_MAX, THETA_PERIOD};
use lightdb_storage::{Catalog, MediaStore};
use std::sync::Arc;

/// The marker name a subquery body's input leaf scans.
pub const SUBQUERY_INPUT: &str = "$subquery_input";

/// Optimiser switches — every optimisation family can be disabled for
/// ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Place operators on the simulated GPU when available.
    pub use_gpu: bool,
    /// Allow FPGA placement of FPGA-accelerated UDFs.
    pub use_fpga: bool,
    /// Substitute homomorphic operators (GOPSELECT/TILESELECT/…).
    pub use_hops: bool,
    /// Push selections into scans through GOP/tile/spatial indexes.
    pub use_indexes: bool,
    /// Apply the logical rewrite rules.
    pub logical_rewrites: bool,
    /// Store continuous query results as partially materialised
    /// views: `STORE(…INTERPOLATE…)` materialises only the discrete
    /// prefix and defers the recorded subgraph to scan time. Off by
    /// default (eager materialisation).
    pub defer_continuous: bool,
    /// Codec and QP used when `ENCODE` leaves them unspecified.
    pub default_codec: lightdb_codec::CodecKind,
    pub default_qp: u8,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            use_gpu: true,
            use_fpga: true,
            use_hops: true,
            use_indexes: true,
            logical_rewrites: true,
            defer_continuous: false,
            default_codec: lightdb_codec::CodecKind::HevcSim,
            default_qp: 20,
        }
    }
}

impl PlannerOptions {
    /// Everything off: the naive decode-everything CPU plan.
    pub fn naive() -> Self {
        PlannerOptions {
            use_gpu: false,
            use_fpga: false,
            use_hops: false,
            use_indexes: false,
            logical_rewrites: false,
            ..Default::default()
        }
    }
}

/// What a lowered subtree produces.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Out {
    Encoded,
    Decoded(Device),
}

/// Stream parameters the planner reads for scan-rooted subtrees.
#[derive(Debug, Clone, Copy)]
struct ScanParams {
    volume: Volume,
    fps: u32,
    gop_length: usize,
    grid: (usize, usize),
    /// True when any slab backs the TLF (slab uv sampling needs
    /// frame-level selection; part filtering alone is not enough).
    has_slab: bool,
}

/// The rule-based planner.
#[derive(Clone)]
#[derive(Debug)]
pub struct Planner {
    catalog: Arc<Catalog>,
    pub options: PlannerOptions,
}

impl Planner {
    pub fn new(catalog: Arc<Catalog>, options: PlannerOptions) -> Planner {
        Planner { catalog, options }
    }

    /// Plans a statement: logical rewrites, then lowering.
    pub fn plan(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        logical.validate()?;
        // DDL statements lower directly.
        match &logical.op {
            LogicalOp::Create { name } if logical.inputs.is_empty() => {
                return Ok(PhysicalPlan::CreateTlf { name: name.clone() })
            }
            LogicalOp::Drop { name } => return Ok(PhysicalPlan::DropTlf { name: name.clone() }),
            LogicalOp::CreateIndex { name, dims } => {
                return Ok(PhysicalPlan::CreateIndex { name: name.clone(), dims: dims.clone() })
            }
            LogicalOp::DropIndex { name, dims } => {
                return Ok(PhysicalPlan::DropIndex { name: name.clone(), dims: dims.clone() })
            }
            _ => {}
        }
        let logical = if self.options.logical_rewrites {
            rules::push_up_interpolate(rules::rewrite(logical.clone()))
        } else {
            logical.clone()
        };
        let (phys, _) = self.lower(&logical)?;
        Ok(phys)
    }

    fn default_device(&self) -> Device {
        if self.options.use_gpu {
            Device::Gpu
        } else {
            Device::Cpu
        }
    }

    /// Ensures a decoded stream on `device`, inserting `DECODE` and
    /// `TRANSFER` operators as needed.
    fn decoded_on(&self, phys: PhysicalPlan, out: Out, device: Device) -> (PhysicalPlan, Out) {
        match out {
            Out::Encoded => (
                PhysicalPlan::ToFrames { input: Box::new(phys), device },
                Out::Decoded(device),
            ),
            Out::Decoded(d) if d == device => (phys, out),
            Out::Decoded(_) => (
                PhysicalPlan::Transfer { input: Box::new(phys), to: device },
                Out::Decoded(device),
            ),
        }
    }

    fn lower(&self, plan: &LogicalPlan) -> Result<(PhysicalPlan, Out)> {
        match &plan.op {
            LogicalOp::Scan { name, version } => {
                if name == SUBQUERY_INPUT {
                    // The partition injected by SUBQUERY arrives decoded.
                    return Ok((PhysicalPlan::SubqueryInput, Out::Decoded(Device::Cpu)));
                }
                Ok((
                    PhysicalPlan::ScanTlf {
                        name: name.clone(),
                        version: *version,
                        t_frames: None,
                        spatial: None,
                    },
                    Out::Encoded,
                ))
            }
            LogicalOp::Decode { source, codec_hint } => Ok((
                PhysicalPlan::DecodeFile { path: source.clone(), codec_hint: *codec_hint },
                Out::Encoded,
            )),
            LogicalOp::Create { .. } => {
                // CREATE inside an expression is the Ω constructor.
                Ok((PhysicalPlan::Omega { volume: Volume::everywhere() }, Out::Encoded))
            }
            LogicalOp::Select { predicate } => self.lower_select(plan, predicate),
            LogicalOp::Union { merge } => self.lower_union(plan, merge),
            LogicalOp::Map { f, .. } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                let device = self.default_device();
                let (child, _) = self.decoded_on(child, cout, device);
                Ok((
                    PhysicalPlan::MapFrames { input: Box::new(child), f: f.clone(), device },
                    Out::Decoded(device),
                ))
            }
            LogicalOp::Interpolate { f, .. } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                let device = if self.options.use_fpga && f.fpga_accelerated() {
                    Device::Fpga
                } else {
                    self.default_device()
                };
                let (child, _) = self.decoded_on(child, cout, device);
                Ok((
                    PhysicalPlan::InterpolateFrames {
                        input: Box::new(child),
                        f: f.clone(),
                        device,
                    },
                    Out::Decoded(device),
                ))
            }
            LogicalOp::Discretize { steps } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                let device = self.default_device();
                let (child, _) = self.decoded_on(child, cout, device);
                Ok((
                    PhysicalPlan::DiscretizeFrames {
                        input: Box::new(child),
                        steps: steps.clone(),
                        device,
                    },
                    Out::Decoded(device),
                ))
            }
            LogicalOp::Partition { spec } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                let angular = spec.iter().any(|(d, _)| d.is_angular());
                let (child, out) = if angular {
                    let device = self.default_device();
                    self.decoded_on(child, cout, device)
                } else {
                    (child, cout)
                };
                Ok((
                    PhysicalPlan::PartitionChunks { input: Box::new(child), spec: spec.clone() },
                    out,
                ))
            }
            LogicalOp::Flatten => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                Ok((PhysicalPlan::FlattenChunks { input: Box::new(child) }, cout))
            }
            LogicalOp::Translate { dx, dy, dz, dt } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                Ok((
                    PhysicalPlan::TranslateChunks {
                        input: Box::new(child),
                        dx: *dx,
                        dy: *dy,
                        dz: *dz,
                        dt: *dt,
                    },
                    cout,
                ))
            }
            LogicalOp::Rotate { dtheta, dphi } => {
                let (child, cout) = self.lower(&plan.inputs[0])?;
                let device = self.default_device();
                let (child, _) = self.decoded_on(child, cout, device);
                Ok((
                    PhysicalPlan::RotateFrames {
                        input: Box::new(child),
                        dtheta: *dtheta,
                        dphi: *dphi,
                        device,
                    },
                    Out::Decoded(device),
                ))
            }
            LogicalOp::Encode { codec, quality } => {
                let qp = quality.map(|q| q.qp()).unwrap_or(self.options.default_qp);
                self.lower_encode(&plan.inputs[0], *codec, qp)
            }
            LogicalOp::Transcode { codec } => {
                self.lower_encode(&plan.inputs[0], *codec, self.options.default_qp)
            }
            LogicalOp::Subquery { body, merge: _, label } => {
                self.lower_subquery(&plan.inputs[0], body.clone(), label)
            }
            LogicalOp::Store { name } => {
                let (child, _) = self.lower_store_input(&plan.inputs[0])?;
                Ok((
                    PhysicalPlan::Store { input: Box::new(child), name: name.clone(), view_subgraph: None },
                    Out::Encoded,
                ))
            }
            LogicalOp::Drop { .. }
            | LogicalOp::CreateIndex { .. }
            | LogicalOp::DropIndex { .. } => Err(PlanError::Unsupported(format!(
                "{} must be a statement root",
                plan.op.name()
            ))),
        }
    }

    // --------------------------------------------------------------- select

    fn lower_select(
        &self,
        plan: &LogicalPlan,
        predicate: &VolumePredicate,
    ) -> Result<(PhysicalPlan, Out)> {
        let child_logical = &plan.inputs[0];
        let (mut child, cout) = self.lower(child_logical)?;
        let dims = predicate.constrained_dims();
        let spatial_only = dims.iter().all(|d| d.is_spatial());
        let temporal_only = dims.iter().all(|d| d.is_temporal());
        let angular_only = dims.iter().all(|d| d.is_angular());

        // Pushdown into a direct scan.
        if let PhysicalPlan::ScanTlf { name, version, t_frames, spatial } = &mut child {
            let params = self.scan_params(name, *version).ok();
            // Spatial pushdown: part filtering always happens; the
            // executor consults the R-tree only when indexes are on.
            if dims.iter().any(|d| d.is_spatial()) {
                let mut vol = Volume::everywhere();
                for d in Dimension::SPATIAL {
                    if let Some(iv) = predicate.get(d) {
                        vol = vol.with(d, iv);
                    }
                }
                *spatial = Some(vol);
            }
            // Temporal pushdown through the GOP index.
            if let (true, Some(p), Some(t_iv)) =
                (self.options.use_indexes, params, predicate.get(Dimension::T))
            {
                if let Some(clipped) = p.volume.t().intersect(&t_iv) {
                    let t0 = p.volume.t().lo();
                    let first = (((clipped.lo() - t0) * p.fps as f64) + EPSILON).floor() as u64;
                    let last =
                        ((((clipped.hi() - t0) * p.fps as f64) - EPSILON).ceil() as u64).max(first);
                    let range = (first, last.saturating_sub(1).max(first));
                    *t_frames = Some(range);
                    // GOP-aligned pure-temporal selection → GOPSELECT.
                    if self.options.use_hops && temporal_only && gop_aligned(&clipped, t0, p) {
                        return Ok((
                            PhysicalPlan::GopSelect { input: Box::new(child), t_frames: range },
                            Out::Encoded,
                        ));
                    }
                }
            }
            // Tile-aligned pure-angular selection → TILESELECT.
            if let (true, true, Some(p)) = (self.options.use_hops, angular_only, params) {
                if let Some(tiles) = whole_tiles(predicate, &p) {
                    return Ok((
                        PhysicalPlan::TileSelect { input: Box::new(child), tiles },
                        Out::Encoded,
                    ));
                }
                // Misaligned angular selection over a tiled stream:
                // extract just the covering tiles via the tile index,
                // decode only those, and trim the residual at frame
                // granularity ("decode only the relevant tile").
                if let Some(tiles) = covering_tiles(predicate, &p) {
                    if tiles.len() < p.grid.0 * p.grid.1 {
                        let ts = PhysicalPlan::TileSelect { input: Box::new(child), tiles };
                        let device = self.default_device();
                        let (dec, _) = self.decoded_on(ts, Out::Encoded, device);
                        return Ok((
                            PhysicalPlan::SelectFrames {
                                input: Box::new(dec),
                                predicate: *predicate,
                                device,
                            },
                            Out::Decoded(device),
                        ));
                    }
                }
            }
            // Spatial-only selection over sphere TLFs is fully
            // handled by the part-level pushdown; slabs still need
            // the frame-level uv sampling below.
            if spatial_only && params.map(|p| !p.has_slab).unwrap_or(false) {
                return Ok((child, Out::Encoded));
            }
        }

        // Residual: decode and select at frame granularity.
        let device = self.default_device();
        let (child, _) = self.decoded_on(child, cout, device);
        Ok((
            PhysicalPlan::SelectFrames {
                input: Box::new(child),
                predicate: *predicate,
                device,
            },
            Out::Decoded(device),
        ))
    }

    // --------------------------------------------------------------- union

    fn lower_union(
        &self,
        plan: &LogicalPlan,
        merge: &lightdb_core::MergeFunction,
    ) -> Result<(PhysicalPlan, Out)> {
        let lowered: Vec<(PhysicalPlan, Out)> =
            plan.inputs.iter().map(|p| self.lower(p)).collect::<Result<Vec<_>>>()?;
        let all_encoded = lowered.iter().all(|(_, o)| *o == Out::Encoded);
        // GOPUNION: all inputs encoded and provably temporally disjoint.
        if self.options.use_hops && all_encoded {
            let volumes: Vec<Option<Volume>> =
                plan.inputs.iter().map(|p| self.infer_volume(p)).collect();
            if volumes.iter().all(Option::is_some) {
                let mut vols: Vec<(usize, Volume)> =
                    volumes.into_iter().flatten().enumerate().collect();
                vols.sort_by(|a, b| a.1.t().lo().total_cmp(&b.1.t().lo()));
                let disjoint = vols.windows(2).all(|w| {
                    w[0].1.t().hi() <= w[1].1.t().lo() + EPSILON
                });
                if disjoint && vols.len() > 1 {
                    let mut inputs = Vec::with_capacity(lowered.len());
                    let mut by_index: Vec<Option<PhysicalPlan>> =
                        lowered.into_iter().map(|(p, _)| Some(p)).collect();
                    for (i, _) in vols {
                        // lint: allow(R1): enumerate() indices are distinct, so each slot is taken once
                        #[allow(clippy::expect_used)]
                        inputs.push(by_index[i].take().expect("each input used once"));
                    }
                    return Ok((PhysicalPlan::GopUnion { inputs }, Out::Encoded));
                }
            }
        }
        // General case: decode everything onto one device and merge.
        let device = self.default_device();
        let inputs: Vec<PhysicalPlan> = lowered
            .into_iter()
            .map(|(p, o)| self.decoded_on(p, o, device).0)
            .collect();
        Ok((
            PhysicalPlan::UnionFrames { inputs, merge: merge.clone(), device },
            Out::Decoded(device),
        ))
    }

    // --------------------------------------------------------------- encode

    fn lower_encode(
        &self,
        input: &LogicalPlan,
        codec: lightdb_codec::CodecKind,
        qp: u8,
    ) -> Result<(PhysicalPlan, Out)> {
        let (child, cout) = self.lower(input)?;
        let device = self.default_device();
        let (child, _) = self.decoded_on(child, cout, device);
        Ok((
            PhysicalPlan::FromFrames { input: Box::new(child), device, codec, qp },
            Out::Encoded,
        ))
    }

    // --------------------------------------------------------------- subquery

    fn lower_subquery(
        &self,
        input: &LogicalPlan,
        body: lightdb_core::algebra::SubqueryFn,
        label: &str,
    ) -> Result<(PhysicalPlan, Out)> {
        let (child, _cout) = self.lower(input)?;
        let planner = self.clone();
        let compiled: CompiledSubquery = Arc::new(move |vol: &Volume| {
            let leaf = LogicalPlan::leaf(LogicalOp::Scan {
                name: SUBQUERY_INPUT.into(),
                version: None,
            });
            let logical = body(vol, leaf);
            let logical = if planner.options.logical_rewrites {
                rules::rewrite(logical)
            } else {
                logical
            };
            let (phys, _) = planner
                .lower(&logical)
                .map_err(|e| lightdb_exec::ExecError::Other(format!("subquery lowering: {e}")))?;
            Ok(phys)
        });
        // Probe the body with the input's volume (or Ω's) to learn its
        // output domain.
        let probe_vol = self.infer_volume(input).unwrap_or_else(Volume::everywhere);
        let probe = compiled(&probe_vol).ok();
        let encoded_out = probe
            .as_ref()
            .map(|p| {
                matches!(
                    p,
                    PhysicalPlan::FromFrames { .. }
                        | PhysicalPlan::TileSelect { .. }
                        | PhysicalPlan::GopSelect { .. }
                )
            })
            .unwrap_or(false);
        let sq = PhysicalPlan::Subquery {
            input: Box::new(child),
            body: compiled,
            label: label.to_string(),
        };
        // The subquery output: encoded parts when the body encodes,
        // decoded otherwise.
        Ok((sq, if encoded_out { Out::Encoded } else { Out::Decoded(self.default_device()) }))
    }

    /// Lowers a `STORE`'s input, inserting `TILEUNION` when the input
    /// is an angular-tiling subquery producing encoded tiles — the
    /// substitution that lets the predictive-tiling workload skip a
    /// full decode/encode cycle.
    fn lower_store_input(&self, input: &LogicalPlan) -> Result<(PhysicalPlan, Out)> {
        if let LogicalOp::Subquery { .. } = &input.op {
            if let LogicalOp::Partition { spec } = &input.inputs[0].op {
                let cols = spec
                    .iter()
                    .find(|(d, _)| *d == Dimension::Theta)
                    .map(|(_, s)| (THETA_PERIOD / s).round() as usize);
                let rows = spec
                    .iter()
                    .find(|(d, _)| *d == Dimension::Phi)
                    .map(|(_, s)| (PHI_MAX / s).round() as usize);
                if let (true, Some(cols), Some(rows)) = (self.options.use_hops, cols, rows) {
                    let (sq, out) = self.lower(input)?;
                    if out == Out::Encoded && cols * rows > 1 {
                        return Ok((
                            PhysicalPlan::TileUnion { inputs: vec![sq], cols, rows },
                            Out::Encoded,
                        ));
                    }
                    return Ok((sq, out));
                }
            }
        }
        self.lower(input)
    }

    // --------------------------------------------------------------- metadata

    /// Reads the stream parameters behind a stored TLF (first video
    /// track) — used for pushdown and alignment decisions.
    fn scan_params(&self, name: &str, version: Option<u64>) -> Result<ScanParams> {
        let stored = self.catalog.read(name, version)?;
        let volume = stored.metadata.tlf.volume;
        fn any_slab(t: &lightdb_container::TlfDescriptor) -> bool {
            match &t.body {
                lightdb_container::TlfBody::Slab { .. } => true,
                lightdb_container::TlfBody::Sphere360 { .. } => false,
                lightdb_container::TlfBody::Composite { children } => {
                    children.iter().any(any_slab)
                }
            }
        }
        let has_slab = any_slab(&stored.metadata.tlf);
        let media = MediaStore::new(stored.dir.clone());
        let mut fps = 30u32;
        let mut gop_length = 30usize;
        let mut grid = (1usize, 1usize);
        if let Some(track) = stored.metadata.tracks.first() {
            if let Ok(h) = media.read_stream_header(&track.media_path) {
                fps = h.fps;
                gop_length = h.gop_length;
                grid = (h.grid.cols, h.grid.rows);
            }
        }
        Ok(ScanParams { volume, fps, gop_length, grid, has_slab })
    }

    /// Statically derives a plan's bounding volume when possible.
    fn infer_volume(&self, plan: &LogicalPlan) -> Option<Volume> {
        match &plan.op {
            LogicalOp::Scan { name, version } => {
                if name == SUBQUERY_INPUT {
                    return None;
                }
                self.scan_params(name, *version).ok().map(|p| p.volume)
            }
            LogicalOp::Translate { dx, dy, dz, dt } => {
                Some(self.infer_volume(&plan.inputs[0])?.translate(*dx, *dy, *dz, *dt))
            }
            LogicalOp::Select { predicate } => {
                predicate.apply(&self.infer_volume(&plan.inputs[0])?)
            }
            LogicalOp::Union { .. } => {
                let mut vol: Option<Volume> = None;
                for i in &plan.inputs {
                    let v = self.infer_volume(i)?;
                    vol = Some(match vol {
                        None => v,
                        Some(acc) => acc.hull(&v),
                    });
                }
                vol
            }
            LogicalOp::Map { .. }
            | LogicalOp::Interpolate { .. }
            | LogicalOp::Discretize { .. }
            | LogicalOp::Partition { .. }
            | LogicalOp::Flatten
            | LogicalOp::Encode { .. }
            | LogicalOp::Transcode { .. } => self.infer_volume(&plan.inputs[0]),
            _ => None,
        }
    }
}

/// True when `[lo, hi]` (relative to stream start `t0`) lands on GOP
/// boundaries.
fn gop_aligned(clipped: &lightdb_geom::Interval, t0: f64, p: ScanParams) -> bool {
    let g = p.gop_length as f64 / p.fps as f64;
    if g <= 0.0 {
        return false;
    }
    let a = (clipped.lo() - t0) / g;
    let b = (clipped.hi() - t0) / g;
    (a - a.round()).abs() < 1e-6 && (b - b.round()).abs() < 1e-6 && b > a
}

/// The smallest contiguous tile rectangle overlapping the angular
/// predicate (outward-rounded), or `None` for untiled streams.
fn covering_tiles(predicate: &VolumePredicate, p: &ScanParams) -> Option<Vec<usize>> {
    let (cols, rows) = p.grid;
    if cols * rows <= 1 {
        return None;
    }
    let th = predicate
        .get(Dimension::Theta)
        .unwrap_or(lightdb_geom::Interval::new(0.0, THETA_PERIOD));
    let ph = predicate
        .get(Dimension::Phi)
        .unwrap_or(lightdb_geom::Interval::new(0.0, PHI_MAX));
    let col_step = THETA_PERIOD / cols as f64;
    let row_step = PHI_MAX / rows as f64;
    let c0 = ((th.lo() / col_step).floor().max(0.0) as usize).min(cols - 1);
    let c1 = (((th.hi() / col_step).ceil()) as usize).clamp(c0 + 1, cols);
    let r0 = ((ph.lo() / row_step).floor().max(0.0) as usize).min(rows - 1);
    let r1 = (((ph.hi() / row_step).ceil()) as usize).clamp(r0 + 1, rows);
    let mut tiles = Vec::with_capacity((c1 - c0) * (r1 - r0));
    for r in r0..r1 {
        for c in c0..c1 {
            tiles.push(r * cols + c);
        }
    }
    Some(tiles)
}

/// If the angular predicate covers whole, contiguous tiles of the
/// stream's grid, returns the row-major tile list.
fn whole_tiles(predicate: &VolumePredicate, p: &ScanParams) -> Option<Vec<usize>> {
    let (cols, rows) = p.grid;
    if cols * rows <= 1 {
        return None;
    }
    let th = predicate
        .get(Dimension::Theta)
        .unwrap_or(lightdb_geom::Interval::new(0.0, THETA_PERIOD));
    let ph = predicate
        .get(Dimension::Phi)
        .unwrap_or(lightdb_geom::Interval::new(0.0, PHI_MAX));
    let col_step = THETA_PERIOD / cols as f64;
    let row_step = PHI_MAX / rows as f64;
    let aligned = |v: f64, step: f64| {
        let r = v / step;
        (r - r.round()).abs() < 1e-6
    };
    if !aligned(th.lo(), col_step)
        || !aligned(th.hi(), col_step)
        || !aligned(ph.lo(), row_step)
        || !aligned(ph.hi(), row_step)
    {
        return None;
    }
    let c0 = (th.lo() / col_step).round() as usize;
    let c1 = (th.hi() / col_step).round() as usize;
    let r0 = (ph.lo() / row_step).round() as usize;
    let r1 = (ph.hi() / row_step).round() as usize;
    if c1 <= c0 || r1 <= r0 || c1 > cols || r1 > rows {
        return None;
    }
    let mut tiles = Vec::with_capacity((c1 - c0) * (r1 - r0));
    for r in r0..r1 {
        for c in c0..c1 {
            tiles.push(r * cols + c);
        }
    }
    Some(tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::{CodecKind, Encoder, EncoderConfig, TileGrid};
    use lightdb_container::{TlfDescriptor, TrackRole};
    use lightdb_core::udf::BuiltinMap;
    use lightdb_core::vrql::*;
    use lightdb_core::{MergeFunction, Quality};
    use lightdb_frame::{Frame, Yuv};
    use lightdb_geom::projection::ProjectionKind;
    use lightdb_geom::{Interval, Point3};
    use lightdb_storage::catalog::TrackWrite;
    use std::fs;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-opt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn seed(catalog: &Catalog, name: &str, seconds: usize, fps: u32, grid: TileGrid) {
        let frames: Vec<Frame> = (0..seconds * fps as usize)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x + y + i) % 250) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        let stream = Encoder::new(EncoderConfig {
            gop_length: fps as usize,
            fps,
            qp: 30,
            grid,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        catalog
            .store(
                name,
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream,
                }],
                TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, seconds as f64), 0),
            )
            .unwrap();
    }

    fn planner(tag: &str, grid: TileGrid) -> Planner {
        let catalog = Arc::new(Catalog::open(temp_root(tag)).unwrap());
        seed(&catalog, "demo", 4, 2, grid);
        Planner::new(catalog, PlannerOptions::default())
    }

    #[test]
    fn aligned_temporal_select_becomes_gopselect() {
        let p = planner("gopsel", TileGrid::SINGLE);
        let q = scan("demo") >> Select::along(Dimension::T, 1.0, 3.0);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("GOPSELECT"), "{s}");
        assert!(!s.contains("DECODE ["), "no decode expected: {s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn misaligned_temporal_select_decodes_with_pushdown() {
        let p = planner("misalign", TileGrid::SINGLE);
        let q = scan("demo") >> Select::along(Dimension::T, 1.5, 3.5);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("SELECT"), "{s}");
        assert!(s.contains("frames 3..="), "GOP-index pushdown expected: {s}");
        assert!(s.contains("DECODE"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn tile_aligned_angular_select_becomes_tileselect() {
        let p = planner("tilesel", TileGrid::new(2, 1));
        let q = scan("demo")
            >> Select::along(Dimension::Theta, std::f64::consts::PI, THETA_PERIOD);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("TILESELECT([1])"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn hops_disabled_falls_back_to_decode() {
        let mut p = planner("nohops", TileGrid::SINGLE);
        p.options.use_hops = false;
        let q = scan("demo") >> Select::along(Dimension::T, 1.0, 3.0);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(!s.contains("GOPSELECT"), "{s}");
        assert!(s.contains("DECODE"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn self_concat_union_becomes_gopunion() {
        let p = planner("gopunion", TileGrid::SINGLE);
        let tlf = scan("demo");
        let q = union(
            vec![tlf.clone(), tlf >> Translate::time(4.0)],
            MergeFunction::Last,
        );
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("GOPUNION"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn overlapping_union_decodes() {
        let p = planner("overlap", TileGrid::SINGLE);
        let q = union(
            vec![scan("demo"), scan("demo") >> Translate::time(1.0)],
            MergeFunction::Last,
        );
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("UNION ["), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn device_placement_keeps_data_on_gpu() {
        let p = planner("gpu", TileGrid::SINGLE);
        let q = scan("demo")
            >> Map::builtin(BuiltinMap::Blur)
            >> Map::builtin(BuiltinMap::Sharpen)
            >> Encode::with(CodecKind::H264Sim);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        // Maps fused by the rewriter; one decode, one map, one encode,
        // all GPU, no transfers.
        assert!(s.contains("MAP [GPU]"), "{s}");
        assert!(s.contains("ENCODE [GPU]"), "{s}");
        assert!(!s.contains("TRANSFER"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn cpu_only_planner_uses_cpu() {
        let mut p = planner("cpuonly", TileGrid::SINGLE);
        p.options.use_gpu = false;
        let q = scan("demo") >> Map::builtin(BuiltinMap::Blur);
        let phys = p.plan(q.plan()).unwrap();
        assert!(phys.to_string().contains("MAP [CPU]"));
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn fpga_interpolate_gets_fpga_device_and_transfer() {
        let p = planner("fpga", TileGrid::SINGLE);
        let q = scan("demo")
            >> Map::builtin(BuiltinMap::Blur)
            >> Interpolate::udf(Arc::new(lightdb_exec::fpga::DepthMapFpga));
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("INTERPOLATE [FPGA]"), "{s}");
        assert!(s.contains("TRANSFER [FPGA]"), "GPU→FPGA transfer expected: {s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn tiling_store_gets_tileunion() {
        let p = planner("tileunion", TileGrid::SINGLE);
        let q = scan("demo")
            >> Partition::along(Dimension::T, 1.0)
                .and(Dimension::Theta, THETA_PERIOD / 2.0)
                .and(Dimension::Phi, PHI_MAX / 2.0)
            >> Subquery::new("adaptive", |_vol, part| {
                part >> Encode::quality(CodecKind::HevcSim, Quality::Low)
            })
            >> Store::named("out");
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("TILEUNION(2×2)"), "{s}");
        assert!(s.contains("SUBQUERY(adaptive)"), "{s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn ddl_statements_lower_directly() {
        let p = planner("ddl", TileGrid::SINGLE);
        assert!(matches!(
            p.plan(create("x").plan()).unwrap(),
            PhysicalPlan::CreateTlf { .. }
        ));
        assert!(matches!(p.plan(drop_tlf("x").plan()).unwrap(), PhysicalPlan::DropTlf { .. }));
        assert!(matches!(
            p.plan(create_index("x", vec![Dimension::X]).plan()).unwrap(),
            PhysicalPlan::CreateIndex { .. }
        ));
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn spatial_select_pushes_into_scan() {
        let p = planner("spatial", TileGrid::SINGLE);
        let q = scan("demo") >> Select::at_point(0.0, 0.0, 0.0);
        let phys = p.plan(q.plan()).unwrap();
        let s = phys.to_string();
        assert!(s.contains("spatial-filtered"), "{s}");
        assert!(!s.contains("DECODE"), "spatial-only select stays encoded: {s}");
        fs::remove_dir_all(p.catalog.root()).unwrap();
    }

    #[test]
    fn whole_tiles_helper() {
        use std::f64::consts::PI;
        let p = ScanParams {
            volume: Volume::everywhere(),
            fps: 30,
            gop_length: 30,
            grid: (4, 4),
            has_slab: false,
        };
        // φ ∈ [0, π/2) with full θ: the top two rows of four tiles.
        let pred = VolumePredicate::any().with(Dimension::Phi, Interval::new(0.0, PI / 2.0));
        let tiles = whole_tiles(&pred, &p).unwrap();
        assert_eq!(tiles, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Misaligned selection gets nothing.
        let pred = VolumePredicate::any().with(Dimension::Phi, Interval::new(0.0, 1.0));
        assert!(whole_tiles(&pred, &p).is_none());
    }
}
