//! The executor: interprets physical plans as chunk pipelines.

use crate::chunk::{Chunk, ChunkPayload, TimeGrouped};
use crate::frameops;
use crate::hops;
use crate::metrics::Metrics;
use crate::parallel::{par_flat_map_chunks_ctx, Parallelism};
use crate::plan::PhysicalPlan;
use crate::query_ctx::QueryCtx;
use crate::sources;
use crate::{ChunkStream, ExecError, ReadPolicy, Result};
use lightdb_storage::AdmitPolicy;
use lightdb_codec::{CodecKind, VideoStream};
use lightdb_container::{SpherePoint, TlfBody, TlfDescriptor};
use lightdb_core::udf::InterpFunction;
use lightdb_geom::projection::ProjectionKind;
use lightdb_geom::{Dimension, Volume};
use lightdb_index::persist::serialize_entries;
use lightdb_index::rtree::Rect3;
use lightdb_index::IndexKey;
use lightdb_storage::catalog::TrackWrite;
use lightdb_container::TrackRole;
use lightdb_storage::{BufferPool, Catalog};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of running a physical plan.
#[derive(Debug)]
pub enum QueryOutput {
    /// A `STORE` committed this version.
    Stored { name: String, version: u64 },
    /// The query produced encoded streams (one per output part).
    Encoded(Vec<VideoStream>),
    /// The query produced decoded frames (volume + frames per part,
    /// time-concatenated).
    Frames(Vec<(Volume, Vec<lightdb_frame::Frame>)>),
    /// DDL or other side-effect-only statement.
    Unit,
}

impl QueryOutput {
    /// Decodes (if necessary) and returns the output's frames, one
    /// entry per part. `Stored`/`Unit` outputs yield an empty vector.
    pub fn into_frame_parts(self) -> Result<Vec<Vec<lightdb_frame::Frame>>> {
        match self {
            QueryOutput::Frames(parts) => Ok(parts.into_iter().map(|(_, f)| f).collect()),
            QueryOutput::Encoded(streams) => streams
                .into_iter()
                .map(|s| lightdb_codec::Decoder::new().decode(&s).map_err(ExecError::from))
                .collect(),
            _ => Ok(Vec::new()),
        }
    }

    /// Total frames across all outputs (useful for FPS accounting).
    pub fn frame_count(&self) -> usize {
        match self {
            QueryOutput::Encoded(streams) => streams.iter().map(|s| s.frame_count()).sum(),
            QueryOutput::Frames(parts) => parts.iter().map(|(_, f)| f.len()).sum(),
            _ => 0,
        }
    }
}

/// Executes physical plans against a catalog.
#[derive(Clone)]
#[derive(Debug)]
pub struct Executor {
    pub catalog: Arc<Catalog>,
    pub pool: Arc<BufferPool>,
    pub metrics: Metrics,
    /// Whether scans may consult spatial R-tree index files (the
    /// optimizer's `use_indexes` switch; part filtering itself always
    /// happens — without the index it is a linear point scan).
    pub spatial_index: bool,
    /// What scans do when a stored GOP turns out to be corrupt.
    pub read_policy: ReadPolicy,
    /// Worker-thread budget for chunk-parallel operators (DECODE,
    /// ENCODE, MAP, and STORE's auto-encode). Defaults to
    /// [`Parallelism::from_env`] (`LIGHTDB_THREADS`); output is
    /// byte-identical at any setting.
    pub parallelism: Parallelism,
    /// Per-query deadline, cancellation and working-set declaration.
    /// Checked at every GOP/chunk boundary and polled inside timed
    /// pool waits, so a cancelled or expired query stops within one
    /// chunk of work.
    pub ctx: QueryCtx,
    /// What [`Executor::run`] does when the context declares a
    /// working set ([`QueryCtx::with_mem_estimate`]) that does not
    /// currently fit under the pool's admission limit.
    pub admit_policy: AdmitPolicy,
    /// Shared decoded-GOP cache (see
    /// [`crate::sharedscan::SharedDecode`]). `None` decodes
    /// privately, exactly as before shared scans existed; an engine
    /// sets one instance here for every session's executor so
    /// concurrent scans of the same TLF range decode each GOP once.
    pub shared_decode: Option<Arc<crate::sharedscan::SharedDecode>>,
    /// Session tag for admission accounting (server front-end);
    /// `None` for single-shot queries.
    pub session: Option<u64>,
}

impl Executor {
    pub fn new(catalog: Arc<Catalog>, pool: Arc<BufferPool>) -> Executor {
        Executor {
            catalog,
            pool,
            metrics: Metrics::new(),
            spatial_index: true,
            read_policy: ReadPolicy::default(),
            parallelism: Parallelism::from_env(),
            ctx: QueryCtx::unbounded(),
            admit_policy: AdmitPolicy::Block { timeout: std::time::Duration::from_secs(10) },
            shared_decode: None,
            session: None,
        }
    }

    /// Runs a plan to completion.
    pub fn run(&self, plan: &PhysicalPlan) -> Result<QueryOutput> {
        self.ctx.check()?;
        // Admission: a declared working set reserves pool budget for
        // the whole query; the RAII guard releases it on every exit
        // path. `Aborted` is refined into the precise Cancelled /
        // DeadlineExceeded by re-checking the context.
        let _admission = match self.ctx.mem_estimate() {
            None => None,
            Some(bytes) => {
                match self.pool.admit_for_session(
                    bytes,
                    self.admit_policy,
                    &|| self.ctx.should_abort(),
                    self.session,
                ) {
                    Ok(a) => Some(a),
                    Err(e) => {
                        self.ctx.check()?;
                        return Err(e.into());
                    }
                }
            }
        };
        match plan {
            PhysicalPlan::CreateTlf { name } => {
                let tlf = TlfDescriptor {
                    volume: Volume::everywhere(),
                    streaming: false,
                    partition_spec: vec![],
                    view_subgraph: None,
                    body: TlfBody::Sphere360 { points: vec![] },
                };
                self.catalog.create(name, tlf)?;
                Ok(QueryOutput::Unit)
            }
            PhysicalPlan::DropTlf { name } => {
                self.catalog.drop_tlf(name)?;
                self.pool.invalidate(name);
                Ok(QueryOutput::Unit)
            }
            PhysicalPlan::CreateIndex { name, dims } => self.create_index(name, dims),
            PhysicalPlan::DropIndex { name, dims } => self.drop_index(name, dims),
            PhysicalPlan::Store { input, name, view_subgraph } => {
                self.store(input, name, view_subgraph.clone())
            }
            _ => {
                let stream = self.build(plan, None)?;
                self.collect_output(stream)
            }
        }
    }

    /// Builds the chunk pipeline for a plan. `sub` binds
    /// `SubqueryInput` leaves when compiling subquery bodies.
    ///
    /// Every operator that takes one chunk at a time runs through
    /// [`Executor::drive`]: DECODE, ENCODE, MAP and SUBQUERY on the
    /// query's threads, the rest at [`Parallelism::SERIAL`].
    fn build(&self, plan: &PhysicalPlan, sub: Option<&Chunk>) -> Result<ChunkStream> {
        const SERIAL: Parallelism = Parallelism::SERIAL;
        let m = self.metrics.clone();
        Ok(match plan {
            PhysicalPlan::ScanTlf { .. } => self.scan(plan, None)?,
            PhysicalPlan::DecodeFile { path, .. } => sources::decode_file(path, m)?,
            PhysicalPlan::Omega { .. } => sources::omega(),
            PhysicalPlan::SubqueryInput => {
                let c = sub.ok_or_else(|| {
                    ExecError::Other("SubqueryInput outside a subquery".into())
                })?;
                Box::new(std::iter::once(Ok(c.clone())))
            }
            PhysicalPlan::ToFrames { input, device } => {
                let (device, ctx, shared) = (*device, self.ctx.clone(), self.shared_decode.clone());
                self.drive(input, sub, self.parallelism, move |c, budget| {
                    frameops::decode_chunk(c, device, &m, &ctx, shared.as_deref(), budget).map(Some)
                })?
            }
            PhysicalPlan::FromFrames { input, device, codec, qp } => {
                let (device, codec, qp) = (*device, *codec, *qp);
                self.drive(input, sub, self.parallelism, move |c, _| {
                    frameops::encode_chunk(c, device, codec, qp, &m).map(Some)
                })?
            }
            PhysicalPlan::Transfer { input, to } => {
                let to = *to;
                self.drive(input, sub, SERIAL, move |c, _| {
                    Ok(Some(frameops::transfer_chunk(c, to, &m)))
                })?
            }
            PhysicalPlan::GopSelect { input, t_frames } => {
                let t_frames = *t_frames;
                self.drive(input, sub, SERIAL, move |c, _| {
                    Ok(hops::gop_select_chunk(c, t_frames, &m))
                })?
            }
            PhysicalPlan::GopUnion { inputs } => {
                let streams = self.build_all(inputs, sub)?;
                hops::gop_union(streams, m)
            }
            // The planner only puts TILESELECT over a SCAN, and the
            // scan does it: each GOP's bytes are walked once for just
            // the requested tiles.
            PhysicalPlan::TileSelect { input, tiles } => self.scan(input, Some(tiles.clone()))?,
            PhysicalPlan::KeyframeSelect { input } => {
                self.drive(input, sub, SERIAL, move |c, _| {
                    hops::keyframe_select_chunk(c, &m).map(Some)
                })?
            }
            PhysicalPlan::TileUnion { inputs, cols, rows } => {
                let (cols, rows) = (*cols, *rows);
                if let [input] = inputs.as_slice() {
                    per_time_step(self.build(input, sub)?, move |group| {
                        hops::tile_union_group(group, cols, rows, &m)
                    })
                } else {
                    hops::tile_union(self.build_all(inputs, sub)?, cols, rows, m)
                }
            }
            PhysicalPlan::SelectFrames { input, predicate, .. } => {
                let predicate = *predicate;
                self.drive(input, sub, SERIAL, move |c, _| {
                    frameops::select_chunk(c, &predicate, &m)
                })?
            }
            PhysicalPlan::MapFrames { input, f, .. } => {
                let f = f.clone();
                self.drive(input, sub, self.parallelism, move |c, budget| {
                    frameops::map_chunk(c, &f, &m, budget).map(Some)
                })?
            }
            PhysicalPlan::InterpolateFrames { input, f, device } => match f {
                InterpFunction::Builtin(kind) => {
                    let kind = *kind;
                    self.drive(input, sub, SERIAL, move |c, _| {
                        frameops::interpolate_chunk(c, kind, &m).map(Some)
                    })?
                }
                InterpFunction::Custom(udf) => {
                    let (udf, device) = (udf.clone(), *device);
                    per_time_step(self.build(input, sub)?, move |group| {
                        frameops::synthesize_group(group, udf.as_ref(), device, &m)
                    })
                }
            },
            PhysicalPlan::DiscretizeFrames { input, steps, .. } => {
                let steps = steps.clone();
                self.drive(input, sub, SERIAL, move |c, _| {
                    frameops::discretize_chunk(c, &steps, &m).map(Some)
                })?
            }
            PhysicalPlan::PartitionChunks { input, spec } => {
                let spec = spec.clone();
                self.drive(input, sub, SERIAL, move |c, _| {
                    frameops::partition_chunk(c, &spec, &m)
                })?
            }
            PhysicalPlan::FlattenChunks { input } => {
                per_time_step(self.build(input, sub)?, move |group| {
                    frameops::flatten_group(group, &m)
                })
            }
            PhysicalPlan::UnionFrames { inputs, merge, .. } => {
                let streams = self.build_all(inputs, sub)?;
                frameops::union_frames(streams, merge.clone(), m)
            }
            PhysicalPlan::TranslateChunks { input, dx, dy, dz, dt } => {
                let shift = (*dx, *dy, *dz, *dt);
                self.drive(input, sub, SERIAL, move |c, _| {
                    Ok(Some(frameops::translate_chunk(c, shift, &m)))
                })?
            }
            PhysicalPlan::RotateFrames { input, dtheta, dphi, .. } => {
                let (dtheta, dphi) = (*dtheta, *dphi);
                self.drive(input, sub, SERIAL, move |c, _| {
                    frameops::rotate_chunk(c, dtheta, dphi, &m).map(Some)
                })?
            }
            PhysicalPlan::Subquery { input, body, label } => {
                let exec = self.clone();
                let body = body.clone();
                let label = label.clone();
                self.drive(input, sub, self.parallelism, move |partition, budget| {
                    exec.subquery_body(&body, &label, partition, budget)
                })?
            }
            PhysicalPlan::Store { .. }
            | PhysicalPlan::CreateTlf { .. }
            | PhysicalPlan::DropTlf { .. }
            | PhysicalPlan::CreateIndex { .. }
            | PhysicalPlan::DropIndex { .. } => {
                return Err(ExecError::Other(format!(
                    "{} must be the plan root",
                    plan.name()
                )))
            }
        })
    }

    /// Builds `input`'s pipeline and runs `f` over its chunks through
    /// the one operator driver, [`par_flat_map_chunks_ctx`], on up to
    /// `par` threads under the query's context.
    fn drive<I>(
        &self,
        input: &PhysicalPlan,
        sub: Option<&Chunk>,
        par: Parallelism,
        f: impl Fn(Chunk, Parallelism) -> Result<I> + Sync + 'static,
    ) -> Result<ChunkStream>
    where
        I: IntoIterator<Item = Chunk> + Send + 'static,
    {
        Ok(par_flat_map_chunks_ctx(self.build(input, sub)?, par, self.ctx.clone(), f))
    }

    /// `SCAN`, or with `tiles` the `TILESELECT` over it; anything but a
    /// `SCAN` under a `TILESELECT` is a plan this executor cannot run.
    fn scan(&self, plan: &PhysicalPlan, tiles: Option<Vec<usize>>) -> Result<ChunkStream> {
        let PhysicalPlan::ScanTlf { name, version, t_frames, spatial } = plan else {
            return Err(ExecError::Domain(format!(
                "TILESELECT reads a SCAN, not {}",
                plan.name()
            )));
        };
        sources::scan_tlf(
            &self.catalog,
            &self.pool,
            name,
            *version,
            *t_frames,
            *spatial,
            tiles,
            self.spatial_index,
            self.read_policy,
            self.metrics.clone(),
            self.ctx.clone(),
        )
    }

    fn build_all(&self, plans: &[PhysicalPlan], sub: Option<&Chunk>) -> Result<Vec<ChunkStream>> {
        plans.iter().map(|p| self.build(p, sub)).collect()
    }

    /// Runs a `SUBQUERY` body over one partition chunk, start to
    /// finish, on the calling thread: compile the body for the
    /// partition's volume, build its pipeline with `budget` worker
    /// threads, drain it. Every output keeps the partition's identity.
    fn subquery_body(
        &self,
        body: &crate::plan::CompiledSubquery,
        label: &str,
        partition: Chunk,
        budget: Parallelism,
    ) -> Result<Vec<Chunk>> {
        let plan = body(&partition.volume)
            .map_err(|e| ExecError::Other(format!("subquery {label}: {e}")))?;
        let exec = Executor { parallelism: budget, ..self.clone() };
        exec.build(&plan, Some(&partition))?
            .map(|out| out.map(|c| Chunk { part: partition.part, ..c }))
            .collect()
    }

    // ------------------------------------------------------------- sinks

    fn collect_output(&self, stream: ChunkStream) -> Result<QueryOutput> {
        let parts = collect_parts(stream, &self.ctx)?;
        if parts.is_empty() {
            return Ok(QueryOutput::Unit);
        }
        if parts.iter().all(|p| p.chunks.iter().all(Chunk::is_encoded)) {
            let streams = parts
                .into_iter()
                .map(|p| assemble_stream(p.chunks))
                .collect::<Result<Vec<_>>>()?;
            Ok(QueryOutput::Encoded(streams))
        } else {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                let mut frames = Vec::new();
                for c in p.chunks {
                    match c.payload {
                        ChunkPayload::Decoded { frames: f, .. } => frames.extend(f),
                        ChunkPayload::Encoded { header, gop } => {
                            // Mixed output: decode the stragglers.
                            frames.extend(
                                self.metrics.time("DECODE", || {
                                    lightdb_codec::Decoder::new().decode_gop(&header, &gop)
                                })?,
                            );
                        }
                    }
                }
                out.push((p.volume, frames));
            }
            Ok(QueryOutput::Frames(out))
        }
    }

    fn store(
        &self,
        input: &PhysicalPlan,
        name: &str,
        view_subgraph: Option<Vec<u8>>,
    ) -> Result<QueryOutput> {
        let stream = self.build(input, None)?;
        let parts = collect_parts(stream, &self.ctx)?;
        if parts.is_empty() {
            return Err(ExecError::Other("STORE of an empty result".into()));
        }
        let mut tracks = Vec::with_capacity(parts.len());
        let mut points = Vec::with_capacity(parts.len());
        let mut volume: Option<Volume> = None;
        for (ti, p) in parts.into_iter().enumerate() {
            // Auto-encode any decoded chunks (STORE persists encoded);
            // each chunk is an independent GOP, so fan out. Encoded
            // chunks pass through as they are.
            let encoded: Vec<Chunk> = crate::parallel::scatter(
                p.chunks,
                self.parallelism.threads(),
                |_, c| {
                    self.ctx.check()?;
                    let device = c.device();
                    frameops::encode_chunk(c, device, CodecKind::HevcSim, 20, &self.metrics)
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
            let stream = assemble_stream(encoded)?;
            tracks.push(TrackWrite::New {
                role: TrackRole::Video,
                projection: p.info_projection,
                stream,
            });
            points.push(SpherePoint {
                position: p.position,
                video_track: ti as u32,
                depth_track: None,
                right_eye_track: None,
            });
            volume = Some(match volume {
                None => p.volume,
                Some(v) => v.hull(&p.volume),
            });
        }
        let tlf = TlfDescriptor {
            volume: volume
                .ok_or_else(|| ExecError::Other("STORE produced no output chunks".into()))?,
            streaming: false,
            partition_spec: vec![],
            view_subgraph,
            body: TlfBody::Sphere360 { points },
        };
        let version =
            self.metrics.time("STORE", || self.catalog.store(name, tracks, tlf))?;
        Ok(QueryOutput::Stored { name: name.to_string(), version })
    }

    // ------------------------------------------------------------- DDL

    fn create_index(&self, name: &str, dims: &[Dimension]) -> Result<QueryOutput> {
        let spatial: Vec<Dimension> = dims.iter().copied().filter(|d| d.is_spatial()).collect();
        if spatial.is_empty() {
            // Temporal/angular indexes are embedded (GOP & tile
            // indexes); nothing external to build.
            return Ok(QueryOutput::Unit);
        }
        let stored = self.catalog.read(name, None)?;
        let mut entries: Vec<(Rect3, u64)> = Vec::new();
        collect_spatial_entries(&stored.metadata.tlf, &mut entries);
        let key = IndexKey::new(stored.version, Dimension::SPATIAL.to_vec());
        self.catalog.write_aux_file(name, &key.file_name(), &serialize_entries(&entries))?;
        Ok(QueryOutput::Unit)
    }

    fn drop_index(&self, name: &str, dims: &[Dimension]) -> Result<QueryOutput> {
        if dims.iter().any(|d| d.is_angular()) {
            // The tile index is used by the video decoders themselves;
            // dropping it is an error (Section 4.2).
            return Err(ExecError::Other(
                "cannot drop an angular index: it is used by video decoders".into(),
            ));
        }
        let stored = self.catalog.read(name, None)?;
        let key = IndexKey::new(stored.version, Dimension::SPATIAL.to_vec());
        self.catalog.remove_aux_file(name, &key.file_name())?;
        self.pool.invalidate_rtree(name);
        Ok(QueryOutput::Unit)
    }
}

fn collect_spatial_entries(tlf: &TlfDescriptor, out: &mut Vec<(Rect3, u64)>) {
    match &tlf.body {
        TlfBody::Sphere360 { points } => {
            let base = out.len() as u64;
            for (i, p) in points.iter().enumerate() {
                out.push((Rect3::point(p.position), base + i as u64));
            }
        }
        TlfBody::Slab { slabs } => {
            let base = out.len() as u64;
            for (i, s) in slabs.iter().enumerate() {
                out.push((
                    Rect3::new(
                        lightdb_geom::Point3::new(
                            s.uv_min.x.min(s.st_min.x),
                            s.uv_min.y.min(s.st_min.y),
                            s.uv_min.z.min(s.st_min.z),
                        ),
                        lightdb_geom::Point3::new(
                            s.uv_max.x.max(s.st_max.x),
                            s.uv_max.y.max(s.st_max.y),
                            s.uv_max.z.max(s.st_max.z),
                        ),
                    ),
                    base + i as u64,
                ));
            }
        }
        TlfBody::Composite { children } => {
            for c in children {
                collect_spatial_entries(c, out);
            }
        }
    }
}

/// One output part: its chunks in time order plus aggregate geometry.
struct OutPart {
    chunks: Vec<Chunk>,
    volume: Volume,
    position: lightdb_geom::Point3,
    info_projection: ProjectionKind,
}

/// Groups a result stream by output part, each part's chunks in
/// arrival order; parts come back sorted by id.
fn collect_parts(stream: ChunkStream, ctx: &QueryCtx) -> Result<Vec<OutPart>> {
    let mut parts: BTreeMap<usize, OutPart> = BTreeMap::new();
    for c in stream {
        ctx.check()?;
        let c = c?;
        match parts.entry(c.part) {
            Entry::Occupied(mut p) => {
                let p = p.get_mut();
                p.volume = p.volume.hull(&c.volume);
                p.chunks.push(c);
            }
            Entry::Vacant(slot) => {
                slot.insert(OutPart {
                    volume: c.volume,
                    position: c.info.position,
                    info_projection: c.info.projection,
                    chunks: vec![c],
                });
            }
        }
    }
    Ok(parts.into_values().collect())
}

/// One part's encoded chunks as a stream, each GOP moved — an encoded
/// sink never copies the bytes it returns or stores.
fn assemble_stream(chunks: Vec<Chunk>) -> Result<VideoStream> {
    let mut header = None;
    let mut gops = Vec::with_capacity(chunks.len());
    for c in chunks {
        let ChunkPayload::Encoded { header: h, gop } = c.payload else {
            return Err(ExecError::Domain("cannot assemble decoded chunks".into()));
        };
        match &header {
            None => header = Some(h),
            Some(prev) => {
                if (prev.codec, prev.width, prev.height, prev.fps, prev.grid)
                    != (h.codec, h.width, h.height, h.fps, h.grid)
                {
                    return Err(ExecError::Align(
                        "output chunks have incompatible stream parameters".into(),
                    ));
                }
            }
        }
        gops.push(gop);
    }
    let header = header.ok_or_else(|| ExecError::Other("empty output part".into()))?;
    Ok(VideoStream { header, gops })
}

/// Runs `f` over each time step's chunks: the driver of the operators
/// that see a whole time step at once (FLATTEN, UDF INTERPOLATE and
/// single-input TILEUNION).
fn per_time_step(
    input: ChunkStream,
    f: impl Fn(Vec<Chunk>) -> Result<Chunk> + 'static,
) -> ChunkStream {
    Box::new(TimeGrouped::new(input).map(move |group| group.and_then(&f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_container::TlfDescriptor;
    use lightdb_core::algebra::VolumePredicate;
    use lightdb_core::udf::{BuiltinMap, MapFunction};
    use lightdb_frame::{Frame, Yuv};
    use lightdb_geom::{Interval, Point3};
    use std::fs;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-exec-{tag}-{}", std::process::id()));
        match fs::remove_dir_all(&d) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("failed to clear temp dir {}: {e}", d.display()),
        }
        d
    }

    fn executor(tag: &str) -> Executor {
        let catalog = Arc::new(Catalog::open(temp_root(tag)).unwrap());
        Executor::new(catalog, Arc::new(BufferPool::new(8 << 20)))
    }

    fn seed_video(exec: &Executor, name: &str, seconds: usize, fps: u32) {
        let frames: Vec<Frame> = (0..seconds * fps as usize)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x * 2 + y * 3 + i * 5) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        let stream = Encoder::new(EncoderConfig {
            gop_length: fps as usize,
            fps,
            qp: 26,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        exec.catalog
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

    fn scan(name: &str) -> PhysicalPlan {
        PhysicalPlan::ScanTlf { name: name.into(), version: None, t_frames: None, spatial: None }
    }

    #[test]
    fn scan_decode_map_store_end_to_end() {
        let exec = executor("e2e");
        seed_video(&exec, "src", 2, 4);
        let plan = PhysicalPlan::Store {
            name: "out".into(),
            view_subgraph: None,
            input: Box::new(PhysicalPlan::MapFrames {
                f: MapFunction::Builtin(BuiltinMap::Grayscale),
                device: Device::Cpu,
                input: Box::new(PhysicalPlan::ToFrames {
                    input: Box::new(scan("src")),
                    device: Device::Cpu,
                }),
            }),
        };
        let out = exec.run(&plan).unwrap();
        let QueryOutput::Stored { name, version } = out else { panic!("{out:?}") };
        assert_eq!((name.as_str(), version), ("out", 1));
        // Read back and verify grayscale.
        let frames_plan = PhysicalPlan::ToFrames {
            input: Box::new(scan("out")),
            device: Device::Cpu,
        };
        let QueryOutput::Frames(parts) = exec.run(&frames_plan).unwrap() else { panic!() };
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.len(), 8);
        // All chroma neutral-ish (codec may wiggle by a step).
        let f = &parts[0].1[0];
        let c = f.get(10, 10);
        assert!((c.u as i32 - 128).abs() <= 8 && (c.v as i32 - 128).abs() <= 8);
        // Operator metrics were collected.
        assert!(exec.metrics.count("DECODE") >= 2);
        assert!(exec.metrics.count("MAP") >= 2);
        assert!(exec.metrics.count("STORE") == 1);
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }

    #[test]
    fn gop_select_plan_skips_decode() {
        let exec = executor("gopsel");
        seed_video(&exec, "src", 4, 4);
        let plan = PhysicalPlan::GopSelect {
            input: Box::new(PhysicalPlan::ScanTlf {
                name: "src".into(),
                version: None,
                t_frames: Some((8, 11)),
                spatial: None,
            }),
            t_frames: (8, 11),
        };
        let QueryOutput::Encoded(streams) = exec.run(&plan).unwrap() else { panic!() };
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].frame_count(), 4); // exactly one GOP
        assert_eq!(exec.metrics.count("DECODE"), 0, "no decode should have happened");
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }

    #[test]
    fn subquery_adaptive_encode_and_tile_union() {
        let exec = executor("tiling");
        seed_video(&exec, "src", 2, 2);
        // Partition each GOP into 2×2 tiles, encode tile 0 at high
        // quality, the rest low, stitch homomorphically, store.
        let body: crate::plan::CompiledSubquery = Arc::new(|vol: &Volume| {
            let hi = vol.theta().lo() < 1e-9 && vol.phi().lo() < 1e-9;
            Ok(PhysicalPlan::FromFrames {
                input: Box::new(PhysicalPlan::SubqueryInput),
                device: Device::Cpu,
                codec: CodecKind::HevcSim,
                qp: if hi { 8 } else { 42 },
            })
        });
        let plan = PhysicalPlan::Store {
            name: "tiled".into(),
            view_subgraph: None,
            input: Box::new(PhysicalPlan::TileUnion {
                cols: 2,
                rows: 2,
                inputs: vec![PhysicalPlan::Subquery {
                    label: "adaptive".into(),
                    body,
                    input: Box::new(PhysicalPlan::PartitionChunks {
                        spec: vec![
                            (Dimension::T, 1.0),
                            (Dimension::Theta, std::f64::consts::PI),
                            (Dimension::Phi, std::f64::consts::PI / 2.0),
                        ],
                        input: Box::new(PhysicalPlan::ToFrames {
                            input: Box::new(scan("src")),
                            device: Device::Cpu,
                        }),
                    }),
                }],
            }),
        };
        let QueryOutput::Stored { version, .. } = exec.run(&plan).unwrap() else { panic!() };
        assert_eq!(version, 1);
        assert!(exec.metrics.count("TILEUNION") >= 2);
        // The stored stream decodes and has full dimensions.
        let QueryOutput::Frames(parts) = exec
            .run(&PhysicalPlan::ToFrames { input: Box::new(scan("tiled")), device: Device::Cpu })
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(parts[0].1[0].width(), 64);
        assert_eq!(parts[0].1.len(), 4);
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }

    #[test]
    fn select_frames_plan_crops() {
        let exec = executor("selframes");
        seed_video(&exec, "src", 1, 4);
        let pred = VolumePredicate::any().with(
            Dimension::Phi,
            Interval::new(0.0, lightdb_geom::PHI_MAX / 2.0),
        );
        let plan = PhysicalPlan::SelectFrames {
            predicate: pred,
            device: Device::Cpu,
            input: Box::new(PhysicalPlan::ToFrames {
                input: Box::new(scan("src")),
                device: Device::Cpu,
            }),
        };
        let QueryOutput::Frames(parts) = exec.run(&plan).unwrap() else { panic!() };
        assert_eq!(parts[0].1[0].height(), 16);
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }

    #[test]
    fn ddl_lifecycle_and_spatial_index() {
        let exec = executor("ddl");
        seed_video(&exec, "src", 1, 2);
        exec.run(&PhysicalPlan::CreateIndex {
            name: "src".into(),
            dims: vec![Dimension::X, Dimension::Y, Dimension::Z],
        })
        .unwrap();
        // Index file exists.
        let key = IndexKey::new(1, Dimension::SPATIAL.to_vec());
        assert!(exec.catalog.read_aux_file("src", &key.file_name()).unwrap().is_some());
        // Dropping an angular index errors.
        assert!(exec
            .run(&PhysicalPlan::DropIndex { name: "src".into(), dims: vec![Dimension::Theta] })
            .is_err());
        // Dropping the spatial index works.
        exec.run(&PhysicalPlan::DropIndex {
            name: "src".into(),
            dims: vec![Dimension::X, Dimension::Y, Dimension::Z],
        })
        .unwrap();
        assert!(exec.catalog.read_aux_file("src", &key.file_name()).unwrap().is_none());
        // Create + Drop TLF.
        exec.run(&PhysicalPlan::CreateTlf { name: "fresh".into() }).unwrap();
        assert!(exec.catalog.exists("fresh"));
        exec.run(&PhysicalPlan::DropTlf { name: "fresh".into() }).unwrap();
        assert!(!exec.catalog.exists("fresh"));
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }

    #[test]
    fn gpu_plan_produces_same_frames_as_cpu() {
        let exec = executor("gpucpu");
        seed_video(&exec, "src", 1, 4);
        let mk = |device| PhysicalPlan::MapFrames {
            f: MapFunction::Builtin(BuiltinMap::Sharpen),
            device,
            input: Box::new(PhysicalPlan::ToFrames {
                input: Box::new(scan("src")),
                device,
            }),
        };
        let QueryOutput::Frames(cpu) = exec.run(&mk(Device::Cpu)).unwrap() else { panic!() };
        let QueryOutput::Frames(gpu) = exec.run(&mk(Device::Gpu)).unwrap() else { panic!() };
        assert_eq!(cpu[0].1, gpu[0].1);
        fs::remove_dir_all(exec.catalog.root()).unwrap();
    }
}
