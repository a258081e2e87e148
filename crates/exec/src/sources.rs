//! Chunk sources: catalog scans and external-file decodes.

use crate::chunk::{Chunk, ChunkPayload, SlabInfo, StreamInfo};
use crate::metrics::{counters, Metrics};
use crate::query_ctx::QueryCtx;
use crate::{ChunkStream, ExecError, ReadPolicy, Result};
use crate::hops::tile_volume;
use lightdb_codec::{
    CodecError, EncodedGop, Encoder, EncoderConfig, SequenceHeader, TileGrid, VideoStream,
};
use lightdb_container::{GopIndexEntry, TlfBody, TlfDescriptor, Track, TrackRole};
use lightdb_geom::{Dimension, Interval, Point3, Volume};
use lightdb_index::persist::load_rtree;
use lightdb_index::rtree::Rect3;
use lightdb_index::IndexKey;
use lightdb_storage::bufferpool::GopKey;
use lightdb_storage::{BufferPool, Catalog, MediaStore, StoredTlf};
use std::collections::VecDeque;
use std::fs;
use std::sync::Arc;

/// One scannable stream resolved from a TLF descriptor: a part with
/// its track, header, GOP entries, and geometry.
struct ScanPart {
    part: usize,
    header: SequenceHeader,
    media_path: String,
    /// The part's key in the buffer pool, its media file resolved once
    /// with the part; [`stream_parts`] points it at each GOP it fetches
    /// instead of building a key per GOP.
    pool_key: GopKey,
    entries: Vec<GopIndexEntry>,
    volume: Volume,
    info: StreamInfo,
}

/// `SCAN`: reads a stored TLF as encoded chunks, using the GOP index
/// for temporal pushdown (only the needed byte ranges are read) and a
/// spatial R-tree — when one exists — for point pushdown across
/// multi-sphere TLFs. `read_policy` governs what happens when a GOP
/// fails checksum verification or cannot be parsed.
///
/// `tiles` is a `TILESELECT` over this scan: each GOP is emitted as the
/// listed tiles instead of whole (see `stream_parts`).
#[allow(clippy::too_many_arguments)]
pub fn scan_tlf(
    catalog: &Catalog,
    pool: &Arc<BufferPool>,
    name: &str,
    version: Option<u64>,
    t_frames: Option<(u64, u64)>,
    spatial: Option<Volume>,
    tiles: Option<Vec<usize>>,
    use_spatial_index: bool,
    read_policy: ReadPolicy,
    metrics: Metrics,
    ctx: QueryCtx,
) -> Result<ChunkStream> {
    ctx.check()?;
    let stored = metrics.time("SCAN", || catalog.read(name, version))?;
    let media = stored.media();
    let mut parts = Vec::new();
    let spatial_ids = if use_spatial_index {
        spatial_pushdown(catalog, pool, &stored, &spatial)?
    } else {
        None // fall back to the linear point filter
    };
    resolve_parts(&stored, &media, &stored.metadata.tlf, t_frames, &spatial, &spatial_ids, &mut parts)?;
    Ok(stream_parts(parts, tiles, media, pool.clone(), read_policy, metrics, ctx))
}

/// Looks up the spatial index (if any) and returns the matching point
/// ordinals, or `None` when no index exists (fall back to linear
/// filtering inside `resolve_parts`).
fn spatial_pushdown(
    catalog: &Catalog,
    pool: &Arc<BufferPool>,
    stored: &StoredTlf,
    spatial: &Option<Volume>,
) -> Result<Option<Vec<u64>>> {
    let Some(vol) = spatial else { return Ok(None) };
    let tree = match pool.get_rtree(&stored.name, stored.version) {
        Some(t) => t,
        None => {
            let key = IndexKey::new(stored.version, Dimension::SPATIAL.to_vec());
            let Some(bytes) = catalog.read_aux_file(&stored.name, &key.file_name())? else {
                return Ok(None);
            };
            let Some(tree) = load_rtree(&bytes) else {
                return Ok(None); // corrupt index: ignore it
            };
            let tree = Arc::new(tree);
            pool.put_rtree(&stored.name, stored.version, tree.clone());
            tree
        }
    };
    let rect = Rect3::from_volume(vol);
    let mut ids: Vec<u64> = tree.search(&rect).into_iter().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    Ok(Some(ids))
}

fn resolve_parts(
    stored: &StoredTlf,
    media: &MediaStore,
    tlf: &TlfDescriptor,
    t_frames: Option<(u64, u64)>,
    spatial: &Option<Volume>,
    spatial_ids: &Option<Vec<u64>>,
    out: &mut Vec<ScanPart>,
) -> Result<()> {
    match &tlf.body {
        TlfBody::Sphere360 { points } => {
            for (pi, p) in points.iter().enumerate() {
                // Spatial pushdown: indexed ids when available, else a
                // linear point-in-volume check.
                if let Some(ids) = spatial_ids {
                    // `ids` is sorted (spatial_pushdown sorts it).
                    if ids.binary_search(&(pi as u64)).is_err() {
                        continue;
                    }
                } else if let Some(v) = spatial {
                    if !v.x().contains(p.position.x)
                        || !v.y().contains(p.position.y)
                        || !v.z().contains(p.position.z)
                    {
                        continue;
                    }
                }
                let track = track_of(stored, p.video_track)?;
                let header = media.read_stream_header(&track.media_path)?;
                let entries = filter_entries(&track.gop_index, t_frames);
                let volume = Volume::sphere_at(
                    p.position.x,
                    p.position.y,
                    p.position.z,
                    tlf.volume.t(),
                );
                out.push(ScanPart {
                    part: out.len(),
                    header,
                    media_path: track.media_path.clone(),
                    pool_key: pool_key(media, track),
                    entries,
                    volume,
                    info: StreamInfo {
                        projection: track.projection,
                        position: p.position,
                        fps: header.fps,
                        slab: None,
                    },
                });
            }
        }
        TlfBody::Slab { slabs } => {
            for s in slabs {
                let track = track_of(stored, s.track)?;
                let header = media.read_stream_header(&track.media_path)?;
                let entries = filter_entries(&track.gop_index, t_frames);
                let centre = Point3::new(
                    (s.uv_min.x + s.uv_max.x) / 2.0,
                    (s.uv_min.y + s.uv_max.y) / 2.0,
                    (s.uv_min.z + s.uv_max.z) / 2.0,
                );
                if let Some(v) = spatial {
                    // A slab is relevant when its uv extent intersects.
                    let xiv = Interval::new(s.uv_min.x, s.uv_max.x);
                    let yiv = Interval::new(s.uv_min.y, s.uv_max.y);
                    if v.x().intersect(&xiv).is_none() || v.y().intersect(&yiv).is_none() {
                        continue;
                    }
                }
                let volume = tlf
                    .volume
                    .with(Dimension::X, Interval::new(s.uv_min.x, s.uv_max.x))
                    .with(Dimension::Y, Interval::new(s.uv_min.y, s.uv_max.y));
                out.push(ScanPart {
                    part: out.len(),
                    header,
                    media_path: track.media_path.clone(),
                    pool_key: pool_key(media, track),
                    entries,
                    volume,
                    info: StreamInfo {
                        projection: track.projection,
                        position: centre,
                        fps: header.fps,
                        slab: Some(SlabInfo {
                            nu: s.uv_samples.0 as usize,
                            nv: s.uv_samples.1 as usize,
                            uv_min: s.uv_min,
                            uv_max: s.uv_max,
                        }),
                    },
                });
            }
        }
        TlfBody::Composite { children } => {
            for c in children {
                resolve_parts(stored, media, c, t_frames, spatial, spatial_ids, out)?;
            }
        }
    }
    Ok(())
}

/// `track`'s media file in the buffer pool, at its first GOP.
fn pool_key(media: &MediaStore, track: &Track) -> GopKey {
    GopKey { media: media.path_of(&track.media_path).display().to_string(), gop: 0 }
}

fn track_of(stored: &StoredTlf, index: u32) -> Result<&Track> {
    stored
        .metadata
        .tracks
        .get(index as usize)
        .filter(|t| t.role == TrackRole::Video)
        .ok_or_else(|| ExecError::Other(format!("TLF references missing video track {index}")))
}

fn filter_entries(entries: &[GopIndexEntry], t_frames: Option<(u64, u64)>) -> Vec<GopIndexEntry> {
    match t_frames {
        None => entries.to_vec(),
        Some((first, last)) => entries
            .iter()
            .filter(|e| e.start_frame <= last && e.start_frame + e.frame_count > first)
            .copied()
            .collect(),
    }
}

/// Quantiser for substitute GOPs served under [`ReadPolicy::Degrade`]
/// — deliberately coarse: the content is a placeholder, so spend as
/// few bytes on it as possible.
const DEGRADE_QP: u8 = 50;

/// Builds a well-formed lower-fidelity stand-in for a damaged GOP:
/// `frame_count` held mid-grey frames encoded at [`DEGRADE_QP`] with
/// the damaged stream's exact parameters, so downstream assembly
/// (which insists on matching codec/dimensions/fps/grid) accepts it.
fn substitute_gop(header: &SequenceHeader, frame_count: usize) -> Result<EncodedGop> {
    let n = frame_count.max(1);
    let frames = vec![
        lightdb_frame::Frame::filled(header.width, header.height, lightdb_frame::Yuv::GREY);
        n
    ];
    let stream = Encoder::new(EncoderConfig {
        codec: header.codec,
        qp: DEGRADE_QP,
        grid: header.grid,
        gop_length: n,
        fps: header.fps,
    })?
    .encode(&frames)?;
    stream
        .gops
        .into_iter()
        .next()
        .ok_or_else(|| ExecError::Other("substitute encode produced no GOP".into()))
}

/// Where GOP `entry` of part `p` sits: its time index and volume.
fn place(p: &ScanPart, entry: &GopIndexEntry) -> (usize, Volume) {
    let fps = p.header.fps as f64;
    let t0 = p.volume.t().lo() + entry.start_frame as f64 / fps;
    let t1 = t0 + entry.frame_count as f64 / fps;
    let t_index = (entry.start_frame as usize) / p.header.gop_length.max(1);
    (t_index, p.volume.with(Dimension::T, Interval::new(t0, t1)))
}

/// GOP `entry` of part `p`, whole.
fn gop_chunk(p: &ScanPart, entry: &GopIndexEntry, gop: EncodedGop) -> Chunk {
    let (t_index, volume) = place(p, entry);
    Chunk {
        t_index,
        part: p.part,
        volume,
        info: p.info,
        payload: ChunkPayload::Encoded { header: p.header, gop },
    }
}

/// `TILESELECT` over GOP `entry` of part `p`: the requested tiles of its
/// serialised bytes, from one walk of the tile index, appended to `out`.
/// The k-th requested tile is part `p.part * tiles.len() + k`, with a
/// single-tile header and the tile's angular sub-volume. Errors come in
/// the chunk-domain operator's order: the walk's `Corrupt`, then — per
/// requested tile, in order — a tile outside the grid (`Domain`) or one
/// some frame lacks (`Incompatible`).
fn select_tiles(
    p: &ScanPart,
    entry: &GopIndexEntry,
    bytes: &[u8],
    tiles: &[usize],
    out: &mut VecDeque<Chunk>,
) -> Result<()> {
    let h = p.header;
    let in_grid = tiles.iter().position(|&t| t >= h.grid.tile_count()).unwrap_or(tiles.len());
    let gops = EncodedGop::extract_tiles(bytes, &tiles[..in_grid])?;
    if let Some(t) = tiles.get(in_grid) {
        return Err(ExecError::Domain(format!(
            "tile {t} out of range for {}×{} grid",
            h.grid.cols, h.grid.rows
        )));
    }
    let (t_index, volume) = place(p, entry);
    let (width, height) = h.grid.tile_dims(h.width, h.height);
    let header = SequenceHeader { width, height, grid: TileGrid::SINGLE, ..h };
    out.extend(gops.into_iter().zip(tiles).enumerate().map(|(k, (gop, &t))| Chunk {
        t_index,
        part: p.part * tiles.len() + k,
        volume: tile_volume(&volume, &h.grid, t),
        info: p.info,
        payload: ChunkPayload::Encoded { header, gop },
    }));
    Ok(())
}

/// Lazily streams a scan's parts in t-major order, pulling GOP bytes
/// through the buffer pool. Without `tiles`, each GOP leaves as the
/// pool's own buffer; with them, as those tiles ([`select_tiles`]). Under
/// [`ReadPolicy::SkipCorruptGops`], damaged GOPs (checksum or parse
/// failures) are skipped — up to the budget — and counted in
/// [`counters::SKIPPED_GOPS`] instead of failing the stream; under
/// [`ReadPolicy::Degrade`] they are replaced by well-formed
/// lower-fidelity substitutes counted in
/// [`counters::DEGRADED_GOPS`]. The query context is checked before
/// every GOP and polled while waiting on in-flight pool loads, so a
/// cancelled scan stops within one GOP.
#[allow(clippy::too_many_arguments)]
fn stream_parts(
    mut parts: Vec<ScanPart>,
    tiles: Option<Vec<usize>>,
    media: MediaStore,
    pool: Arc<BufferPool>,
    read_policy: ReadPolicy,
    metrics: Metrics,
    ctx: QueryCtx,
) -> ChunkStream {
    // Flatten (t, part) pairs in t-major order.
    let mut jobs: Vec<(usize, usize)> = Vec::new(); // (part idx, entry idx)
    let max_entries = parts.iter().map(|p| p.entries.len()).max().unwrap_or(0);
    for e in 0..max_entries {
        for (pi, p) in parts.iter().enumerate() {
            if e < p.entries.len() {
                jobs.push((pi, e));
            }
        }
    }
    let mut jobs = jobs.into_iter();
    // Damaged GOPs already handled, keyed by (media file, start
    // frame): a GOP reached through several parts (points sharing a
    // track) or re-read after a pool eviction must count against the
    // budget — and in the counter — exactly once.
    let mut damaged: std::collections::HashSet<(String, u64)> = std::collections::HashSet::new();
    // The current GOP's chunks not yet handed out: the GOP, or its tiles.
    let mut pending: VecDeque<Chunk> = VecDeque::new();
    Box::new(std::iter::from_fn(move || {
        loop {
            if let Some(c) = pending.pop_front() {
                return Some(Ok(c));
            }
            let (pi, ei) = jobs.next()?;
            let p = &mut parts[pi];
            let entry = p.entries[ei];
            p.pool_key.gop = entry.start_frame;
            let p = &*p;
            if let Err(e) = ctx.check() {
                return Some(Err(e));
            }
            let fetch = || {
                pool.get_gop_watch(&p.pool_key, &|| ctx.should_abort(), || {
                    media.read_gop_bytes(&p.media_path, &entry)
                })
            };
            let r = match &tiles {
                // The pool's bytes, checked once and shared: a GOP that
                // leaves whole is never parsed or copied.
                None => metrics.time("SCAN", || -> Result<()> {
                    let gop = EncodedGop::from_shared(fetch()?)?;
                    pending.push_back(gop_chunk(p, &entry, gop));
                    Ok(())
                }),
                Some(tiles) => metrics.time("SCAN", fetch).map_err(ExecError::from).and_then(
                    |bytes| {
                        metrics.time("TILESELECT", || {
                            select_tiles(p, &entry, &bytes, tiles, &mut pending)
                        })
                    },
                ),
            };
            let Err(e) = r else { continue };
            // An abort observed while waiting on the pool surfaces as
            // an opaque io error; re-check the context so callers see
            // the classified Cancelled / DeadlineExceeded instead.
            if let Err(ce) = ctx.check() {
                return Some(Err(ce));
            }
            // A GOP that parsed but lacks a requested tile is not
            // damage: the query asked for something the data does not
            // have, and fails as it did with TILESELECT downstream.
            if !e.is_data_corruption() || matches!(e, ExecError::Codec(CodecError::Incompatible(_)))
            {
                return Some(Err(e));
            }
            let gop_id = (p.media_path.clone(), entry.start_frame);
            match read_policy {
                ReadPolicy::Fail => return Some(Err(e)),
                ReadPolicy::SkipCorruptGops { max_skipped } => {
                    if damaged.contains(&gop_id) {
                        // Reached again through another part: already
                        // counted.
                        continue;
                    }
                    if damaged.len() >= max_skipped {
                        return Some(Err(e)); // budget exhausted
                    }
                    damaged.insert(gop_id);
                    metrics.bump(counters::SKIPPED_GOPS);
                }
                ReadPolicy::Degrade { max_degraded } => {
                    if !damaged.contains(&gop_id) {
                        if damaged.len() >= max_degraded {
                            return Some(Err(e)); // budget exhausted
                        }
                        damaged.insert(gop_id);
                        metrics.bump(counters::DEGRADED_GOPS);
                    }
                    // Unlike a skip, every part that reaches the damaged
                    // GOP still gets its chunks — output shape is
                    // preserved, tile by tile under TILESELECT.
                    let r = substitute_gop(&p.header, entry.frame_count as usize).and_then(|gop| {
                        match &tiles {
                            None => {
                                pending.push_back(gop_chunk(p, &entry, gop));
                                Ok(())
                            }
                            Some(tiles) => metrics.time("TILESELECT", || {
                                select_tiles(p, &entry, gop.as_bytes(), tiles, &mut pending)
                            }),
                        }
                    });
                    if let Err(se) = r {
                        return Some(Err(se));
                    }
                }
            }
        }
    }))
}

/// `DECODE(file)`: ingest an external encoded file as encoded chunks.
pub fn decode_file(path: &str, metrics: Metrics) -> Result<ChunkStream> {
    let stream = metrics.time("SCAN", || -> Result<VideoStream> {
        let bytes = fs::read(path)?;
        Ok(VideoStream::from_bytes(&bytes)?)
    })?;
    Ok(stream_from_video(stream))
}

/// Wraps an in-memory stream as chunks (used by `decode_file`, tests,
/// and the baselines).
pub fn stream_from_video(stream: VideoStream) -> ChunkStream {
    let header = stream.header;
    let fps = header.fps as f64;
    let mut start_frame = 0u64;
    let chunks: Vec<Chunk> = stream
        .gops
        .into_iter()
        .enumerate()
        .map(|(i, gop)| {
            let t0 = start_frame as f64 / fps;
            let t1 = t0 + gop.frame_count() as f64 / fps;
            start_frame += gop.frame_count() as u64;
            Chunk {
                t_index: i,
                part: 0,
                volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t0, t1)),
                info: StreamInfo::origin(header.fps),
                payload: ChunkPayload::Encoded { header, gop },
            }
        })
        .collect();
    Box::new(chunks.into_iter().map(Ok))
}

/// The distinguished TLF Ω: defined everywhere, null everywhere — an
/// empty chunk stream.
pub fn omega() -> ChunkStream {
    Box::new(std::iter::empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_container::SpherePoint;
    use lightdb_frame::{Frame, Yuv};
    use lightdb_geom::projection::ProjectionKind;
    use lightdb_storage::catalog::TrackWrite;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-src-{tag}-{}", std::process::id()));
        match fs::remove_dir_all(&d) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("failed to clear temp dir {}: {e}", d.display()),
        }
        d
    }

    fn store_demo(catalog: &Catalog, name: &str, seconds: usize) {
        let frames: Vec<Frame> = (0..seconds * 10)
            .map(|i| Frame::filled(32, 32, Yuv::new((i * 3 % 250) as u8, 128, 128)))
            .collect();
        let stream = Encoder::new(EncoderConfig {
            gop_length: 10,
            fps: 10,
            qp: 35,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let tlf = TlfDescriptor::single_sphere(
            Point3::ORIGIN,
            Interval::new(0.0, seconds as f64),
            0,
        );
        catalog
            .store(
                name,
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream,
                }],
                tlf,
            )
            .unwrap();
    }

    #[test]
    fn scan_streams_all_gops_in_order() {
        let catalog = Catalog::open(temp_root("scanall")).unwrap();
        store_demo(&catalog, "demo", 3);
        let pool = Arc::new(BufferPool::new(1 << 20));
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].t_index, 0);
        assert_eq!(chunks[2].t_index, 2);
        assert!((chunks[2].volume.t().lo() - 2.0).abs() < 1e-9);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn scan_with_temporal_pushdown_reads_one_gop() {
        let catalog = Catalog::open(temp_root("pushdown")).unwrap();
        store_demo(&catalog, "demo", 5);
        let pool = Arc::new(BufferPool::new(1 << 20));
        // Frames 30..=39 live in GOP 3 only.
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "demo", None, Some((30, 39)), None, None, true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].t_index, 3);
        // Exactly one GOP was pulled through the pool.
        assert_eq!(pool.stats().misses, 1);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn repeated_scans_hit_buffer_pool() {
        let catalog = Catalog::open(temp_root("poolhit")).unwrap();
        store_demo(&catalog, "demo", 2);
        let pool = Arc::new(BufferPool::new(1 << 20));
        for _ in 0..3 {
            let n = scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
                .unwrap()
                .count();
            assert_eq!(n, 2);
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn multi_point_scan_filters_spatially_without_index() {
        let catalog = Catalog::open(temp_root("multipoint")).unwrap();
        // Two spheres at different points sharing one track each.
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 2];
        let mk = || {
            Encoder::new(EncoderConfig { gop_length: 2, fps: 2, qp: 40, ..Default::default() })
                .unwrap()
                .encode(&frames)
                .unwrap()
        };
        let tlf = TlfDescriptor {
            volume: Volume::everywhere(),
            streaming: false,
            partition_spec: vec![],
            view_subgraph: None,
            body: TlfBody::Sphere360 {
                points: vec![
                    SpherePoint {
                        position: Point3::new(0.0, 0.0, 0.0),
                        video_track: 0,
                        depth_track: None,
                        right_eye_track: None,
                    },
                    SpherePoint {
                        position: Point3::new(10.0, 0.0, 0.0),
                        video_track: 1,
                        depth_track: None,
                        right_eye_track: None,
                    },
                ],
            },
        };
        catalog
            .store(
                "two",
                vec![
                    TrackWrite::New {
                        role: TrackRole::Video,
                        projection: ProjectionKind::Equirectangular,
                        stream: mk(),
                    },
                    TrackWrite::New {
                        role: TrackRole::Video,
                        projection: ProjectionKind::Equirectangular,
                        stream: mk(),
                    },
                ],
                tlf,
            )
            .unwrap();
        let pool = Arc::new(BufferPool::new(1 << 20));
        let all: Vec<Chunk> = scan_tlf(&catalog, &pool, "two", None, None, None, None, true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(all.len(), 2); // one GOP per point
        let near = Volume::everywhere()
            .with(Dimension::X, Interval::new(5.0, 15.0));
        let filtered: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "two", None, None, Some(near), None, true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        assert_eq!(filtered.len(), 1);
        assert!((filtered[0].info.position.x - 10.0).abs() < 1e-9);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn omega_is_empty() {
        assert_eq!(omega().count(), 0);
    }

    /// Two points sharing one video track scan the same GOPs; when a
    /// shared GOP is corrupt, the skip budget and `SKIPPED_GOPS`
    /// counter must see it once, not once per part.
    #[test]
    fn shared_track_corrupt_gop_counted_once() {
        let catalog = Catalog::open(temp_root("sharedskip")).unwrap();
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::filled(32, 32, Yuv::new((i * 50 + 20) as u8, 128, 128)))
            .collect();
        let stream = Encoder::new(EncoderConfig {
            gop_length: 2,
            fps: 2,
            qp: 35,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let mk_point = |x: f64| SpherePoint {
            position: Point3::new(x, 0.0, 0.0),
            video_track: 0, // both points share the one track
            depth_track: None,
            right_eye_track: None,
        };
        let tlf = TlfDescriptor {
            volume: Volume::everywhere(),
            streaming: false,
            partition_spec: vec![],
            view_subgraph: None,
            body: TlfBody::Sphere360 { points: vec![mk_point(0.0), mk_point(1.0)] },
        };
        catalog
            .store(
                "shared",
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream,
                }],
                tlf,
            )
            .unwrap();
        // Flip a byte inside the first GOP's range on disk.
        let stored = catalog.read("shared", None).unwrap();
        let track = &stored.metadata.tracks[0];
        let entry = &track.gop_index[0];
        let media = catalog.root().join("shared").join(&track.media_path);
        let mut bytes = fs::read(&media).unwrap();
        bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x01;
        fs::write(&media, &bytes).unwrap();

        let pool = Arc::new(BufferPool::new(1 << 20));
        let metrics = Metrics::new();
        let policy = ReadPolicy::SkipCorruptGops { max_skipped: 4 };
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "shared", None, None, None, None, true, policy, metrics.clone(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        // The damaged GOP disappears from both parts; the healthy GOP
        // survives in both.
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.t_index == 1));
        assert_eq!(
            metrics.counter(counters::SKIPPED_GOPS),
            1,
            "one damaged GOP must count once, not once per part"
        );
        // A budget of one unique GOP is enough for this scan.
        let metrics2 = Metrics::new();
        let policy1 = ReadPolicy::SkipCorruptGops { max_skipped: 1 };
        let n = scan_tlf(&catalog, &pool, "shared", None, None, None, None, true, policy1, metrics2.clone(), QueryCtx::unbounded())
            .unwrap()
            .filter(|c| c.is_ok())
            .count();
        assert_eq!(n, 2);
        assert_eq!(metrics2.counter(counters::SKIPPED_GOPS), 1);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    /// Under `ReadPolicy::Degrade`, a corrupt GOP is served as a
    /// well-formed substitute in *every* part that reaches it (output
    /// shape preserved), decodes cleanly, and counts against the
    /// budget — and in `DEGRADED_GOPS` — exactly once.
    #[test]
    fn degrade_policy_substitutes_corrupt_gops() {
        let catalog = Catalog::open(temp_root("degrade")).unwrap();
        store_demo(&catalog, "demo", 3);
        // Corrupt the middle GOP on disk.
        let stored = catalog.read("demo", None).unwrap();
        let track = &stored.metadata.tracks[0];
        let entry = &track.gop_index[1];
        let media = catalog.root().join("demo").join(&track.media_path);
        let mut bytes = fs::read(&media).unwrap();
        bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x01;
        fs::write(&media, &bytes).unwrap();

        let pool = Arc::new(BufferPool::new(1 << 20));
        let metrics = Metrics::new();
        let policy = ReadPolicy::Degrade { max_degraded: 1 };
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, policy, metrics.clone(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        // No GOP disappears: the damaged one arrives as a substitute.
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks.iter().map(|c| c.t_index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(metrics.counter(counters::DEGRADED_GOPS), 1);
        assert_eq!(metrics.counter(counters::SKIPPED_GOPS), 0);
        // The substitute decodes with the stream's own parameters.
        let ChunkPayload::Encoded { header, gop } = &chunks[1].payload else { panic!() };
        let frames = lightdb_codec::Decoder::new().decode_gop(header, gop).unwrap();
        assert_eq!(frames.len(), 10);
        assert_eq!((frames[0].width(), frames[0].height()), (32, 32));
        // A zero budget refuses to degrade and surfaces the error.
        let none = ReadPolicy::Degrade { max_degraded: 0 };
        let r: Vec<_> =
            scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, none, Metrics::new(), QueryCtx::unbounded())
                .unwrap()
                .collect();
        assert!(r.iter().any(|c| c.is_err()));
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    /// Transient read errors are retried inside the storage layer and
    /// must be invisible to the skip accounting: the scan succeeds and
    /// `SKIPPED_GOPS` stays zero.
    #[test]
    fn transient_retries_do_not_bump_skip_counter() {
        use lightdb_storage::faults::{self, sites, Fault};
        faults::reset();
        let catalog = Catalog::open(temp_root("transkip")).unwrap();
        store_demo(&catalog, "demo", 2);
        let pool = Arc::new(BufferPool::new(1 << 20));
        let metrics = Metrics::new();
        faults::arm_n(sites::MEDIA_READ, Fault::Transient(std::io::ErrorKind::Interrupted), 2);
        let policy = ReadPolicy::SkipCorruptGops { max_skipped: 4 };
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, policy, metrics.clone(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        faults::reset();
        assert_eq!(chunks.len(), 2, "retried reads must deliver every GOP");
        assert_eq!(
            metrics.counter(counters::SKIPPED_GOPS),
            0,
            "transient retries are not skips"
        );
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    /// The stream-header read goes through the media layer's bounded
    /// retry on a site of its own: a transient error there is invisible
    /// to the scan and to the skip accounting.
    #[test]
    fn transient_header_read_is_retried_and_skips_nothing() {
        use lightdb_storage::faults::{self, sites, Fault};
        faults::reset();
        let catalog = Catalog::open(temp_root("transheader")).unwrap();
        store_demo(&catalog, "demo", 2);
        let pool = Arc::new(BufferPool::new(1 << 20));
        let metrics = Metrics::new();
        faults::arm_n(sites::MEDIA_READ_HEADER, Fault::Transient(std::io::ErrorKind::Interrupted), 2);
        let policy = ReadPolicy::SkipCorruptGops { max_skipped: 4 };
        let chunks: Vec<Chunk> =
            scan_tlf(&catalog, &pool, "demo", None, None, None, None, true, policy, metrics.clone(), QueryCtx::unbounded())
                .unwrap()
                .map(|c| c.unwrap())
                .collect();
        let header_hits = faults::hits(sites::MEDIA_READ_HEADER);
        faults::reset();
        assert_eq!(chunks.len(), 2);
        assert_eq!(metrics.counter(counters::SKIPPED_GOPS), 0);
        assert_eq!(header_hits, 2, "both faulted attempts were retried");
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    /// A 64×32 stream tiled 2×1, `gops` GOPs of four frames.
    fn store_tiled(catalog: &Catalog, name: &str, gops: usize) -> lightdb_codec::VideoStream {
        let frames: Vec<Frame> = (0..4 * gops)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x + y + 7 * i) % 256) as u8, 128, 128));
                    }
                }
                f
            })
            .collect();
        let stream = Encoder::new(EncoderConfig {
            gop_length: 4,
            fps: 4,
            qp: 28,
            grid: lightdb_codec::TileGrid::new(2, 1),
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let tlf = TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, gops as f64), 0);
        catalog
            .store(
                name,
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream: stream.clone(),
                }],
                tlf,
            )
            .unwrap();
        stream
    }

    fn scan_tiles(catalog: &Catalog, pool: &Arc<BufferPool>, name: &str, tiles: Vec<usize>) -> ChunkStream {
        scan_tlf(catalog, pool, name, None, None, None, Some(tiles), true, ReadPolicy::default(), Metrics::new(), QueryCtx::unbounded())
            .unwrap()
    }

    #[test]
    fn tile_select_extract_decodes_to_tile_region() {
        let catalog = Catalog::open(temp_root("tileregion")).unwrap();
        let stream = store_tiled(&catalog, "tiled", 1);
        let full = lightdb_codec::Decoder::new().decode_gop(&stream.header, &stream.gops[0]).unwrap();
        let pool = Arc::new(BufferPool::new(1 << 20));
        let out: Vec<Chunk> = scan_tiles(&catalog, &pool, "tiled", vec![1]).map(|c| c.unwrap()).collect();
        assert_eq!(out.len(), 1);
        let ChunkPayload::Encoded { header, gop } = &out[0].payload else { panic!() };
        assert_eq!((header.width, header.height), (32, 32));
        let dec = lightdb_codec::Decoder::new().decode_gop(header, gop).unwrap();
        for (d, f) in dec.iter().zip(full.iter()) {
            assert_eq!(d, &f.crop(32, 0, 32, 32));
        }
        // Angular volume is the right half of the sphere.
        assert!((out[0].volume.theta().lo() - std::f64::consts::PI).abs() < 1e-9);
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn tile_select_then_tile_union_roundtrips_bytes() {
        let catalog = Catalog::open(temp_root("tileunion")).unwrap();
        let stream = store_tiled(&catalog, "tiled", 2);
        let pool = Arc::new(BufferPool::new(1 << 20));
        let left = scan_tiles(&catalog, &pool, "tiled", vec![0]);
        let right = scan_tiles(&catalog, &pool, "tiled", vec![1]);
        let out: Vec<Chunk> = crate::hops::tile_union(vec![left, right], 2, 1, Metrics::new())
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(out.len(), 2);
        for (c, orig) in out.iter().zip(stream.gops.iter()) {
            let ChunkPayload::Encoded { gop, header } = &c.payload else { panic!() };
            assert_eq!(gop, orig, "stitched GOP must be byte-identical");
            assert_eq!(header.grid, lightdb_codec::TileGrid::new(2, 1));
        }
        fs::remove_dir_all(catalog.root()).unwrap();
    }

    #[test]
    fn decode_file_roundtrip() {
        let dir = temp_root("decodefile");
        fs::create_dir_all(&dir).unwrap();
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 4];
        let stream = Encoder::new(EncoderConfig {
            gop_length: 2,
            fps: 2,
            qp: 40,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let path = dir.join("input.lvc");
        fs::write(&path, stream.to_bytes()).unwrap();
        let chunks: Vec<Chunk> = decode_file(path.to_str().unwrap(), Metrics::new())
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].t_index, 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
