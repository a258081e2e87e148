//! Shared scans: a process-wide cache of *decoded* GOPs with
//! single-flight decoding.
//!
//! The buffer pool already coalesces concurrent disk reads of one GOP
//! (`storage::bufferpool`), but N concurrent queries scanning the
//! same TLF range still paid N decodes of every GOP — and DECODE is
//! where nearly all query time goes (PAPER.md §5). A [`SharedDecode`]
//! generalises the pool's per-key single-flight to the decode stage:
//! concurrent decodes of the same encoded GOP coalesce into one, and
//! the decoded frames are kept in a small byte-bounded LRU so closely
//! trailing scans hit outright.
//!
//! Keys are **content-addressed** (a double-FNV digest of the
//! sequence header and the encoded payload), not provenance-based:
//! chunks carry no origin identity, and content addressing means two
//! queries reading the same bytes through different plans still
//! share. Decode output is deterministic for given input bytes, so a
//! cache hit is byte-identical to a fresh decode by construction.
//!
//! Degraded (prediction-only) decodes never touch the cache: their
//! output depends on deadline pressure, not just input bytes, and
//! caching them would let one query's emergency degrade leak into
//! another's full-fidelity scan.

use crate::chunk::{Chunk, ChunkPayload};
use crate::device::Device;
use crate::frameops::decode_one;
use crate::metrics::{counters, Metrics};
use crate::query_ctx::QueryCtx;
use crate::Result;
use lightdb_codec::{EncodedGop, SequenceHeader};
use lightdb_frame::Frame;
use lightdb_storage::bufferpool::{FlightJoin, SingleFlight};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default decoded-GOP cache budget: 32 MiB (a few dozen GOPs of the
/// evaluation datasets). Overridable per [`SharedDecode::new`];
/// engines read `LIGHTDB_SHARED_DECODE_MB`.
pub const DEFAULT_BUDGET_BYTES: usize = 32 << 20;

/// Content digest of one encoded GOP (+ its sequence parameters).
/// Two independent FNV-1a digests plus the payload length: a collision
/// requires both 64-bit digests *and* the length to agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodeKey {
    h1: u64,
    h2: u64,
    len: usize,
}

/// Two FNV-1a digests (different offsets) advanced together, one pass
/// over the bytes for both.
struct DoubleFnv(u64, u64);

impl DoubleFnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            self.1 = (self.1 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl DecodeKey {
    fn for_gop(header: &SequenceHeader, device: Device, gop: &EncodedGop) -> DecodeKey {
        // The header participates because decode semantics depend on
        // it (codec, geometry, tile grid), and the device because the
        // tiled-GPU decode path is a distinct implementation — frames
        // are expected identical, but the cache never has to assume
        // it. Debug formatting is a stable in-process serialisation
        // of these plain-data fields. The GOP is folded in as it lies
        // in memory — frame types, tile lengths (which delimit the
        // payloads that follow them), payload slices — not through a
        // serialised copy: the key never leaves the process.
        let head = format!("{header:?}/{device:?}");
        let mut h = DoubleFnv(0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142);
        h.write(head.as_bytes());
        let mut len = head.len();
        for frame in &gop.frames {
            h.write(&[frame.frame_type as u8]);
            h.write(&(frame.tiles.len() as u64).to_le_bytes());
            for tile in &frame.tiles {
                h.write(&(tile.len() as u64).to_le_bytes());
                h.write(tile);
                len += tile.len();
            }
        }
        DecodeKey { h1: h.0, h2: h.1, len }
    }
}

struct CacheEntry {
    frames: Arc<Vec<Frame>>,
    bytes: usize,
    /// Monotonic stamp for LRU ordering.
    stamp: u64,
}

struct CacheInner {
    map: HashMap<DecodeKey, CacheEntry>,
    bytes: usize,
    budget: usize,
    clock: u64,
}

impl CacheInner {
    /// Evicts LRU entries until within budget, never touching the
    /// just-inserted `protect` key unless it alone exceeds the budget
    /// (in which case it is served but not retained — mirroring the
    /// buffer pool's oversized-entry rule).
    fn evict_to_budget(&mut self, protect: &DecodeKey, metrics: &Metrics) {
        while self.bytes > self.budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| *k != protect)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                metrics.bump(counters::SHARED_SCAN_EVICTIONS);
            }
        }
        if self.bytes > self.budget {
            if let Some(e) = self.map.remove(protect) {
                self.bytes -= e.bytes;
                metrics.bump(counters::SHARED_SCAN_EVICTIONS);
            }
        }
    }
}

/// The shared decoded-GOP facility: single-flight decode plus a
/// byte-bounded LRU of decoded frames. One per engine, shared by
/// every session; an executor without one decodes privately, exactly
/// as before.
pub struct SharedDecode {
    flights: SingleFlight<DecodeKey>,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for SharedDecode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never locks: safe to call mid-critical-section.
        f.debug_struct("SharedDecode").finish_non_exhaustive()
    }
}

impl SharedDecode {
    /// A cache bounded by `budget_bytes` of decoded frame data.
    pub fn new(budget_bytes: usize) -> SharedDecode {
        SharedDecode {
            flights: SingleFlight::new(),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                budget: budget_bytes,
                clock: 0,
            }),
        }
    }

    /// Decoded bytes currently resident (for tests / introspection).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of cached decoded GOPs.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: &DecodeKey) -> Option<Arc<Vec<Frame>>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|e| {
            e.stamp = clock;
            e.frames.clone()
        })
    }

    fn publish(&self, key: DecodeKey, frames: Arc<Vec<Frame>>, metrics: &Metrics) {
        let bytes: usize = frames.iter().map(|f| f.width() * f.height() * 3 / 2).sum();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.map.insert(key, CacheEntry { frames, bytes, stamp: clock });
        inner.evict_to_budget(&key, metrics);
    }

    /// Decodes `chunk` through the shared cache: a cached decode of
    /// the same bytes is reused (bumping `shared_scan.hits`), a fresh
    /// decode runs under single-flight so concurrent scans of the
    /// same GOP decode it exactly once (`shared_scan.decodes`).
    ///
    /// Waiting on another scan's in-flight decode polls `ctx` each
    /// step, so cancellation/deadline is honoured within one poll. A
    /// failed leader's waiters retry and one becomes the new leader —
    /// errors propagate to every query, none is stranded.
    pub fn decode(
        &self,
        chunk: Chunk,
        device: Device,
        metrics: &Metrics,
        ctx: &QueryCtx,
    ) -> Result<Chunk> {
        let ChunkPayload::Encoded { header, ref gop } = chunk.payload else {
            return Ok(chunk); // already decoded
        };
        let key = DecodeKey::for_gop(&header, device, gop);
        loop {
            if let Some(frames) = self.lookup(&key) {
                metrics.bump(counters::SHARED_SCAN_HITS);
                // The hit replays the decode's cost-free result; the
                // frames are cloned out so downstream operators can
                // mutate them freely.
                return Ok(Chunk {
                    payload: ChunkPayload::Decoded { frames: (*frames).clone(), device },
                    ..chunk
                });
            }
            match self.flights.join(&key, &|| ctx.should_abort()) {
                FlightJoin::Leader(ticket) => {
                    // Double-check under leadership: a prior leader may
                    // have published between our lookup and our join
                    // (the cache and flight table are separate locks).
                    // Serving the hit here keeps "exactly one decode
                    // per GOP" true under that race.
                    if let Some(frames) = self.lookup(&key) {
                        metrics.bump(counters::SHARED_SCAN_HITS);
                        drop(ticket);
                        return Ok(Chunk {
                            payload: ChunkPayload::Decoded { frames: (*frames).clone(), device },
                            ..chunk
                        });
                    }
                    let decoded = decode_one(chunk, device, metrics)?;
                    metrics.bump(counters::SHARED_SCAN_DECODES);
                    if let ChunkPayload::Decoded { ref frames, .. } = decoded.payload {
                        self.publish(key, Arc::new(frames.clone()), metrics);
                    }
                    drop(ticket); // wakes followers onto the published entry
                    return Ok(decoded);
                }
                FlightJoin::Completed => continue,
                FlightJoin::Aborted => {
                    ctx.check()?;
                    // Raced: the abort condition cleared (or never
                    // maps to an error); retry the cache.
                    continue;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::StreamInfo;
    use lightdb_codec::encoder::EncoderConfig;
    use lightdb_codec::{CodecKind, Encoder, TileGrid};
    use lightdb_frame::Yuv;
    use lightdb_geom::{Interval, Volume};

    fn encoded_chunk(t: usize, shade: u8) -> Chunk {
        let frames: Vec<Frame> =
            (0..4).map(|i| Frame::filled(32, 32, Yuv::new(shade + i as u8, 90, 150))).collect();
        let cfg = EncoderConfig {
            codec: CodecKind::H264Sim,
            qp: 24,
            grid: TileGrid::SINGLE,
            gop_length: 4,
            fps: 4,
        };
        let stream = Encoder::new(cfg).expect("encoder").encode(&frames).expect("encode");
        let header = stream.header;
        let gop = stream.gops.into_iter().next().expect("one gop");
        Chunk {
            t_index: t,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t as f64, t as f64 + 1.0)),
            info: StreamInfo::origin(1),
            payload: ChunkPayload::Encoded { header, gop },
        }
    }

    #[test]
    fn hit_is_byte_identical_to_fresh_decode() {
        let shared = SharedDecode::new(DEFAULT_BUDGET_BYTES);
        let m = Metrics::new();
        let ctx = QueryCtx::unbounded();
        let a = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx).unwrap();
        let b = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx).unwrap();
        let fresh = decode_one(encoded_chunk(0, 40), Device::Cpu, &m).unwrap();
        let frames = |c: &Chunk| match &c.payload {
            ChunkPayload::Decoded { frames, .. } => frames.clone(),
            _ => panic!("expected decoded payload"),
        };
        assert_eq!(frames(&a), frames(&fresh));
        assert_eq!(frames(&b), frames(&fresh));
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), 1);
        assert_eq!(m.counter(counters::SHARED_SCAN_HITS), 1);
    }

    #[test]
    fn distinct_content_takes_distinct_entries() {
        let shared = SharedDecode::new(DEFAULT_BUDGET_BYTES);
        let m = Metrics::new();
        let ctx = QueryCtx::unbounded();
        shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx).unwrap();
        shared.decode(encoded_chunk(1, 90), Device::Cpu, &m, &ctx).unwrap();
        assert_eq!(shared.len(), 2);
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), 2);
        assert_eq!(m.counter(counters::SHARED_SCAN_HITS), 0);
    }

    /// The key reads the GOP in place; what the serialised form told
    /// apart — where one tile ends and the next begins, what kind of
    /// frame the bytes belong to — it must still tell apart.
    #[test]
    fn key_separates_tile_boundaries_frame_types_and_devices() {
        use lightdb_codec::{EncodedFrame, FrameType};
        let header = match encoded_chunk(0, 40).payload {
            ChunkPayload::Encoded { header, .. } => header,
            _ => unreachable!(),
        };
        let gop = |frame_type, tiles: &[&[u8]]| EncodedGop {
            frames: vec![EncodedFrame { frame_type, tiles: tiles.iter().map(|t| t.to_vec()).collect() }],
        };
        let key = |g: &EncodedGop, d| DecodeKey::for_gop(&header, d, g);
        let base = gop(FrameType::Key, &[b"ab", b"c"]);
        assert_eq!(key(&base, Device::Cpu), key(&base.clone(), Device::Cpu));
        for other in [
            gop(FrameType::Key, &[b"a", b"bc"]),
            gop(FrameType::Key, &[b"abc"]),
            gop(FrameType::Predicted, &[b"ab", b"c"]),
            gop(FrameType::Key, &[b"ab", b"d"]),
        ] {
            assert_ne!(key(&base, Device::Cpu), key(&other, Device::Cpu), "{other:?}");
        }
        assert_ne!(key(&base, Device::Cpu), key(&base, Device::Gpu));
    }

    #[test]
    fn concurrent_decodes_of_one_gop_coalesce() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let shared = Arc::new(SharedDecode::new(DEFAULT_BUDGET_BYTES));
        let m = Metrics::new();
        let barrier = Arc::new(Barrier::new(THREADS));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (shared, m, barrier) = (shared.clone(), m.clone(), barrier.clone());
                s.spawn(move || {
                    barrier.wait();
                    let c = shared
                        .decode(encoded_chunk(0, 40), Device::Cpu, &m, &QueryCtx::unbounded())
                        .unwrap();
                    assert!(matches!(c.payload, ChunkPayload::Decoded { .. }));
                });
            }
        });
        assert_eq!(
            m.counter(counters::SHARED_SCAN_DECODES),
            1,
            "concurrent decodes of identical bytes must run exactly once"
        );
        assert_eq!(m.counter(counters::SHARED_SCAN_HITS), THREADS as u64 - 1);
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn budget_evicts_lru() {
        // Each decoded GOP: 4 frames × 32×32×1.5 = 6144 bytes.
        let shared = SharedDecode::new(13_000); // fits two
        let m = Metrics::new();
        let ctx = QueryCtx::unbounded();
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx).unwrap();
        shared.decode(encoded_chunk(1, 60), Device::Cpu, &m, &ctx).unwrap();
        // Touch 0 so 1 is the LRU victim.
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx).unwrap();
        shared.decode(encoded_chunk(2, 110), Device::Cpu, &m, &ctx).unwrap();
        assert_eq!(m.counter(counters::SHARED_SCAN_EVICTIONS), 1);
        assert!(shared.resident_bytes() <= 13_000);
        // 0 must still hit; 1 must re-decode.
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx).unwrap();
        let before = m.counter(counters::SHARED_SCAN_DECODES);
        shared.decode(encoded_chunk(1, 60), Device::Cpu, &m, &ctx).unwrap();
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), before + 1);
    }

    #[test]
    fn cancelled_query_does_not_park_on_foreign_decode() {
        let shared = SharedDecode::new(DEFAULT_BUDGET_BYTES);
        let ctx = QueryCtx::unbounded();
        ctx.cancel_token().cancel();
        // The cache is empty so this query becomes the leader — the
        // cancel surfaces via decode_one's ctx-free path? No: leaders
        // decode unconditionally; cancellation is honoured by the
        // chunk pipeline before entry. Here we exercise the follower
        // path: park a flight, then join it cancelled.
        let key = DecodeKey::for_gop(
            &SequenceHeader {
                codec: CodecKind::H264Sim,
                width: 32,
                height: 32,
                fps: 4,
                gop_length: 4,
                grid: TileGrid::SINGLE,
            },
            Device::Cpu,
            &EncodedGop::default(),
        );
        let ticket = match shared.flights.join(&key, &|| false) {
            FlightJoin::Leader(t) => t,
            other => panic!("expected leadership, got {other:?}"),
        };
        let join = shared.flights.join(&key, &|| ctx.should_abort());
        assert!(matches!(join, FlightJoin::Aborted));
        drop(ticket);
    }
}
