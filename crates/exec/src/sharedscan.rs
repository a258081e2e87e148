//! Shared scans: a process-wide cache of *decoded* GOPs with
//! single-flight decoding.
//!
//! The buffer pool already coalesces concurrent disk reads of one GOP
//! (`storage::bufferpool`), but N concurrent queries scanning the
//! same TLF range still paid N decodes of every GOP — and DECODE is
//! where nearly all query time goes (PAPER.md §5). A [`SharedDecode`]
//! puts the decode stage behind a
//! [`lightdb_storage::lru::SingleFlightLru`]: concurrent decodes of the
//! same encoded GOP coalesce into one, and the decoded frames are kept
//! in a small byte-bounded LRU so closely trailing scans hit outright.
//! One shard: an entry is megabytes of frames, a few dozen fit, and
//! splitting the budget would only make more of them oversized.
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
use crate::frameops::decode_frames;
use crate::metrics::{counters, Metrics};
use crate::parallel::Parallelism;
use crate::query_ctx::QueryCtx;
use crate::Result;
use lightdb_codec::{EncodedGop, SequenceHeader};
use lightdb_frame::Frame;
use lightdb_storage::lru::{SingleFlightLru, Source};
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
    fn for_gop(header: &SequenceHeader, gop: &EncodedGop) -> DecodeKey {
        // The header participates because decode semantics depend on
        // it (codec, geometry, tile grid); the device does not, since
        // every device decodes through the one codec path, so CPU- and
        // GPU-placed scans of the same bytes share one decode. Each
        // field is folded in at a fixed width, so no two headers run
        // together; then the GOP's serialised bytes, which spell out
        // frame types and the tile lengths that delimit the payloads.
        // One pass, nothing built: the key never leaves the process.
        let mut h = DoubleFnv(0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142);
        h.write(&[header.codec.to_byte()]);
        for field in [
            header.width,
            header.height,
            header.fps as usize,
            header.gop_length,
            header.grid.cols,
            header.grid.rows,
        ] {
            h.write(&(field as u64).to_le_bytes());
        }
        h.write(gop.as_bytes());
        DecodeKey { h1: h.0, h2: h.1, len: gop.as_bytes().len() }
    }
}

/// The shared decoded-GOP facility: single-flight decode plus a
/// byte-bounded LRU of decoded frames. One per engine, shared by
/// every session; an executor without one decodes privately, exactly
/// as before.
#[derive(Debug)]
pub struct SharedDecode {
    lru: SingleFlightLru<DecodeKey, Arc<Vec<Frame>>>,
}

impl SharedDecode {
    /// A cache bounded by `budget_bytes` of decoded frame data.
    pub fn new(budget_bytes: usize) -> SharedDecode {
        SharedDecode { lru: SingleFlightLru::new(budget_bytes, 1) }
    }

    /// Decoded bytes currently resident (for tests / introspection).
    pub fn resident_bytes(&self) -> usize {
        self.lru.resident_bytes()
    }

    /// Number of cached decoded GOPs.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Decodes `chunk` through the shared cache: a cached decode of
    /// the same bytes is reused (bumping `shared_scan.hits`), a fresh
    /// decode runs under single-flight so concurrent scans of the
    /// same GOP decode it exactly once (`shared_scan.decodes`), on up
    /// to `budget.threads()` threads.
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
        budget: Parallelism,
    ) -> Result<Chunk> {
        let ChunkPayload::Encoded { header, ref gop } = chunk.payload else {
            return Ok(chunk); // already decoded
        };
        let key = DecodeKey::for_gop(&header, gop);
        // A leader keeps the frames it decoded and publishes a copy,
        // made before the publication evicts anything. Freeing the
        // victim's megabytes first and copying afterwards cost
        // `decode_map` a third of its throughput (10.0 -> 13.3 ms per
        // query, peak RSS 8 % lower: the freed memory goes back to the
        // system and is faulted in again).
        let mut decoded = None;
        let served = self.lru.get_or_compute(&key, &|| ctx.check().err(), || {
            let frames = decode_frames(&header, gop, metrics, budget)?;
            let bytes = frames.iter().map(|f| f.width() * f.height() * 3 / 2).sum();
            let shared = Arc::new(frames.clone());
            decoded = Some(frames);
            Ok((shared, bytes))
        })?;
        metrics.bump(match served.source {
            Source::Miss => counters::SHARED_SCAN_DECODES,
            Source::Hit | Source::Coalesced => counters::SHARED_SCAN_HITS,
        });
        metrics.add_all([(counters::SHARED_SCAN_EVICTIONS, served.evicted)]);
        // Everyone else clones the frames out of the cache, so
        // downstream operators can mutate them freely.
        let frames = decoded.unwrap_or_else(|| (*served.value).clone());
        Ok(Chunk { payload: ChunkPayload::Decoded { frames, device }, ..chunk })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::StreamInfo;
    use crate::frameops::decode_one;
    use crate::ExecError;
    use lightdb_codec::encoder::EncoderConfig;
    use lightdb_codec::{CodecKind, Encoder, TileGrid};
    use lightdb_frame::Yuv;
    use lightdb_geom::{Interval, Volume};

    const SERIAL: Parallelism = Parallelism::SERIAL;

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
        let a = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        let b = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        let fresh = decode_one(encoded_chunk(0, 40), Device::Cpu, &m, SERIAL).unwrap();
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
        shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        shared.decode(encoded_chunk(1, 90), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        assert_eq!(shared.len(), 2);
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), 2);
        assert_eq!(m.counter(counters::SHARED_SCAN_HITS), 0);
    }

    /// The key reads the GOP in place; what the serialised form told
    /// apart — where one tile ends and the next begins, what kind of
    /// frame the bytes belong to — it must still tell apart.
    #[test]
    fn key_separates_tile_boundaries_and_frame_types() {
        use lightdb_codec::{EncodedFrame, FrameType};
        let header = match encoded_chunk(0, 40).payload {
            ChunkPayload::Encoded { header, .. } => header,
            _ => unreachable!(),
        };
        let gop = |frame_types: &[FrameType], tiles: &[&[u8]]| {
            let frames: Vec<EncodedFrame> = frame_types
                .iter()
                .map(|&frame_type| EncodedFrame {
                    frame_type,
                    tiles: tiles.iter().map(|t| t.to_vec()).collect(),
                })
                .collect();
            EncodedGop::from_frames(&frames).expect("well-formed GOP")
        };
        let key = |g: &EncodedGop| DecodeKey::for_gop(&header, g);
        let (k, p) = (FrameType::Key, FrameType::Predicted);
        let base = gop(&[k, k], &[b"ab", b"c"]);
        assert_eq!(key(&base), key(&base.clone()));
        for other in [
            gop(&[k, k], &[b"a", b"bc"]),
            gop(&[k, k], &[b"abc"]),
            gop(&[k, p], &[b"ab", b"c"]),
            gop(&[k, k], &[b"ab", b"d"]),
        ] {
            assert_ne!(key(&base), key(&other), "{other:?}");
        }
        let wider = SequenceHeader { width: header.width + 16, ..header };
        assert_ne!(key(&base), DecodeKey::for_gop(&wider, &base));
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
                    let ctx = QueryCtx::unbounded();
                    let c = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
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
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        shared.decode(encoded_chunk(1, 60), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        // Touch 0 so 1 is the LRU victim.
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        shared.decode(encoded_chunk(2, 110), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        assert_eq!(m.counter(counters::SHARED_SCAN_EVICTIONS), 1);
        assert!(shared.resident_bytes() <= 13_000);
        // 0 must still hit; 1 must re-decode.
        shared.decode(encoded_chunk(0, 10), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        let before = m.counter(counters::SHARED_SCAN_DECODES);
        shared.decode(encoded_chunk(1, 60), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), before + 1);
    }

    #[test]
    fn cancelled_query_does_not_park_on_foreign_decode() {
        use std::sync::Barrier;
        let shared = SharedDecode::new(DEFAULT_BUDGET_BYTES);
        let m = Metrics::new();
        // Leaders decode unconditionally (cancellation is honoured by
        // the chunk pipeline before entry); the follower path is what
        // polls. Park a leader on the GOP's flight, then decode the
        // same GOP from a cancelled query.
        let chunk = encoded_chunk(0, 40);
        let ChunkPayload::Encoded { header, ref gop } = chunk.payload else { unreachable!() };
        let key = DecodeKey::for_gop(&header, gop);
        let (leading, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let parked = shared.lru.get_or_compute(&key, &|| None, || {
                    leading.wait();
                    release.wait();
                    Err(ExecError::Other("leader gives up".into()))
                });
                assert!(parked.is_err());
            });
            leading.wait();
            let ctx = QueryCtx::unbounded();
            ctx.cancel_token().cancel();
            let r = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL);
            assert!(matches!(r, Err(ExecError::Cancelled)), "{r:?}");
            release.wait();
        });
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), 0);
        assert!(shared.is_empty());
    }

    /// A decode too large for the budget is served and not kept.
    #[test]
    fn oversized_decode_is_served_but_never_resident() {
        let shared = SharedDecode::new(6_000); // one GOP decodes to 6144 bytes
        let m = Metrics::new();
        let ctx = QueryCtx::unbounded();
        let a = shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        assert!(matches!(a.payload, ChunkPayload::Decoded { .. }));
        assert!(shared.is_empty() && shared.resident_bytes() == 0);
        assert_eq!(m.counter(counters::SHARED_SCAN_EVICTIONS), 1);
        shared.decode(encoded_chunk(0, 40), Device::Cpu, &m, &ctx, SERIAL).unwrap();
        assert_eq!(m.counter(counters::SHARED_SCAN_DECODES), 2);
    }
}
