//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary (bounded) inputs across the codec / container / engine
//! stack.

use lightdb_codec::{Decoder, Encoder, EncoderConfig, SequenceHeader, TileGrid, VideoStream};
use lightdb_container::{MetadataFile, TlfDescriptor, Track};
use lightdb_frame::stats::luma_psnr;
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::{Interval, Point3};
use proptest::prelude::*;

/// Deterministic pseudo-random frames from a seed.
fn frames_from_seed(seed: u64, n: usize, w: usize, h: usize) -> Vec<Frame> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let base = (next() % 200) as u8;
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = base
                        .wrapping_add(((x * 3 + y * 5) % 64) as u8)
                        .wrapping_add((next() % 8) as u8);
                    f.set(x, y, Yuv::new(v, 128, 128));
                }
            }
            f
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Encode → serialize → parse → decode is stable: the parsed
    /// stream decodes to exactly the same frames as the in-memory one.
    #[test]
    fn codec_serialization_is_transparent(
        seed in any::<u64>(),
        n in 1usize..8,
        qp in 4u8..48,
    ) {
        let frames = frames_from_seed(seed, n, 32, 32);
        let enc = Encoder::new(EncoderConfig { qp, gop_length: 3, fps: 3, ..Default::default() })
            .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let parsed = VideoStream::from_bytes(&stream.to_bytes()).unwrap();
        let a = Decoder::new().decode(&stream).unwrap();
        let b = Decoder::new().decode(&parsed).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Decoding individual tiles and stitching the pixels equals
    /// decoding the whole frame — tile independence.
    #[test]
    fn tiles_decode_independently(seed in any::<u64>(), qp in 8u8..40) {
        let frames = frames_from_seed(seed, 4, 64, 32);
        let enc = Encoder::new(EncoderConfig {
            qp,
            gop_length: 4,
            fps: 4,
            grid: TileGrid::new(2, 1),
            ..Default::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let whole = Decoder::new().decode(&stream).unwrap();
        // A tile alone, as `TILESELECT` runs it: extracted, then decoded
        // under its single-tile header.
        let tile_header = SequenceHeader { width: 32, grid: TileGrid::SINGLE, ..stream.header };
        for t in 0..2 {
            let tile_gop = stream.gops[0].extract_tile(t).unwrap();
            let tiles = Decoder::new().decode_gop(&tile_header, &tile_gop).unwrap();
            for (tf, wf) in tiles.iter().zip(whole.iter()) {
                prop_assert_eq!(tf, &wf.crop(t * 32, 0, 32, 32));
            }
        }
    }

    /// Reconstruction quality is monotone in QP (lower QP is never
    /// worse, within a tolerance window for quantiser rounding).
    #[test]
    fn quality_monotone_in_qp(seed in any::<u64>()) {
        let frames = frames_from_seed(seed, 1, 32, 32);
        let psnr_at = |qp: u8| {
            let enc = Encoder::new(EncoderConfig { qp, gop_length: 1, fps: 1, ..Default::default() })
                .unwrap();
            let s = enc.encode(&frames).unwrap();
            let d = Decoder::new().decode(&s).unwrap();
            luma_psnr(&frames[0], &d[0])
        };
        let hi = psnr_at(6);
        let lo = psnr_at(42);
        prop_assert!(hi + 0.5 >= lo, "QP 6 ({hi:.1} dB) must beat QP 42 ({lo:.1} dB)");
    }

    /// Container metadata roundtrips for arbitrary GOP index shapes.
    #[test]
    fn metadata_roundtrips(
        offsets in proptest::collection::vec((0u64..1_000_000, 1u64..500, 1u64..100_000), 1..20),
        version in 1u64..1000,
    ) {
        let mut start = 0u64;
        let gop_index: Vec<lightdb_container::GopIndexEntry> = offsets
            .iter()
            .map(|&(off, fc, len)| {
                let e = lightdb_container::GopIndexEntry {
                    start_frame: start,
                    frame_count: fc,
                    byte_offset: off,
                    byte_len: len,
                    crc32: 0,
                };
                start += fc;
                e
            })
            .collect();
        let track = Track {
            role: lightdb_container::TrackRole::Video,
            codec: lightdb_codec::CodecKind::HevcSim,
            projection: lightdb_geom::projection::ProjectionKind::Equirectangular,
            media_path: "stream0.lvc".into(),
            gop_index,
        };
        let tlf = TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 1.0), 0);
        let file = MetadataFile::new(version, vec![track], tlf).unwrap();
        prop_assert_eq!(MetadataFile::from_bytes(&file.to_bytes()).unwrap(), file);
    }

    /// GOP byte ranges always identify exactly the serialised GOPs.
    #[test]
    fn gop_ranges_are_exact(seed in any::<u64>(), gops in 1usize..5) {
        let frames = frames_from_seed(seed, gops * 2, 32, 32);
        let enc = Encoder::new(EncoderConfig { qp: 30, gop_length: 2, fps: 2, ..Default::default() })
            .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let bytes = stream.to_bytes();
        for (i, (off, len)) in stream.gop_byte_ranges().into_iter().enumerate() {
            let gop = lightdb_codec::gop::EncodedGop::from_bytes(&bytes[off..off + len]).unwrap();
            prop_assert_eq!(&gop, &stream.gops[i]);
        }
    }

    /// Truncating an encoded stream anywhere never panics the parser.
    #[test]
    fn truncation_never_panics(seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let frames = frames_from_seed(seed, 3, 32, 32);
        let enc = Encoder::new(EncoderConfig { qp: 30, gop_length: 3, fps: 3, ..Default::default() })
            .unwrap();
        let bytes = enc.encode(&frames).unwrap().to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Must return (Ok or Err), not panic.
        let _ = VideoStream::from_bytes(&bytes[..cut]);
    }

    /// Bit-flipping the payload never panics the decoder.
    #[test]
    fn bitflips_never_panic_decode(seed in any::<u64>(), flip_at in 0.1f64..0.95) {
        let frames = frames_from_seed(seed, 2, 32, 32);
        let enc = Encoder::new(EncoderConfig { qp: 24, gop_length: 2, fps: 2, ..Default::default() })
            .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let mut bytes = stream.to_bytes();
        let idx = ((bytes.len() as f64) * flip_at) as usize;
        bytes[idx] ^= 0x5a;
        if let Ok(parsed) = VideoStream::from_bytes(&bytes) {
            let _ = Decoder::new().decode(&parsed); // Ok or Err, no panic
        }
    }
}
