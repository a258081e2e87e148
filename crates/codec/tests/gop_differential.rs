//! The byte-backed `EncodedGop` against the parsed tree it replaced
//! (`oracle/gop.rs`): on encoded corpus GOPs and on seeded GOPs of 1–16
//! tiles, 1–8 frames and payloads as short as nothing, every operation —
//! `from_bytes`, `to_bytes`, the frame view, `extract_tile`,
//! `extract_tiles` (duplicates and empty lists included),
//! `stitch_tiles` and the keyframe prefix — produces the oracle's bytes
//! or the oracle's error. And on every truncation and every single-bit
//! flip of a few small GOPs, the constructors accept exactly when the
//! oracle's parser does, with the same error variant. CI runs this file
//! in release mode too.

#[path = "oracle/gop.rs"]
mod oracle;

use lightdb_codec::{
    CodecError, CodecKind, EncodedFrame, EncodedGop, Encoder, EncoderConfig, FrameType, TileGrid,
};
use lightdb_frame::{Frame, Yuv};
use oracle::{ParsedFrame, ParsedGop};
use std::sync::Arc;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A GOP of `frames` frames × `tiles` tiles whose payloads are often
/// empty or one byte, sometimes long enough for a two-byte length.
fn seeded_gop(rng: &mut Rng, tiles: usize, frames: usize) -> ParsedGop {
    let frames = (0..frames)
        .map(|i| ParsedFrame {
            frame_type: if i == 0 { FrameType::Key } else { FrameType::Predicted },
            tiles: (0..tiles)
                .map(|_| {
                    let len = match rng.below(16) {
                        0..=4 => 0,
                        5..=7 => 1,
                        8 => 128 + rng.below(200),
                        _ => 2 + rng.below(40),
                    };
                    (0..len).map(|_| rng.next() as u8).collect()
                })
                .collect(),
        })
        .collect();
    ParsedGop { frames }
}

/// Every GOP of a small corpus of encoded streams: one tile and several,
/// both profiles, GOPs of one to five frames.
fn corpus() -> Vec<Vec<u8>> {
    let scene = |w: usize, h: usize, n: usize| -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let v = (((x + 3 * i) as f64 / 9.0).sin() * 60.0 + 128.0) as u8;
                        f.set(x, y, Yuv::new(v, (x % 256) as u8, (y * 4 % 256) as u8));
                    }
                }
                f
            })
            .collect()
    };
    let cells = [
        (64, 32, 4, CodecKind::H264Sim, (1, 1), 2),
        (64, 64, 6, CodecKind::HevcSim, (2, 2), 3),
        (96, 48, 5, CodecKind::H264Sim, (3, 1), 5),
        (128, 64, 4, CodecKind::HevcSim, (4, 4), 4),
    ];
    let mut out = Vec::new();
    for (w, h, n, codec, (cols, rows), gop_length) in cells {
        let stream = Encoder::new(EncoderConfig {
            codec,
            qp: 24,
            grid: TileGrid::new(cols, rows),
            gop_length,
            ..Default::default()
        })
        .unwrap()
        .encode(&scene(w, h, n))
        .unwrap();
        out.extend(stream.gops.iter().map(EncodedGop::to_bytes));
    }
    out
}

/// The seeded GOPs: 1–16 tiles × 1–8 frames, two of each shape.
fn seeded() -> Vec<Vec<u8>> {
    let mut rng = Rng(0x6095);
    let mut out = Vec::new();
    for tiles in 1..=16 {
        for frames in 1..=8 {
            for _ in 0..2 {
                out.push(seeded_gop(&mut rng, tiles, frames).to_bytes());
            }
        }
    }
    out
}

/// `gop` holds what the oracle parsed: the same frames, types and tile
/// payloads through the frame view.
fn assert_same_frames(gop: &EncodedGop, parsed: &ParsedGop, what: &str) {
    assert_eq!(gop.frame_count(), parsed.frame_count(), "{what}");
    assert_eq!(gop.payload_bytes(), parsed.payload_bytes(), "{what}");
    assert_eq!(gop.frames().count(), parsed.frame_count(), "{what}");
    for (fi, (view, frame)) in gop.frames().zip(&parsed.frames).enumerate() {
        assert_eq!(view.frame_type(), frame.frame_type, "{what} frame {fi}");
        assert_eq!(view.tile_count(), frame.tiles.len(), "{what} frame {fi}");
        assert!(view.tiles().eq(frame.tiles.iter().map(Vec::as_slice)), "{what} frame {fi}");
        for (t, tile) in frame.tiles.iter().enumerate() {
            assert_eq!(view.tile(t), Some(tile.as_slice()), "{what} frame {fi} tile {t}");
        }
        assert_eq!(view.tile(frame.tiles.len()), None, "{what} frame {fi}");
    }
}

/// Every operation on one well-formed GOP against the oracle.
fn assert_matches_oracle(bytes: &[u8], rng: &mut Rng, what: &str) {
    let parsed = ParsedGop::from_bytes(bytes).unwrap();
    assert_eq!(parsed.to_bytes(), bytes, "{what}: inputs are canonical");
    let gop = EncodedGop::from_bytes(bytes).unwrap();
    assert_eq!(gop.as_bytes(), bytes, "{what}");
    assert_eq!(gop.to_bytes(), bytes, "{what}");
    assert_eq!(EncodedGop::from_shared(Arc::new(bytes.to_vec())).unwrap(), gop, "{what}");
    assert_same_frames(&gop, &parsed, what);
    assert_eq!(gop.first_frames(1).as_bytes(), parsed.keyframe().to_bytes(), "{what}");

    let tiles = parsed.frames.first().map_or(1, |f| f.tiles.len());
    let mut parts = Vec::new();
    for t in 0..=tiles {
        let want = parsed.extract_tile(t).map(|g| g.to_bytes());
        assert_eq!(gop.extract_tile(t).map(|g| g.to_bytes()), want, "{what} tile {t}");
        assert_eq!(EncodedGop::extract_tile_bytes(bytes, t), want, "{what} tile {t}");
        parts.extend(gop.extract_tile(t));
    }
    // Lists with repeats, out-of-grid tiles and nothing at all.
    let lists = [
        vec![],
        (0..tiles).collect(),
        (0..tiles).rev().collect(),
        (0..rng.below(tiles + 3)).map(|_| rng.below(tiles + 1)).collect::<Vec<_>>(),
        vec![0, 0],
    ];
    for list in &lists {
        let walked = EncodedGop::extract_tiles(bytes, list)
            .map(|gops| gops.iter().map(EncodedGop::to_bytes).collect::<Vec<_>>());
        let want = oracle::extract_tiles(bytes, list)
            .map(|gops| gops.iter().map(ParsedGop::to_bytes).collect::<Vec<_>>());
        assert_eq!(walked, want, "{what} tiles {list:?}");
    }

    // The extracted tiles stitch back into the GOP, and any selection of
    // them — shuffled, repeated — stitches as the oracle stitches it.
    let parsed_parts: Vec<ParsedGop> =
        parts.iter().map(|p| ParsedGop::from_bytes(p.as_bytes()).unwrap()).collect();
    if !parts.is_empty() {
        assert_eq!(EncodedGop::stitch_tiles(&parts).unwrap().as_bytes(), bytes, "{what}");
    }
    let pick: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(parts.len().max(1))).collect();
    let chosen: Vec<EncodedGop> = pick.iter().filter_map(|&i| parts.get(i).cloned()).collect();
    let chosen_parsed: Vec<ParsedGop> =
        pick.iter().filter_map(|&i| parsed_parts.get(i).cloned()).collect();
    assert_eq!(
        EncodedGop::stitch_tiles(&chosen).map(|g| g.to_bytes()),
        ParsedGop::stitch_tiles(&chosen_parsed).map(|g| g.to_bytes()),
        "{what} stitch {pick:?}"
    );
}

#[test]
fn every_operation_matches_the_oracle_on_corpus_gops() {
    let mut rng = Rng(0xc0);
    for (i, bytes) in corpus().iter().enumerate() {
        assert_matches_oracle(bytes, &mut rng, &format!("corpus GOP {i}"));
    }
}

#[test]
fn every_operation_matches_the_oracle_on_seeded_gops() {
    let mut rng = Rng(0x5eed);
    for (i, bytes) in seeded().iter().enumerate() {
        assert_matches_oracle(bytes, &mut rng, &format!("seeded GOP {i}"));
    }
    assert_matches_oracle(&ParsedGop::default().to_bytes(), &mut rng, "empty GOP");
}

#[test]
fn writers_serialise_as_the_oracle_does() {
    let mut rng = Rng(0x3417);
    for tiles in 1..=16 {
        let frames = 1 + rng.below(8);
        let parsed = seeded_gop(&mut rng, tiles, frames);
        let frames: Vec<EncodedFrame> = parsed
            .frames
            .iter()
            .map(|f| EncodedFrame { frame_type: f.frame_type, tiles: f.tiles.clone() })
            .collect();
        let gop = EncodedGop::from_frames(&frames).unwrap();
        assert_eq!(gop.as_bytes(), parsed.to_bytes(), "{tiles} tiles");
        // A GOP must begin with a keyframe however it is made.
        let mut headless = frames;
        headless[0].frame_type = FrameType::Predicted;
        assert!(matches!(EncodedGop::from_frames(&headless), Err(CodecError::Corrupt(_))));
    }
}

/// Stitching errors name the same part and frame as the oracle's.
#[test]
fn stitch_errors_match_the_oracle() {
    let single = |types: &[FrameType]| ParsedGop {
        frames: types
            .iter()
            .map(|&frame_type| ParsedFrame { frame_type, tiles: vec![vec![frame_type as u8]] })
            .collect(),
    };
    let (k, p) = (FrameType::Key, FrameType::Predicted);
    let cases: Vec<Vec<ParsedGop>> = vec![
        vec![],
        vec![single(&[k, p, p]), single(&[k, p])],
        vec![single(&[k, p]), seeded_gop(&mut Rng(1), 2, 2)],
        vec![single(&[k, p, p]), single(&[k, p, k]), single(&[k, k, p])],
    ];
    for parts in cases {
        let gops: Vec<EncodedGop> =
            parts.iter().map(|g| EncodedGop::from_bytes(&g.to_bytes()).unwrap()).collect();
        let got = EncodedGop::stitch_tiles(&gops).map(|g| g.to_bytes());
        let want = ParsedGop::stitch_tiles(&parts).map(|g| g.to_bytes());
        assert!(matches!(want, Err(CodecError::Incompatible(_))), "{want:?}");
        assert_eq!(got, want);
    }
}

/// Both constructors against the oracle's parser on one input: accepted
/// by all three or rejected by all three with one variant. An accepted
/// input is kept verbatim and holds the oracle's frames.
fn assert_hostile_parity(bytes: &[u8], what: &dyn Fn() -> String) {
    let parsed = ParsedGop::from_bytes(bytes);
    let copied = EncodedGop::from_bytes(bytes);
    let shared = EncodedGop::from_shared(Arc::new(bytes.to_vec()));
    match (&copied, &shared, &parsed) {
        (Ok(c), Ok(s), Ok(p)) => {
            assert_eq!(c.as_bytes(), bytes, "{}", what());
            assert_eq!(c, s, "{}", what());
            assert_same_frames(c, p, &what());
            assert_eq!(
                ParsedGop::from_bytes(c.first_frames(1).as_bytes()).as_ref(),
                Ok(&p.keyframe()),
                "{}",
                what()
            );
        }
        (Err(c), Err(s), Err(p)) => {
            assert_eq!(c, s, "{}", what());
            assert_eq!(
                std::mem::discriminant(c),
                std::mem::discriminant(p),
                "walker {c:?} vs parser {p:?}: {}",
                what()
            );
        }
        (c, s, p) => panic!("from_bytes {c:?}, from_shared {s:?}, parser {p:?}: {}", what()),
    }
}

/// Small GOPs to mutilate exhaustively: one tile and several, empty
/// payloads, a two-byte tile length.
fn small_gops() -> Vec<Vec<u8>> {
    let mut rng = Rng(0x5a11);
    vec![
        seeded_gop(&mut rng, 4, 3).to_bytes(),
        seeded_gop(&mut rng, 1, 2).to_bytes(),
        ParsedGop {
            frames: vec![
                ParsedFrame { frame_type: FrameType::Key, tiles: vec![vec![], vec![7; 130]] },
                ParsedFrame { frame_type: FrameType::Predicted, tiles: vec![vec![1], vec![]] },
            ],
        }
        .to_bytes(),
    ]
}

#[test]
fn constructors_accept_exactly_what_the_parser_accepts_at_every_truncation() {
    for (g, bytes) in small_gops().iter().enumerate() {
        for cut in 0..=bytes.len() {
            assert_hostile_parity(&bytes[..cut], &|| format!("GOP {g} cut at {cut}"));
        }
    }
}

#[test]
fn constructors_accept_exactly_what_the_parser_accepts_at_every_bit_flip() {
    for (g, bytes) in small_gops().iter().enumerate() {
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_hostile_parity(&flipped, &|| format!("GOP {g} bit {bit} flipped"));
        }
    }
}

/// The over-long varints `read_varint` accepts are kept as stored: a GOP
/// holding one round-trips verbatim, where the parsed tree re-encoded
/// it.
#[test]
fn over_long_varints_round_trip_verbatim() {
    // One key frame, one tile of two bytes; its frame length (5) written
    // in two bytes.
    let bytes = [1, 0x85, 0x00, 0, 1, 2, 0xaa, 0xbb];
    let gop = EncodedGop::from_bytes(&bytes).unwrap();
    assert_eq!(gop.to_bytes(), bytes);
    let parsed = ParsedGop::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.to_bytes(), [1, 5, 0, 1, 2, 0xaa, 0xbb]);
    assert_same_frames(&gop, &parsed, "over-long frame length");
    assert_eq!(gop.extract_tile(0).unwrap().as_bytes(), parsed.extract_tile(0).unwrap().to_bytes());
}
