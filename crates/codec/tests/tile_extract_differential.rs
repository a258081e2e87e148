//! `EncodedGop::extract_tile_bytes` against the path it replaced on the
//! serving side, `from_bytes → extract_tile → to_bytes`: the walker
//! reads the tile index out of the serialised GOP and copies one tile;
//! the oracle parses all of them. Same bytes on every input the oracle
//! accepts, the same `CodecError` variant on every input it rejects.
//! CI runs this file in release mode too.

use lightdb_codec::{CodecError, EncodedFrame, EncodedGop, FrameType};

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

/// The parse → extract → serialise path, as the tile server ran it.
fn oracle(bytes: &[u8], tile: usize) -> Result<Vec<u8>, CodecError> {
    Ok(EncodedGop::from_bytes(bytes)?
        .extract_tile(tile)?
        .to_bytes())
}

/// Both `Ok` with equal bytes, or both the same error variant.
fn assert_parity(bytes: &[u8], tile: usize, what: &dyn Fn() -> String) {
    match (
        EncodedGop::extract_tile_bytes(bytes, tile),
        oracle(bytes, tile),
    ) {
        (Ok(walked), Ok(parsed)) => {
            assert_eq!(walked, parsed, "{}", what());
            assert_eq!(walked.capacity(), walked.len(), "exactly sized: {}", what());
        }
        (Err(w), Err(p)) => assert_eq!(
            std::mem::discriminant(&w),
            std::mem::discriminant(&p),
            "walker {w:?} vs parser {p:?}: {}",
            what()
        ),
        (w, p) => panic!("walker {w:?} vs parser {p:?}: {}", what()),
    }
}

/// A GOP of `frames` frames × `tiles` tiles whose payload lengths mix
/// empty, one byte, a few bytes, and lengths whose varint takes two
/// and three bytes.
fn seeded_gop(rng: &mut Rng, tiles: usize, frames: usize) -> EncodedGop {
    let frames = (0..frames)
        .map(|i| EncodedFrame {
            frame_type: if i == 0 {
                FrameType::Key
            } else {
                FrameType::Predicted
            },
            tiles: (0..tiles)
                .map(|_| {
                    let len = match rng.below(32) {
                        0..=3 => 0,
                        4..=7 => 1,
                        8..=10 => 127 + rng.below(3),
                        11 => 16_383 + rng.below(3),
                        _ => 2 + rng.below(60),
                    };
                    (0..len).map(|_| rng.next() as u8).collect()
                })
                .collect(),
        })
        .collect();
    EncodedGop { frames }
}

#[test]
fn walker_matches_parse_extract_serialise_on_seeded_gops() {
    let mut rng = Rng(0x711e);
    for side in 1..=8usize {
        let tiles = side * side;
        for frames in [1, 2, 3, 4, 7, 15, 30] {
            let gop = seeded_gop(&mut rng, tiles, frames);
            let bytes = gop.to_bytes();
            // Every tile, the first index out of range, and far out.
            for tile in (0..=tiles).chain([tiles + 7, usize::MAX]) {
                assert_parity(&bytes, tile, &|| {
                    format!("{side}x{side} x {frames}f tile {tile}")
                });
            }
        }
    }
}

#[test]
fn every_frame_count_from_one_to_thirty() {
    let mut rng = Rng(0xf4a3);
    for frames in 1..=30 {
        let bytes = seeded_gop(&mut rng, 4, frames).to_bytes();
        for tile in 0..=4 {
            assert_parity(&bytes, tile, &|| format!("{frames} frames tile {tile}"));
        }
    }
}

#[test]
fn empty_gop_and_ragged_tile_counts() {
    // No frames: every tile index "extracts" the empty GOP.
    let empty = EncodedGop::default().to_bytes();
    for tile in [0, 1, usize::MAX] {
        assert_parity(&empty, tile, &|| format!("empty GOP tile {tile}"));
    }
    // The serialisation lets frames disagree on their tile count; a
    // tile some frame lacks is `Incompatible` on both sides.
    let ragged = EncodedGop {
        frames: vec![
            EncodedFrame {
                frame_type: FrameType::Key,
                tiles: vec![vec![1], vec![2, 3], vec![]],
            },
            EncodedFrame {
                frame_type: FrameType::Predicted,
                tiles: vec![vec![4, 5]],
            },
            EncodedFrame {
                frame_type: FrameType::Predicted,
                tiles: vec![vec![], vec![6]],
            },
        ],
    }
    .to_bytes();
    for tile in 0..4 {
        assert_parity(&ragged, tile, &|| format!("ragged tile {tile}"));
    }
    assert!(matches!(
        EncodedGop::extract_tile_bytes(&ragged, 1),
        Err(CodecError::Incompatible(_))
    ));
}

/// A 2×2 × 3-frame GOP, small enough to mutilate exhaustively.
fn small_gop() -> Vec<u8> {
    seeded_gop(&mut Rng(0x5a11), 4, 3).to_bytes()
}

#[test]
fn parity_at_every_truncation_offset() {
    let bytes = small_gop();
    for cut in 0..=bytes.len() {
        for tile in [0, 3, 4] {
            assert_parity(&bytes[..cut], tile, &|| format!("cut at {cut} tile {tile}"));
        }
    }
}

#[test]
fn parity_at_every_single_bit_flip() {
    let bytes = small_gop();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        for tile in [0, 2, 3, 4] {
            assert_parity(&flipped, tile, &|| {
                format!("bit {bit} flipped, tile {tile}")
            });
        }
    }
}

#[test]
fn parity_with_trailing_bytes_and_a_predicted_first_frame() {
    let mut trailing = small_gop();
    trailing.push(0);
    assert_parity(&trailing, 0, &|| "trailing byte".into());
    let mut gop = seeded_gop(&mut Rng(9), 2, 2);
    gop.frames[0].frame_type = FrameType::Predicted;
    let bytes = gop.to_bytes();
    // Corrupt wins over an out-of-range tile, as in the parser.
    for tile in [0, 5] {
        assert_parity(&bytes, tile, &|| {
            format!("predicted first frame, tile {tile}")
        });
        assert!(matches!(
            EncodedGop::extract_tile_bytes(&bytes, tile),
            Err(CodecError::Corrupt(_))
        ));
    }
}
