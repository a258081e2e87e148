//! The one tile extractor against the parsed path it replaced
//! (`oracle/gop.rs`). `EncodedGop::extract_tile_bytes` — the tile
//! server's miss — against parse → extract → serialise: same bytes on
//! every input the oracle accepts, the same `CodecError` variant on
//! every input it rejects. `EncodedGop::extract_tiles` — the scan's
//! `TILESELECT` — against parse → extract once per requested tile:
//! equal GOPs, or the same variant naming the same tile. What the
//! oracle returns on each case set is pinned by a digest recorded
//! before the walker existed. CI runs this file in release mode too.

#[path = "oracle/gop.rs"]
mod oracle;

use lightdb_codec::{CodecError, EncodedGop, FrameType};
use oracle::{ParsedFrame, ParsedGop};

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

/// Both `Ok` with equal bytes, or both the same error variant — for the
/// serving side's bytes-to-bytes call and for `extract_tile` on a GOP
/// made from the same bytes.
fn assert_parity(bytes: &[u8], tile: usize, what: &dyn Fn() -> String) {
    let method = EncodedGop::from_bytes(bytes).and_then(|g| g.extract_tile(tile));
    match (&method, EncodedGop::extract_tile_bytes(bytes, tile)) {
        (Ok(gop), Ok(walked)) => assert_eq!(gop.as_bytes(), walked, "{}", what()),
        (Err(m), Err(w)) => assert_eq!(m, &w, "{}", what()),
        (m, w) => panic!("extract_tile {m:?} vs extract_tile_bytes {w:?}: {}", what()),
    }
    match (
        EncodedGop::extract_tile_bytes(bytes, tile),
        oracle::extract_tile_bytes(bytes, tile),
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
fn seeded_gop(rng: &mut Rng, tiles: usize, frames: usize) -> ParsedGop {
    let frames = (0..frames)
        .map(|i| ParsedFrame {
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
    ParsedGop { frames }
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
    let empty = ParsedGop::default().to_bytes();
    for tile in [0, 1, usize::MAX] {
        assert_parity(&empty, tile, &|| format!("empty GOP tile {tile}"));
    }
    let ragged = ragged_gop();
    for tile in 0..4 {
        assert_parity(&ragged, tile, &|| format!("ragged tile {tile}"));
    }
    assert!(matches!(
        EncodedGop::extract_tile_bytes(&ragged, 1),
        Err(CodecError::Incompatible(_))
    ));
}

/// Frames that disagree on their tile count, which the serialisation
/// allows: a tile some frame lacks is `Incompatible` on both sides.
fn ragged_gop() -> Vec<u8> {
    let frame = |frame_type, tiles: &[&[u8]]| ParsedFrame {
        frame_type,
        tiles: tiles.iter().map(|t| t.to_vec()).collect(),
    };
    ParsedGop {
        frames: vec![
            frame(FrameType::Key, &[&[1], &[2, 3], &[]]),
            frame(FrameType::Predicted, &[&[4, 5]]),
            frame(FrameType::Predicted, &[&[], &[6]]),
        ],
    }
    .to_bytes()
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

/// FNV-1a over what the oracle returned on a set of cases.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// One outcome: every GOP's bytes, or the error's variant and — for
    /// `Incompatible`, which names the tile — its message.
    fn outcome(&mut self, r: &Result<Vec<ParsedGop>, CodecError>) {
        match r {
            Ok(gops) => {
                self.add(&[0, gops.len() as u8]);
                gops.iter().for_each(|g| self.add(&g.to_bytes()));
            }
            Err(CodecError::Incompatible(m)) => {
                self.add(&[1]);
                self.add(m.as_bytes());
            }
            Err(CodecError::Corrupt(_)) => self.add(&[2]),
            Err(_) => self.add(&[3]),
        }
    }
}

/// Both `Ok` with equal GOPs, or both the same error variant, and for
/// `Incompatible` the same tile. Adds the oracle's outcome to `digest`.
fn assert_tiles_parity(
    bytes: &[u8],
    tiles: &[usize],
    digest: &mut Digest,
    what: &dyn Fn() -> String,
) {
    let parsed = oracle::extract_tiles(bytes, tiles);
    digest.outcome(&parsed);
    match (EncodedGop::extract_tiles(bytes, tiles), parsed) {
        (Ok(walked), Ok(parsed)) => {
            let parsed: Vec<Vec<u8>> = parsed.iter().map(ParsedGop::to_bytes).collect();
            let walked: Vec<&[u8]> = walked.iter().map(EncodedGop::as_bytes).collect();
            assert_eq!(walked, parsed, "{}", what());
        }
        (Err(CodecError::Incompatible(w)), Err(CodecError::Incompatible(p))) => {
            assert_eq!(w, p, "{}", what())
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

/// A request list over a grid of `tiles`: up to `tiles + 2` entries,
/// in any order, with repeats and indices past the grid.
fn random_request(rng: &mut Rng, tiles: usize) -> Vec<usize> {
    let len = rng.below(tiles + 3);
    (0..len)
        .map(|_| match rng.below(10) {
            0 => tiles + rng.below(3),
            _ => rng.below(tiles),
        })
        .collect()
}

#[test]
fn multi_tile_walker_matches_per_tile_extraction_on_seeded_gops() {
    let mut rng = Rng(0x3a7e);
    let mut digest = Digest::new();
    for side in 1..=8usize {
        let tiles = side * side;
        for frames in 1..=30 {
            let gop = seeded_gop(&mut rng, tiles, frames);
            let bytes = gop.to_bytes();
            let all: Vec<usize> = (0..tiles).collect();
            let reversed: Vec<usize> = all.iter().rev().copied().collect();
            let request = random_request(&mut rng, tiles);
            for list in [&all, &reversed, &request] {
                assert_tiles_parity(&bytes, list, &mut digest, &|| {
                    format!("{side}x{side} x {frames}f tiles {list:?}")
                });
            }
        }
    }
    assert_eq!(digest.0, SEEDED_DIGEST, "the oracle's outcomes moved");
}

#[test]
fn every_subset_of_a_two_by_two_grid() {
    let mut digest = Digest::new();
    let bytes = small_gop();
    for mask in 0..16usize {
        let subset: Vec<usize> = (0..4).filter(|t| mask >> t & 1 == 1).collect();
        assert_tiles_parity(&bytes, &subset, &mut digest, &|| {
            format!("subset {subset:?}")
        });
    }
    assert_eq!(digest.0, SUBSET_DIGEST, "the oracle's outcomes moved");
}

#[test]
fn random_requests_over_four_by_four_and_eight_by_eight() {
    let mut rng = Rng(0x4e8);
    let mut digest = Digest::new();
    for side in [4usize, 8] {
        let tiles = side * side;
        for frames in [1, 4, 9] {
            let bytes = seeded_gop(&mut rng, tiles, frames).to_bytes();
            let fixed: [Vec<usize>; 5] = [
                vec![],
                vec![3, 1, 2],
                vec![5, 5, 0, 5],
                vec![0, tiles, 1],
                vec![tiles + 4, 0],
            ];
            for list in fixed
                .iter()
                .cloned()
                .chain((0..40).map(|_| random_request(&mut rng, tiles)))
            {
                assert_tiles_parity(&bytes, &list, &mut digest, &|| {
                    format!("{side}x{side} x {frames}f tiles {list:?}")
                });
            }
        }
    }
    assert_eq!(digest.0, RANDOM_DIGEST, "the oracle's outcomes moved");
}

#[test]
fn multi_tile_parity_on_empty_ragged_and_predicted_first_gops() {
    let mut digest = Digest::new();
    let empty = EncodedGop::default().to_bytes();
    let ragged = ragged_gop();
    let mut predicted = seeded_gop(&mut Rng(9), 2, 2);
    predicted.frames[0].frame_type = FrameType::Predicted;
    let predicted = predicted.to_bytes();
    let mut trailing = small_gop();
    trailing.push(0);
    let lists: [&[usize]; 6] = [&[], &[0], &[0, 1], &[2, 0], &[1, 3, 2], &[0, 0]];
    for (name, bytes) in [
        ("empty", &empty),
        ("ragged", &ragged),
        ("predicted first", &predicted),
        ("trailing byte", &trailing),
    ] {
        for list in lists {
            assert_tiles_parity(bytes, list, &mut digest, &|| {
                format!("{name} tiles {list:?}")
            });
        }
    }
    // The first requested tile some frame lacks is the one named.
    assert!(matches!(
        EncodedGop::extract_tiles(&ragged, &[0, 2, 1]),
        Err(CodecError::Incompatible(m)) if m == "tile 2 out of range"
    ));
    assert_eq!(digest.0, EDGE_DIGEST, "the oracle's outcomes moved");
}

#[test]
fn multi_tile_parity_at_every_truncation_and_bit_flip() {
    let mut digest = Digest::new();
    let bytes = small_gop();
    let lists: [&[usize]; 4] = [&[], &[0, 3], &[3, 0, 3], &[2, 4]];
    for cut in 0..=bytes.len() {
        for list in lists {
            assert_tiles_parity(&bytes[..cut], list, &mut digest, &|| {
                format!("cut at {cut} tiles {list:?}")
            });
        }
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        for list in lists {
            assert_tiles_parity(&flipped, list, &mut digest, &|| {
                format!("bit {bit} flipped, tiles {list:?}")
            });
        }
    }
    assert_eq!(digest.0, MUTILATED_DIGEST, "the oracle's outcomes moved");
}

/// The oracle's outcomes on each case set above, recorded on the commit
/// before `extract_tiles` existed.
const SEEDED_DIGEST: u64 = 0x0aac_ab02_b1ba_34ee;
const SUBSET_DIGEST: u64 = 0xdd0f_944b_d9c2_63ed;
const RANDOM_DIGEST: u64 = 0x1a6b_3375_e463_062d;
const EDGE_DIGEST: u64 = 0x9ca0_c5b8_07e3_375c;
const MUTILATED_DIGEST: u64 = 0x36cf_9197_3a11_92c4;
