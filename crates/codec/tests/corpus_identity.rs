//! Whole-corpus byte-identity: encoded bitstreams and decoded frames
//! must match golden digests captured before the kernel overhaul
//! (word-level bit I/O, fixed-point DCT, SWAR SAD, scratch arenas).
//! Any change to these digests means the bitstream format or the
//! decoded output drifted — which the kernel work must never do.

use lightdb_codec::scratch::DecoderScratch;
use lightdb_codec::{Decoder, EncodedGop, Encoder, EncoderConfig, SequenceHeader, TileGrid};
use lightdb_frame::{Frame, PlaneKind, Yuv};

/// FNV-1a 64-bit, the same digest the fault-injection harness uses
/// for deterministic corpus checks.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_frames(frames: &[Frame], mut h: u64) -> u64 {
    for f in frames {
        for plane in [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr] {
            h = fnv1a(f.plane(plane), h);
        }
    }
    h
}

/// Deterministic synthetic scene with texture, motion, and a drifting
/// bright square — enough structure to exercise intra/inter decisions,
/// runs of zeros, and every entropy path.
fn scene(w: usize, h: usize, n: usize, seed: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 2 * i + seed * 3) as f64 / 11.0).sin() * 55.0
                        + ((y + seed) as f64 / 5.0).cos() * 45.0
                        + 128.0) as u8;
                    f.set(x, y, Yuv::new(v, ((x + seed * 7) % 256) as u8, (y % 256) as u8));
                }
            }
            for y in 8..16.min(h) {
                for x in (8 + 3 * i)..(16 + 3 * i).min(w) {
                    f.set(x, y, Yuv::new(250, 90, 160));
                }
            }
            f
        })
        .collect()
}

/// The corpus: every (dims, qp, codec, grid, gop) cell below is
/// encoded and decoded; bitstream bytes and decoded planes fold into
/// one digest per cell.
/// One corpus cell: (w, h, frames, qp, codec, grid, gop_length).
type Cell = (usize, usize, usize, u8, lightdb_codec::CodecKind, (usize, usize), usize);

fn corpus_digests() -> Vec<(String, u64, u64)> {
    use lightdb_codec::CodecKind::{H264Sim, HevcSim};
    let cells: &[Cell] = &[
        // (w, h, frames, qp, codec, grid, gop_length)
        (64, 32, 4, 4, H264Sim, (1, 1), 2),
        (64, 32, 4, 20, HevcSim, (1, 1), 4),
        (64, 64, 6, 28, H264Sim, (2, 2), 3),
        (96, 48, 5, 12, HevcSim, (3, 1), 5),
        (32, 32, 3, 45, H264Sim, (1, 1), 3),
        (128, 64, 4, 18, HevcSim, (2, 2), 2),
    ];
    let mut out = Vec::new();
    for &(w, h, n, qp, codec, (gx, gy), gop) in cells {
        let frames = scene(w, h, n, w + h + qp as usize);
        let enc = Encoder::new(EncoderConfig {
            codec,
            qp,
            grid: TileGrid::new(gx, gy),
            gop_length: gop,
            fps: 30,
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        let bits_digest = fnv1a(&stream.to_bytes(), FNV_OFFSET);
        let decoded = Decoder::new().decode(&stream).unwrap();
        let frames_digest = digest_frames(&decoded, FNV_OFFSET);
        out.push((
            format!("{w}x{h} n={n} qp={qp} {codec:?} grid={gx}x{gy} gop={gop}"),
            bits_digest,
            frames_digest,
        ));
    }
    out
}

/// Golden digests captured at commit db33672 (pre-overhaul kernels).
/// (bitstream digest, decoded-frame digest) per corpus cell.
const GOLDEN: &[(u64, u64)] = &[
    (0xbf0dfb59125802da, 0xf4939b09612ad1cf), // 64x32 n=4 qp=4 H264Sim grid=1x1 gop=2
    (0x6bed22e382297233, 0xc34169c54f8de6ab), // 64x32 n=4 qp=20 HevcSim grid=1x1 gop=4
    (0x7f2ced53d7e43962, 0xac4bd5f57fe37ff0), // 64x64 n=6 qp=28 H264Sim grid=2x2 gop=3
    (0x4eca1caa7f3a29a3, 0xd3ca02e845909699), // 96x48 n=5 qp=12 HevcSim grid=3x1 gop=5
    (0xaf5bfcc191ffc2e4, 0x07018c24aed1b079), // 32x32 n=3 qp=45 H264Sim grid=1x1 gop=3
    (0x8dca9e68aa6097ba, 0xe72891e12d3ffd5a), // 128x64 n=4 qp=18 HevcSim grid=2x2 gop=2
];

#[test]
fn corpus_bitstreams_and_frames_match_golden_digests() {
    let got = corpus_digests();
    assert_eq!(got.len(), GOLDEN.len(), "corpus cell count changed");
    let mut failures = Vec::new();
    for ((name, bits, frames), &(gbits, gframes)) in got.iter().zip(GOLDEN.iter()) {
        if (*bits, *frames) != (gbits, gframes) {
            failures.push(format!(
                "{name}: got (0x{bits:016x}, 0x{frames:016x}), golden (0x{gbits:016x}, 0x{gframes:016x})"
            ));
        }
    }
    if !failures.is_empty() {
        for (name, bits, frames) in &got {
            eprintln!("    (0x{bits:016x}, 0x{frames:016x}), // {name}");
        }
        panic!("corpus digests drifted:\n{}", failures.join("\n"));
    }
}

/// One tile taken out of a GOP (`extract_tile`) and decoded under its
/// single-tile header — what `TILESELECT` runs — must agree with the
/// full decode: a second, structural identity the kernel work must
/// preserve.
#[test]
fn tiled_decode_identity_against_full_decode() {
    let frames = scene(64, 64, 6, 9);
    let enc = Encoder::new(EncoderConfig {
        qp: 16,
        grid: TileGrid::new(2, 2),
        gop_length: 3,
        ..Default::default()
    })
    .unwrap();
    let stream = enc.encode(&frames).unwrap();
    let full = Decoder::new().decode(&stream).unwrap();
    for (gi, gop) in stream.gops.iter().enumerate() {
        for t in 0..4 {
            let rect = stream.header.grid.tile_rect(t, 64, 64);
            let tiles = decode_one_tile(&stream.header, gop, t);
            for (fi, tf) in tiles.iter().enumerate() {
                let whole = &full[gi * 3 + fi];
                assert_eq!(tf, &whole.crop(rect.x0, rect.y0, rect.w, rect.h));
            }
        }
    }
}

/// Tile `t` of `gop` alone: extracted, then decoded under the tile's
/// own single-tile header.
fn decode_one_tile(header: &SequenceHeader, gop: &EncodedGop, t: usize) -> Vec<Frame> {
    let rect = header.grid.tile_rect(t, header.width, header.height);
    let tile_header = SequenceHeader {
        width: rect.w,
        height: rect.h,
        grid: TileGrid::SINGLE,
        ..*header
    };
    let tile_gop = gop.extract_tile(t).unwrap();
    Decoder::new().decode_gop(&tile_header, &tile_gop).unwrap()
}

// ------------------------------------------------------------------
// The path the engine's default plan runs: `encode_tile_opts` on a
// tile-sized frame with an explicit search range (the simulated GPU
// encoder uses range 4; `Encoder::encode` uses the profile's 8/16).

/// SplitMix64 — the same generator the benchmark seeds its grain with.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `-amp..=amp`.
    fn grain(&mut self, amp: i32) -> i32 {
        (self.next() % (2 * amp as u64 + 1)) as i32 - amp
    }
}

/// [`scene`] made hostile: the left half carries fresh ±40 luma grain
/// every frame (like the fleets' inputs: inter prediction barely
/// helps, many nonzero levels), the right half a fixed grain texture
/// that translates one pixel per frame under ±3 flicker (real motion
/// vectors, near-threshold residuals), and the bottom macroblock row is
/// flat (every candidate ties at SAD 0).
fn noisy_scene(w: usize, h: usize, n: usize, seed: usize) -> Vec<Frame> {
    let mut rng = Rng(seed as u64);
    let texture: Vec<i32> = (0..w * h).map(|_| rng.grain(40)).collect();
    let mut frames = scene(w, h, n, seed);
    for (i, f) in frames.iter_mut().enumerate() {
        let luma = f.plane_mut(PlaneKind::Luma);
        for y in 0..h {
            for x in 0..w {
                let p = &mut luma[y * w + x];
                let v = if y >= h - 16 {
                    100
                } else if x < w / 2 {
                    *p as i32 + rng.grain(40)
                } else {
                    *p as i32 + texture[y * w + (x + i) % w] + rng.grain(3)
                };
                *p = v.clamp(0, 255) as u8;
            }
        }
    }
    frames
}

fn tile_path_digests() -> Vec<(String, u64, u64)> {
    use lightdb_codec::encoder::encode_tile_opts;
    use lightdb_codec::CodecKind::{H264Sim, HevcSim};
    let mut out = Vec::new();
    for (w, h) in [(128, 64), (256, 128)] {
        for qp in [6u8, 24, 45] {
            for codec in [H264Sim, HevcSim] {
                for range in [4, codec.search_range()] {
                    for noisy in [false, true] {
                        let seed = w + h + qp as usize + range as usize;
                        let frames = if noisy {
                            noisy_scene(w, h, 4, seed)
                        } else {
                            scene(w, h, 4, seed)
                        };
                        let (mut bits, mut pixels) = (FNV_OFFSET, FNV_OFFSET);
                        let mut reference: Option<Frame> = None;
                        for f in &frames {
                            let (payload, recon) =
                                encode_tile_opts(f, reference.as_ref(), qp, codec, range);
                            bits = fnv1a(&payload, bits);
                            pixels = digest_frames(std::slice::from_ref(&recon), pixels);
                            reference = Some(recon);
                        }
                        let kind = if noisy { "noisy" } else { "smooth" };
                        out.push((
                            format!("{w}x{h} qp={qp} {codec:?} range={range} {kind}"),
                            bits,
                            pixels,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Golden digests captured at commit 3904a5c (the encoder before the
/// zero-block short-circuits and successive elimination).
/// (payload digest, reconstruction digest) per tile-path cell.
const TILE_PATH_GOLDEN: &[(u64, u64)] = &[
    (0x610dad84ed2d7e43, 0x0dd7bb5b071f425d), // 128x64 qp=6 H264Sim range=4 smooth
    (0x016d8868e7b255f6, 0x6cc14e3e12d8898e), // 128x64 qp=6 H264Sim range=4 noisy
    (0xff7305ffeba8d270, 0x724d121e96b4082a), // 128x64 qp=6 H264Sim range=8 smooth
    (0x1e32d4b8c52713b6, 0x033f743a3e53292b), // 128x64 qp=6 H264Sim range=8 noisy
    (0x19db214b913b8b0f, 0x85ed1b4bda828440), // 128x64 qp=6 HevcSim range=4 smooth
    (0x9a45ecf0bbc88741, 0x9d77aa9754b05fd1), // 128x64 qp=6 HevcSim range=4 noisy
    (0x0557de564a20b3c8, 0x6a08e200aba29c76), // 128x64 qp=6 HevcSim range=16 smooth
    (0xe9070a66bdfe57de, 0x0b21c3836b5c79f4), // 128x64 qp=6 HevcSim range=16 noisy
    (0x31c0d1723e048c10, 0xf5cb436c0dbc9e0c), // 128x64 qp=24 H264Sim range=4 smooth
    (0xa5a9f7487af88569, 0x7c90a786a2386d51), // 128x64 qp=24 H264Sim range=4 noisy
    (0x0550eee384970045, 0x80d08fa6d6abedfd), // 128x64 qp=24 H264Sim range=8 smooth
    (0x641154d80c4448b9, 0x312ed7a9ea01fc54), // 128x64 qp=24 H264Sim range=8 noisy
    (0x80a26726ff789d95, 0xb312d2ed072be9af), // 128x64 qp=24 HevcSim range=4 smooth
    (0x0e348f40a9c20adc, 0x8eb04f6da595ec1c), // 128x64 qp=24 HevcSim range=4 noisy
    (0x31d341f0366e7b14, 0x5c28210b17b06e30), // 128x64 qp=24 HevcSim range=16 smooth
    (0xb8d1a0f51020ed74, 0xe51a6ec7f7b86f4b), // 128x64 qp=24 HevcSim range=16 noisy
    (0x2fae7a66827e9b1f, 0x2f30ba4434a7dcad), // 128x64 qp=45 H264Sim range=4 smooth
    (0x0480ebd6ac5e43fe, 0x8b354b061b9f88c9), // 128x64 qp=45 H264Sim range=4 noisy
    (0xdc70afdec0d4e006, 0x25ecd50171fdb54a), // 128x64 qp=45 H264Sim range=8 smooth
    (0xf1a37436148361c9, 0x5ae1e477761aecf7), // 128x64 qp=45 H264Sim range=8 noisy
    (0xf7d94e74ace5049c, 0x0962acae3bd590d9), // 128x64 qp=45 HevcSim range=4 smooth
    (0x8b464487054cd590, 0x6062d3563de3f8dc), // 128x64 qp=45 HevcSim range=4 noisy
    (0xca6748a67806e309, 0xf2a42d4be78273b1), // 128x64 qp=45 HevcSim range=16 smooth
    (0xb8f062d7cd907e77, 0x348fe59fd0f2e562), // 128x64 qp=45 HevcSim range=16 noisy
    (0x14a5921054193b22, 0x5da5a588a98e545c), // 256x128 qp=6 H264Sim range=4 smooth
    (0xdc3d179ad3c7642b, 0x909c8e7ee88d02e1), // 256x128 qp=6 H264Sim range=4 noisy
    (0x6562c1fe5eaf224b, 0xea8ae178310bc3e9), // 256x128 qp=6 H264Sim range=8 smooth
    (0x48f3a32821c8a9d5, 0xec357a0d2206f2ee), // 256x128 qp=6 H264Sim range=8 noisy
    (0x367d936584ca912b, 0x4d3b2a5c9fb4be1d), // 256x128 qp=6 HevcSim range=4 smooth
    (0x336c869092c1f229, 0x676d6026207a756c), // 256x128 qp=6 HevcSim range=4 noisy
    (0xae5b8ddf960eb7af, 0x5f410edba6115067), // 256x128 qp=6 HevcSim range=16 smooth
    (0xf663b884fa12f2ac, 0x16e2e255467e1ef7), // 256x128 qp=6 HevcSim range=16 noisy
    (0x0674728be81b04d0, 0xc49adf7f5121fd2e), // 256x128 qp=24 H264Sim range=4 smooth
    (0x1db5145a1829c734, 0x58ebe0eb31587a1b), // 256x128 qp=24 H264Sim range=4 noisy
    (0x1ddb75a4ef5c98f4, 0x3126fefcd0dbcde5), // 256x128 qp=24 H264Sim range=8 smooth
    (0x661081f0ada63c38, 0x374d6587c29ef418), // 256x128 qp=24 H264Sim range=8 noisy
    (0x787922891550f26f, 0xc807652a1bc51a41), // 256x128 qp=24 HevcSim range=4 smooth
    (0x0a59bd6b98e3ec30, 0x7f1d4e9355afcc36), // 256x128 qp=24 HevcSim range=4 noisy
    (0xc8f3526dfb82dcbe, 0xd91093766345bb35), // 256x128 qp=24 HevcSim range=16 smooth
    (0x76b144b11a0aab22, 0x13d3fa06fabbfaae), // 256x128 qp=24 HevcSim range=16 noisy
    (0xae5b2e4886a888b1, 0x2eebab783840575c), // 256x128 qp=45 H264Sim range=4 smooth
    (0xb2731c1be7f2c6c3, 0xca582c2250e72e88), // 256x128 qp=45 H264Sim range=4 noisy
    (0x067489cd360daad0, 0x5bfd958452133791), // 256x128 qp=45 H264Sim range=8 smooth
    (0x342dd7239824696d, 0x3a8a7ce38236e7b3), // 256x128 qp=45 H264Sim range=8 noisy
    (0xe9995b69f4141066, 0x40c959ff12297449), // 256x128 qp=45 HevcSim range=4 smooth
    (0x21ac8e752c63dc55, 0xbb49a5b283583a84), // 256x128 qp=45 HevcSim range=4 noisy
    (0xe22f763fc5a69d47, 0x4fce9b020ee98f7a), // 256x128 qp=45 HevcSim range=16 smooth
    (0x1883c9bdce1fd346, 0xe254a0ed3b4b8283), // 256x128 qp=45 HevcSim range=16 noisy
];

#[test]
fn tile_path_payloads_and_reconstructions_match_golden_digests() {
    let got = tile_path_digests();
    let drifted = got.len() != TILE_PATH_GOLDEN.len()
        || got
            .iter()
            .zip(TILE_PATH_GOLDEN)
            .any(|((_, bits, pixels), golden)| (*bits, *pixels) != *golden);
    if drifted {
        for (name, bits, pixels) in &got {
            eprintln!("    (0x{bits:016x}, 0x{pixels:016x}), // {name}");
        }
        panic!("tile-path digests drifted from TILE_PATH_GOLDEN (current values above)");
    }
}

// ------------------------------------------------------------------
// The read side: whole GOPs (`decode_gop`, single-tile and 2×2 grids),
// single tiles (`extract_tile` + `decode_gop`) and the prediction-only
// `decode_gop_degraded`, at the benchmark's frame size and a tile's.
// Whole GOPs decode on one thread and again on two, where later
// frames' residuals are computed ahead of reconstruction; both must
// land on the one-thread golden digest.

/// Per cell: its name, the (whole-GOP, per-tile, degraded) digests,
/// and the whole-GOP digest at two threads.
fn decode_path_digests() -> Vec<(String, [u64; 3], u64)> {
    use lightdb_codec::CodecKind::{H264Sim, HevcSim};
    let mut out = Vec::new();
    for (w, h) in [(512, 256), (128, 64)] {
        for qp in [6u8, 22, 45] {
            for codec in [H264Sim, HevcSim] {
                for noisy in [false, true] {
                    let seed = w + h + qp as usize;
                    let frames = if noisy {
                        noisy_scene(w, h, 3, seed)
                    } else {
                        scene(w, h, 3, seed)
                    };
                    let [mut whole, mut tiles, mut degraded] = [FNV_OFFSET; 3];
                    let mut whole_2 = FNV_OFFSET;
                    for grid in [TileGrid::SINGLE, TileGrid::new(2, 2)] {
                        let enc = Encoder::new(EncoderConfig {
                            codec,
                            qp,
                            grid,
                            gop_length: 3,
                            fps: 30,
                        })
                        .unwrap();
                        let stream = enc.encode(&frames).unwrap();
                        let (header, gop) = (&stream.header, &stream.gops[0]);
                        let dec = Decoder::new();
                        whole = digest_frames(&dec.decode_gop(header, gop).unwrap(), whole);
                        let mut scratch = DecoderScratch::new();
                        let two = dec.decode_gop_scratch(header, gop, &mut scratch, 2).unwrap();
                        whole_2 = digest_frames(&two, whole_2);
                        for t in 0..grid.tile_count() {
                            tiles = digest_frames(&decode_one_tile(header, gop, t), tiles);
                        }
                        degraded =
                            digest_frames(&dec.decode_gop_degraded(header, gop).unwrap(), degraded);
                    }
                    let kind = if noisy { "noisy" } else { "smooth" };
                    out.push((
                        format!("{w}x{h} qp={qp} {codec:?} {kind}"),
                        [whole, tiles, degraded],
                        whole_2,
                    ));
                }
            }
        }
    }
    out
}

/// Golden digests captured at commit d3572aa (the decoder that ran the
/// inverse transform over every block, coded or not).
/// (whole-GOP, per-tile, degraded) decoded-frame digests per cell.
const DECODE_PATH_GOLDEN: &[[u64; 3]] = &[
    [0x64479bb94429a6d7, 0xf4a9ef21700cbd9f, 0xb807d86633c12613], // 512x256 qp=6 H264Sim smooth
    [0x8591a3e1d520da3e, 0x8d6e03e42131eb32, 0x79bf66a5819d11d9], // 512x256 qp=6 H264Sim noisy
    [0xd03c2af11c74ed93, 0xf0b1075971e4cf8b, 0x4e1560299c3d47e6], // 512x256 qp=6 HevcSim smooth
    [0x8e54026b90647051, 0x657e3a419c244dad, 0x607011b1df0ff58c], // 512x256 qp=6 HevcSim noisy
    [0x11421937aed4ab39, 0xa8c7e03ca19ad49d, 0x6673cc954a6c4b4c], // 512x256 qp=22 H264Sim smooth
    [0x2cfdd77a9b18ec47, 0x221a9bcdf10d5933, 0x89e42d6673a7fc88], // 512x256 qp=22 H264Sim noisy
    [0xbae4244d7bd1ef0f, 0x21b5ffa53d5914d7, 0xf1999de48038babb], // 512x256 qp=22 HevcSim smooth
    [0x87482462a712fbab, 0x46fd2780ef6f720f, 0xe15c44dcc2c310da], // 512x256 qp=22 HevcSim noisy
    [0x3aa6ac32fb6e7eed, 0x4ad78345c5e64109, 0xfb734dab85fb5814], // 512x256 qp=45 H264Sim smooth
    [0x981e90b894ed39be, 0x036353d50191be0a, 0xb83b28e142c00877], // 512x256 qp=45 H264Sim noisy
    [0x11b7a4f221f719ce, 0x276781eb277ef8c2, 0x9719a06c5cd65331], // 512x256 qp=45 HevcSim smooth
    [0xca3564aeba8c4862, 0xe56181f0d83c071e, 0x7b2593489df4af9d], // 512x256 qp=45 HevcSim noisy
    [0xee2b5811a162e2ca, 0xafb93a5f2846d47e, 0x0b1d2c653cc38e99], // 128x64 qp=6 H264Sim smooth
    [0xea0f27b0834b5ca8, 0x856369a649f37f14, 0x98b5924c0baa601a], // 128x64 qp=6 H264Sim noisy
    [0xd96f568f6565e563, 0xd6d0b7ffd926ddab, 0xacc45813a1d6e278], // 128x64 qp=6 HevcSim smooth
    [0xfe0c3963c622ccdd, 0x6c88098f664d3679, 0x71b0d4cf43121fa2], // 128x64 qp=6 HevcSim noisy
    [0xfee7dc156e57e688, 0x2998e7c6621bd484, 0xbd3a0d9b73132c52], // 128x64 qp=22 H264Sim smooth
    [0x934899ee486e053f, 0x2324a9a2d2e41bcf, 0x37f2572cd81f9b4e], // 128x64 qp=22 H264Sim noisy
    [0x1abb2a3072a7c290, 0x730eda48fa59b77c, 0x576ac10945e4d106], // 128x64 qp=22 HevcSim smooth
    [0x963c7a1e1705c26b, 0xddad3ebf592fd883, 0x29b3c38224c11cbc], // 128x64 qp=22 HevcSim noisy
    [0x5877b9ea88a31088, 0x00c8dc68693acaac, 0x39d22e00a048eded], // 128x64 qp=45 H264Sim smooth
    [0xa25d72960061b70c, 0xd35b18ec463275a0, 0x4a03a4b0fe14868e], // 128x64 qp=45 H264Sim noisy
    [0x432e0ca97bb3e446, 0xa223ed7573d09516, 0xf5413143ea971e44], // 128x64 qp=45 HevcSim smooth
    [0x7fe86d886f5f8e17, 0x3b964cc85776fc67, 0x9f1b4b2186c23ae4], // 128x64 qp=45 HevcSim noisy
];

#[test]
fn decoded_gops_tiles_and_degraded_frames_match_golden_digests() {
    let got = decode_path_digests();
    let drifted = got.len() != DECODE_PATH_GOLDEN.len()
        || got.iter().zip(DECODE_PATH_GOLDEN).any(|((_, d, _), golden)| d != golden);
    if drifted {
        for (name, [whole, tiles, degraded], _) in &got {
            eprintln!("    [0x{whole:016x}, 0x{tiles:016x}, 0x{degraded:016x}], // {name}");
        }
        panic!("decode-path digests drifted from DECODE_PATH_GOLDEN (current values above)");
    }
    for ((name, _, whole_2), [whole, ..]) in got.iter().zip(DECODE_PATH_GOLDEN) {
        assert_eq!(whole_2, whole, "{name}: the two-thread whole-GOP decode drifted");
    }
}
