//! Whole-corpus byte-identity: encoded bitstreams and decoded frames
//! must match golden digests. The digests were captured before the
//! kernel overhauls (word-level bit I/O, SWAR SAD, scratch arenas,
//! the encoder's shortcuts) and replaced once, when the integer
//! transform became the bitstream's definition in place of the `f64`
//! DCT. Any change to these digests means the bitstream format or the
//! decoded output drifted — which kernel work must never do. Beside
//! them, the rate–distortion check against the `f64` definition.

mod oracle;

/// The `f64` DCT the rate–distortion check compares against.
#[path = "oracle/kernels.rs"]
mod kernels;

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

/// Golden digests of the integer-transform format (first captured at
/// commit db33672, before the kernel overhauls, under the `f64` DCT).
/// (bitstream digest, decoded-frame digest) per corpus cell.
const GOLDEN: &[(u64, u64)] = &[
    (0xb4b45c8b7ab01e0b, 0x632523e6ec870e8a), // 64x32 n=4 qp=4 H264Sim grid=1x1 gop=2
    (0xd703a2d4307e237f, 0x75d550aa6f60e876), // 64x32 n=4 qp=20 HevcSim grid=1x1 gop=4
    (0x99fd59e983db582e, 0x22a36867ab5506d5), // 64x64 n=6 qp=28 H264Sim grid=2x2 gop=3
    (0xb92002bfcaf76e6d, 0xb01d4267b218097d), // 96x48 n=5 qp=12 HevcSim grid=3x1 gop=5
    (0x31501279a984a904, 0x328b194e731ad9a6), // 32x32 n=3 qp=45 H264Sim grid=1x1 gop=3
    (0x0b3540eb2d274f3c, 0xc33bc5d3fed8af13), // 128x64 n=4 qp=18 HevcSim grid=2x2 gop=2
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

/// Golden digests of the integer-transform format (first captured at
/// commit 3904a5c, the encoder before the zero-block short-circuits
/// and successive elimination, under the `f64` DCT).
/// (payload digest, reconstruction digest) per tile-path cell.
const TILE_PATH_GOLDEN: &[(u64, u64)] = &[
    (0x12fd5a3b3171770c, 0xf9724487a8263db0), // 128x64 qp=6 H264Sim range=4 smooth
    (0x4b491937d0ef19a8, 0x90429aee20cc3386), // 128x64 qp=6 H264Sim range=4 noisy
    (0xa0d69f46abe8d73b, 0x5a4ae687514767cb), // 128x64 qp=6 H264Sim range=8 smooth
    (0xc0d182e952d18231, 0x98f9b6a8336fbbf7), // 128x64 qp=6 H264Sim range=8 noisy
    (0x3d34c66e7dc1b8b2, 0x5b35b7695d3310df), // 128x64 qp=6 HevcSim range=4 smooth
    (0x457f470f700253c7, 0xbe6fa0586f8c1348), // 128x64 qp=6 HevcSim range=4 noisy
    (0x4c81f9c4fa1c8047, 0x01b785bccf355170), // 128x64 qp=6 HevcSim range=16 smooth
    (0xe8ed0c5534668069, 0xc2c4ffd2bf6430d6), // 128x64 qp=6 HevcSim range=16 noisy
    (0xec8180afe8e2ff4c, 0x0a0b2a33ba67fb37), // 128x64 qp=24 H264Sim range=4 smooth
    (0x022dd8b0d6402d07, 0x2d1153a582cd4ddd), // 128x64 qp=24 H264Sim range=4 noisy
    (0x698cb74e89eeaa14, 0x92726caa58d35cdf), // 128x64 qp=24 H264Sim range=8 smooth
    (0x7d41062de45f6a98, 0xb4e749cff68dc83c), // 128x64 qp=24 H264Sim range=8 noisy
    (0x346a8e417c294f2e, 0xba4fc8aab8d7c407), // 128x64 qp=24 HevcSim range=4 smooth
    (0x878a5ce01b94b637, 0x22d4541c26169002), // 128x64 qp=24 HevcSim range=4 noisy
    (0xe31fe529be5fde64, 0x27b5b97922b696c4), // 128x64 qp=24 HevcSim range=16 smooth
    (0xe4688f6784fa5f33, 0x335056b962591b46), // 128x64 qp=24 HevcSim range=16 noisy
    (0xc24cf523fd508c89, 0x47f7f4bc6e46de0b), // 128x64 qp=45 H264Sim range=4 smooth
    (0x3dc591fc079ad861, 0x05ed2e2f0dbe8280), // 128x64 qp=45 H264Sim range=4 noisy
    (0x644826affd3a9285, 0x288a993321168f1a), // 128x64 qp=45 H264Sim range=8 smooth
    (0x11b834341bb2aec9, 0xc681dbbc55c9c0b2), // 128x64 qp=45 H264Sim range=8 noisy
    (0x1f482880e2a7d594, 0x91a9b8e089dcf5da), // 128x64 qp=45 HevcSim range=4 smooth
    (0x46d939fe54a0aee5, 0xd254a409207d8c39), // 128x64 qp=45 HevcSim range=4 noisy
    (0x4473886157d98581, 0xff3fa299c50acbfe), // 128x64 qp=45 HevcSim range=16 smooth
    (0x1f61623a20da1bcb, 0x8e8c2268ff10e312), // 128x64 qp=45 HevcSim range=16 noisy
    (0xc200a7c79f4085ec, 0xc0e521d6867824c0), // 256x128 qp=6 H264Sim range=4 smooth
    (0x08c6ae733118f487, 0x6238fc478d23daed), // 256x128 qp=6 H264Sim range=4 noisy
    (0x37c9d857321e1d29, 0xc739442171b1b9a4), // 256x128 qp=6 H264Sim range=8 smooth
    (0xae27ee7f38b0750f, 0xa265828e6252bb99), // 256x128 qp=6 H264Sim range=8 noisy
    (0xd32282c380e99f6c, 0x67e45e60ca9fb4bd), // 256x128 qp=6 HevcSim range=4 smooth
    (0x88606fa13e9790b3, 0x95f897a1360ba00f), // 256x128 qp=6 HevcSim range=4 noisy
    (0x89408f9a1ddc8c35, 0x6ae499a2526d8f67), // 256x128 qp=6 HevcSim range=16 smooth
    (0xe6386f5e48a4062c, 0x43a2b62adbc852e0), // 256x128 qp=6 HevcSim range=16 noisy
    (0xc05a9623f01392a7, 0x842c7b222d1639db), // 256x128 qp=24 H264Sim range=4 smooth
    (0xeb2b5044ffa94e97, 0xf64ddb358f5bb42f), // 256x128 qp=24 H264Sim range=4 noisy
    (0x95839e21813f83b3, 0x50fad606f04f6abc), // 256x128 qp=24 H264Sim range=8 smooth
    (0xd510df36f0e59491, 0xc4378962df9b8ce4), // 256x128 qp=24 H264Sim range=8 noisy
    (0x63495ea9ee0f7c6a, 0xb8db9e8cc2e313af), // 256x128 qp=24 HevcSim range=4 smooth
    (0xd0e8b500dc2ed326, 0x6cf4c13ae7823ea9), // 256x128 qp=24 HevcSim range=4 noisy
    (0xa241263099b0f5de, 0xbb682e05fcaf1472), // 256x128 qp=24 HevcSim range=16 smooth
    (0x334e66b1b5fd9c7d, 0xc81dded50bf5c0e7), // 256x128 qp=24 HevcSim range=16 noisy
    (0xc4988e19b4518f0c, 0xe1b5623c8e102046), // 256x128 qp=45 H264Sim range=4 smooth
    (0xa5603e49f5ddb586, 0x68ad7ea2810c2c60), // 256x128 qp=45 H264Sim range=4 noisy
    (0x5e049d2faf6edd4a, 0x129e0f9420fa25a2), // 256x128 qp=45 H264Sim range=8 smooth
    (0x2d20216f7634319c, 0x9759c4a9e99dc45e), // 256x128 qp=45 H264Sim range=8 noisy
    (0x5ce2fa456c97f17a, 0x2cb4a3830c4b8138), // 256x128 qp=45 HevcSim range=4 smooth
    (0x9ccc753eb1247d87, 0x0ccade3cf05320cd), // 256x128 qp=45 HevcSim range=4 noisy
    (0x135c2f2e91548387, 0x6793fd99678ea4d9), // 256x128 qp=45 HevcSim range=16 smooth
    (0x83547d70054ad3cb, 0xf363675b12f6248e), // 256x128 qp=45 HevcSim range=16 noisy
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
// Rate–distortion parity with the `f64` DCT, which defined the
// bitstream before the integer transform. Every tile-path cell is
// encoded by the shipped encoder and by the oracle encoder with the
// `f64` DCT and its orthonormal-scale quantiser in place of the
// integer definition (the same syntax, prediction and search, the same
// step sizes); the integer transform must spend within ±2 % of the
// bits and lose at most 0.1 dB of luma PSNR. The tolerance was fixed
// before the first comparison, and the cells that miss it are listed
// in `RD_MISSED` rather than loosening it: the check fails when a cell
// leaves the tolerance or a listed one comes back inside it.

/// Bits within this fraction of the `f64` DCT's, either way.
const RD_BITS_TOLERANCE: f64 = 0.02;
/// Luma PSNR at most this many dB below the `f64` DCT's.
const RD_PSNR_TOLERANCE_DB: f64 = 0.1;

/// The cells outside the tolerance, with what each missed. At qp 6
/// every miss is a gain on both axes or a bit-rate rise under a larger
/// PSNR gain: the integer definition keeps four more bits of each
/// coefficient, which the orthonormal-scale `f64` definition rounded
/// away before quantising. At qp 24 and 45, eight misses are PSNR
/// losses of 0.11–0.27 dB (seven `H264Sim` on the smooth scene, three
/// of those also 2.4–5.1 % over on bits) and three miss on bits alone
/// (+2.2 %, +2.7 %, −2.3 %). The PSNR losses come from the `f64`
/// definition's truncating dequantiser rather than its transform: with
/// that dequantiser rounding to nearest, the `f64` definition loses
/// more than the tolerance on each of those cells itself (checked
/// below).
const RD_MISSED: &[&str] = &[
    "128x64 qp=6 H264Sim range=8 smooth",
    "128x64 qp=6 HevcSim range=4 smooth",
    "128x64 qp=6 HevcSim range=4 noisy",
    "128x64 qp=6 HevcSim range=16 smooth",
    "128x64 qp=6 HevcSim range=16 noisy",
    "128x64 qp=24 H264Sim range=4 smooth",
    "128x64 qp=24 H264Sim range=8 smooth",
    "128x64 qp=45 H264Sim range=8 smooth",
    "128x64 qp=45 H264Sim range=8 noisy",
    "128x64 qp=45 HevcSim range=4 smooth",
    "128x64 qp=45 HevcSim range=4 noisy",
    "256x128 qp=6 H264Sim range=4 smooth",
    "256x128 qp=6 H264Sim range=8 smooth",
    "256x128 qp=6 HevcSim range=4 smooth",
    "256x128 qp=6 HevcSim range=16 smooth",
    "256x128 qp=24 H264Sim range=4 smooth",
    "256x128 qp=24 H264Sim range=8 smooth",
    "256x128 qp=45 H264Sim range=4 smooth",
    "256x128 qp=45 H264Sim range=8 smooth",
    "256x128 qp=45 HevcSim range=16 noisy",
];

/// Payload bits and luma PSNR of a tile-path cell's four frames, each
/// predicted from the previous reconstruction, through `encode`.
fn rate_distortion(
    frames: &[Frame],
    mut encode: impl FnMut(&Frame, Option<&Frame>) -> (Vec<u8>, Frame),
) -> (u64, f64) {
    let (mut bits, mut sq_err, mut samples) = (0u64, 0u64, 0u64);
    let mut reference: Option<Frame> = None;
    for f in frames {
        let (payload, recon) = encode(f, reference.as_ref());
        bits += 8 * payload.len() as u64;
        for (&a, &b) in f.plane(PlaneKind::Luma).iter().zip(recon.plane(PlaneKind::Luma)) {
            sq_err += ((a as i64 - b as i64) * (a as i64 - b as i64)) as u64;
            samples += 1;
        }
        reference = Some(recon);
    }
    let mse = (sq_err as f64 / samples as f64).max(1e-9);
    (bits, 10.0 * (255.0 * 255.0 / mse).log10())
}

#[test]
fn tile_path_cells_keep_rate_distortion_parity_with_the_f64_dct() {
    use lightdb_codec::encoder::encode_tile_opts;
    use lightdb_codec::CodecKind::{H264Sim, HevcSim};
    let f64_dct = oracle::Definition {
        forward: kernels::dct_f64::forward,
        quantize: kernels::dct_f64::quantize,
        dequantize: kernels::dct_f64::dequantize,
        inverse: kernels::dct_f64::inverse,
    };
    let f64_dct_rounded = oracle::Definition {
        dequantize: kernels::dct_f64::dequantize_rounded,
        ..f64_dct
    };
    let (mut missed, mut not_the_dequantiser) = (Vec::new(), Vec::new());
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
                        let (bits, psnr) = rate_distortion(&frames, |f, r| {
                            encode_tile_opts(f, r, qp, codec, range)
                        });
                        let (f_bits, f_psnr) = rate_distortion(&frames, |f, r| {
                            oracle::encode_tile_with(f, r, qp, codec, range, f64_dct)
                        });
                        let kind = if noisy { "noisy" } else { "smooth" };
                        let cell = format!("{w}x{h} qp={qp} {codec:?} range={range} {kind}");
                        let ratio = bits as f64 / f_bits as f64;
                        eprintln!(
                            "{cell}: bits {bits} vs {f_bits} (x{ratio:.4}), \
                             PSNR {psnr:.3} vs {f_psnr:.3} dB ({:+.3})",
                            psnr - f_psnr
                        );
                        let psnr_miss = psnr < f_psnr - RD_PSNR_TOLERANCE_DB;
                        if psnr_miss {
                            // The same cell through the `f64` definition
                            // with only its dequantiser changed.
                            let (_, r_psnr) = rate_distortion(&frames, |f, r| {
                                oracle::encode_tile_with(f, r, qp, codec, range, f64_dct_rounded)
                            });
                            eprintln!(
                                "  f64 DCT, rounding dequantiser: {:+.3} dB",
                                r_psnr - f_psnr
                            );
                            if r_psnr >= f_psnr - RD_PSNR_TOLERANCE_DB {
                                not_the_dequantiser.push(cell.clone());
                            }
                        }
                        if (ratio - 1.0).abs() > RD_BITS_TOLERANCE || psnr_miss {
                            missed.push(cell);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(missed, RD_MISSED, "cells outside the tolerance (values above)");
    assert!(
        not_the_dequantiser.is_empty(),
        "PSNR misses the f64 definition keeps inside the tolerance with a \
         rounding dequantiser: {not_the_dequantiser:?}"
    );
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

/// Golden digests of the integer-transform format (first captured at
/// commit d3572aa, the decoder that ran the inverse transform over
/// every block, coded or not, under the `f64` DCT).
/// (whole-GOP, per-tile, degraded) decoded-frame digests per cell.
const DECODE_PATH_GOLDEN: &[[u64; 3]] = &[
    [0x4cef2565be680be1, 0xa36b71c8a3acea0d, 0x5c790217a1c2c31e], // 512x256 qp=6 H264Sim smooth
    [0x83d0149efd6513a1, 0xfe085958119c2fd1, 0xa62f660fec943cf4], // 512x256 qp=6 H264Sim noisy
    [0x01242bc57f702926, 0x9672cc2f1d31b292, 0xa1d51040bea6fc7d], // 512x256 qp=6 HevcSim smooth
    [0x7ac424c6b8d198f9, 0x278c9243cfe1935d, 0x08c8cc64d8efa170], // 512x256 qp=6 HevcSim noisy
    [0x07c5993a3ae660ec, 0x5648ab491523be10, 0x310eb5c3c696884e], // 512x256 qp=22 H264Sim smooth
    [0x5f14e75433b0ebc8, 0x5e3965226d1efec8, 0x5099298032f7b428], // 512x256 qp=22 H264Sim noisy
    [0xcf77f033f58542af, 0xf5a65d4e5cf677d7, 0xbacbd5caf2785f78], // 512x256 qp=22 HevcSim smooth
    [0x64854baa5ea39f10, 0x8eb1a3450ca2d838, 0x47f089e1c27a09bb], // 512x256 qp=22 HevcSim noisy
    [0x5107e792c3cf88cd, 0xd5004240fd420971, 0x0f3d5fb2803f872c], // 512x256 qp=45 H264Sim smooth
    [0x05fd84bf865d5323, 0xac2228fc5e28d443, 0x5493370deba10796], // 512x256 qp=45 H264Sim noisy
    [0x5f10b8873a6661ef, 0xe6f5d1cfded6b983, 0xaa20482790432dce], // 512x256 qp=45 HevcSim smooth
    [0xc334a33057e45269, 0x657eb172b0ed7705, 0xc5bc7c0e577c70c0], // 512x256 qp=45 HevcSim noisy
    [0x7263c78e869e7bf3, 0x7aeab9dbeb6458b7, 0xf017b24982640e8a], // 128x64 qp=6 H264Sim smooth
    [0xb325002fd58c1446, 0xc2239111423a058e, 0x2cb94aabb1623e87], // 128x64 qp=6 H264Sim noisy
    [0xad93fc3dd7eab18a, 0x6ceecb299a74768a, 0x53accce9fce34d90], // 128x64 qp=6 HevcSim smooth
    [0x4544f3842a9feea6, 0x698e781d5c47863a, 0x6f43546935c013e7], // 128x64 qp=6 HevcSim noisy
    [0x335248cfd8cf93bd, 0x6b86c4874d0b48a1, 0xf363edd4d81b319e], // 128x64 qp=22 H264Sim smooth
    [0x823e7b6a930e9be1, 0x6ec716226a951e65, 0xbb5ade9c004bce05], // 128x64 qp=22 H264Sim noisy
    [0x6a57bfc15cc057c6, 0x85be33e7ed69e182, 0x008c38a95af2f3ab], // 128x64 qp=22 HevcSim smooth
    [0xe2e127bfb0dcc9e3, 0xdc7c24afa9392ed3, 0x2c51b148b78a2c40], // 128x64 qp=22 HevcSim noisy
    [0x7b197866aea847e9, 0x746f5e547ed074b1, 0xd420ccf558e3ee35], // 128x64 qp=45 H264Sim smooth
    [0x6efe1236d8a8e575, 0x808842c42e8d2ae9, 0xb49928b43e901d64], // 128x64 qp=45 H264Sim noisy
    [0x6deac672872f4473, 0x02fca621d2eb23e3, 0x9b8c91032871f74d], // 128x64 qp=45 HevcSim smooth
    [0x45f8e13d1f46c1b2, 0xb735f9e177fb43a6, 0x4796d6e4fdadd432], // 128x64 qp=45 HevcSim noisy
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

