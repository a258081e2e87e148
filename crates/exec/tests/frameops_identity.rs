//! Byte-identity of the decoded-frame operators across the rewrite of
//! their inner loops: `UNION` compositing (2×2 block kernels on plane
//! slices instead of `Frame::get`/`Frame::set` per pixel, keyed blits
//! through a mask reused across equal overlay frames) and `MAP` (each
//! chunk's frames on the thread that drives it instead of a thread pool
//! per frame). Golden digests were recorded on the parent commit; the
//! per-pixel compositor survives as `oracle`.

mod oracle;

use lightdb_core::algebra::MergeFunction;
use lightdb_core::udf::{BuiltinMap, MapFunction, MapUdf, MergeUdf};
use lightdb_exec::chunk::{is_omega, OMEGA};
use lightdb_exec::frameops::{composite_group, map_chunk};
use lightdb_exec::parallel::par_flat_map_chunks_ctx;
use lightdb_exec::{
    Chunk, ChunkPayload, ChunkStream, Device, Metrics, Parallelism, QueryCtx, StreamInfo,
};
use lightdb_frame::{Frame, PlaneKind, Yuv};
use lightdb_geom::{Dimension, Interval, Volume};
use std::f64::consts::PI;
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

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn digest(frames: &[Frame]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in frames {
        for plane in [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr] {
            h = fnv1a(f.plane(plane), h);
        }
    }
    h
}

/// A random frame in which `holes` of every 8 chroma blocks carry
/// chroma (0, 0) — the only blocks that can hold ω pixels — and inside
/// those every luma sample is 0 (ω) half the time. Elsewhere one
/// chroma component may still be 0 and luma may be 0: near-ω pixels
/// that must be treated as content.
fn frame(w: usize, h: usize, holes: usize, rng: &mut Rng) -> Frame {
    let mut y: Vec<u8> = (0..w * h).map(|_| rng.byte()).collect();
    let (cw, ch) = (w / 2, h / 2);
    let (mut u, mut v) = (vec![0u8; cw * ch], vec![0u8; cw * ch]);
    for by in 0..ch {
        for bx in 0..cw {
            if rng.below(8) < holes {
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    if rng.below(2) == 0 {
                        y[(2 * by + dy) * w + 2 * bx + dx] = 0;
                    }
                }
            } else {
                u[by * cw + bx] = rng.byte();
                v[by * cw + bx] = rng.byte().max(1);
            }
        }
    }
    Frame::from_planes(w, h, y, u, v)
}

fn frames(n: usize, w: usize, h: usize, holes: usize, rng: &mut Rng) -> Vec<Frame> {
    (0..n).map(|_| frame(w, h, holes, rng)).collect()
}

fn sphere() -> Volume {
    Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0))
}

/// The part of the sphere `[t0, t1] × [p0, p1]` in units of π/8.
fn patch(t0: usize, t1: usize, p0: usize, p1: usize) -> Volume {
    let e = PI / 8.0;
    sphere()
        .with(
            Dimension::Theta,
            Interval::new(t0 as f64 * e, t1 as f64 * e),
        )
        .with(Dimension::Phi, Interval::new(p0 as f64 * e, p1 as f64 * e))
}

type Input = (Volume, Vec<Frame>);

fn composite(inputs: &[Input], merge: &MergeFunction) -> (Volume, Vec<Frame>) {
    let group = inputs
        .iter()
        .enumerate()
        .map(|(part, (volume, frames))| Chunk {
            t_index: 0,
            part,
            volume: *volume,
            info: StreamInfo::origin(30),
            payload: ChunkPayload::Decoded {
                frames: frames.clone(),
                device: Device::Cpu,
            },
        })
        .collect();
    let mut out = composite_group(group, merge).expect("composite");
    assert_eq!(out.len(), 1, "inputs share one position");
    let chunk = out.remove(0);
    let ChunkPayload::Decoded { frames, .. } = chunk.payload else {
        panic!("decoded output expected")
    };
    (chunk.volume, frames)
}

/// The shapes `UNION`/`FLATTEN` meet: (name, inputs in union order).
fn union_cases() -> Vec<(&'static str, Vec<Input>)> {
    let rng = &mut Rng(0x0015);
    vec![
        (
            "same size, no ω",
            vec![
                (sphere(), frames(3, 64, 32, 0, rng)),
                (sphere(), frames(3, 64, 32, 0, rng)),
            ],
        ),
        (
            "same size, ω-dense overlay",
            vec![
                (sphere(), frames(3, 64, 32, 0, rng)),
                (sphere(), frames(3, 64, 32, 7, rng)),
            ],
        ),
        (
            "same size, all-ω overlay",
            vec![
                (sphere(), frames(2, 64, 32, 1, rng)),
                (sphere(), vec![Frame::filled(64, 32, OMEGA); 2]),
            ],
        ),
        (
            "ω holes in the first input",
            vec![
                (sphere(), frames(2, 64, 32, 4, rng)),
                (sphere(), frames(2, 64, 32, 4, rng)),
            ],
        ),
        (
            "static watermark, resized and broadcast",
            vec![
                (sphere(), frames(4, 64, 32, 0, rng)),
                (sphere(), frames(1, 16, 8, 5, rng)),
            ],
        ),
        (
            "equal overlay frames, resized",
            vec![
                (sphere(), frames(3, 64, 32, 0, rng)),
                (sphere(), vec![frame(16, 8, 3, rng); 3]),
            ],
        ),
        (
            "shorter overlay broadcasts its last frame",
            vec![
                (sphere(), frames(5, 64, 32, 0, rng)),
                (sphere(), frames(2, 32, 16, 4, rng)),
            ],
        ),
        (
            "overlay at an even offset inside the hull",
            vec![
                (sphere(), frames(2, 64, 32, 0, rng)),
                (patch(4, 8, 2, 4), frames(2, 16, 8, 3, rng)),
            ],
        ),
        (
            "overlay at an offset, upscaled",
            vec![
                (sphere(), frames(2, 64, 32, 0, rng)),
                (patch(3, 9, 1, 6), frames(2, 10, 6, 3, rng)),
            ],
        ),
        (
            "three inputs",
            vec![
                (sphere(), frames(3, 64, 32, 2, rng)),
                (patch(0, 8, 0, 8), frames(3, 32, 32, 4, rng)),
                (patch(6, 12, 2, 6), frames(1, 12, 8, 2, rng)),
            ],
        ),
        (
            "tiles that only together cover the hull",
            vec![
                (patch(0, 8, 0, 8), frames(2, 32, 32, 1, rng)),
                (patch(8, 16, 0, 8), frames(2, 32, 32, 1, rng)),
            ],
        ),
        (
            "small first input, denser second",
            vec![
                (patch(0, 4, 0, 4), frames(2, 8, 8, 2, rng)),
                (sphere(), frames(2, 64, 32, 3, rng)),
            ],
        ),
    ]
}

/// Golden digests captured at commit d3572aa (`UNION … LAST` through
/// `Frame::get`/`Frame::set`).
const UNION_LAST_GOLDEN: &[u64] = &[
    0x27b92edd1c515a3d, // same size, no ω
    0xc06c3fb5bde39e7d, // same size, ω-dense overlay
    0x245c8f381bb65857, // same size, all-ω overlay
    0x4cb68fe207ad6624, // ω holes in the first input
    0x18e25fa993e40b7f, // static watermark, resized and broadcast
    0x6d1cf4198d37b3be, // equal overlay frames, resized
    0xce1a713ec101ca44, // shorter overlay broadcasts its last frame
    0xb8cd8b69fc201251, // overlay at an even offset inside the hull
    0x4e428bc7fe8c41d2, // overlay at an offset, upscaled
    0x11410bf085260aff, // three inputs
    0x57a75576a875b402, // tiles that only together cover the hull
    0xb0d479e0016573c3, // small first input, denser second
];

#[test]
fn union_last_matches_golden_digests() {
    let got: Vec<(&str, u64)> = union_cases()
        .iter()
        .map(|(name, inputs)| (*name, digest(&composite(inputs, &MergeFunction::Last).1)))
        .collect();
    if got
        .iter()
        .map(|g| g.1)
        .ne(UNION_LAST_GOLDEN.iter().copied())
    {
        for (name, d) in &got {
            eprintln!("    0x{d:016x}, // {name}");
        }
        panic!("UNION digests drifted from UNION_LAST_GOLDEN (current values above)");
    }
}

#[test]
fn union_last_matches_the_per_pixel_oracle() {
    for (name, inputs) in union_cases() {
        assert_eq!(
            composite(&inputs, &MergeFunction::Last),
            oracle::composite(&inputs, &MergeFunction::Last),
            "{name}"
        );
    }
    // A seeded sweep over sizes, offsets, hole densities and lengths.
    let rng = &mut Rng(0x5eed);
    for round in 0..300 {
        let n = 1 + rng.below(3);
        let mut inputs = vec![(sphere(), frames(n, 32, 16, rng.below(9), rng))];
        if rng.below(4) == 0 {
            // First input smaller than the hull: the canvas starts as ω.
            inputs[0].0 = patch(
                rng.below(4),
                4 + rng.below(4),
                rng.below(3),
                3 + rng.below(3),
            );
        }
        for _ in 0..1 + rng.below(2) {
            let (t0, p0) = (rng.below(12), rng.below(6));
            let volume = match rng.below(3) {
                0 => sphere(),
                _ => patch(
                    t0,
                    t0 + 1 + rng.below(16 - t0),
                    p0,
                    p0 + 1 + rng.below(8 - p0),
                ),
            };
            let (w, h) = (2 + 2 * rng.below(20), 2 + 2 * rng.below(10));
            let len = 1 + rng.below(n);
            let mut ov = frames(len, w, h, rng.below(9), rng);
            if rng.below(3) == 0 {
                ov = vec![ov[0].clone(); len];
            }
            inputs.push((volume, ov));
        }
        assert_eq!(
            composite(&inputs, &MergeFunction::Last),
            oracle::composite(&inputs, &MergeFunction::Last),
            "round {round}"
        );
    }
}

/// Keyed `UNION`s whose overlay frames repeat by equality and change
/// every frame, composited on one thread and on two at once, against
/// the per-pixel oracle. The first overlay's frames are A, A′ (equal to
/// A, another index), B, A, at the size of their rect: the ω mask built
/// for A must serve A′ and be rebuilt for B and again for A. The
/// second's same-size frames never repeat, so each builds its own mask.
#[test]
fn keyed_union_reuses_its_mask_by_equality_and_rebuilds_it_on_change() {
    let rng = &mut Rng(0x3a5c);
    let (a, b) = (frame(32, 16, 5, rng), frame(32, 16, 5, rng));
    let cases = [
        vec![
            (sphere(), frames(4, 64, 32, 2, rng)),
            (patch(2, 10, 1, 5), vec![a.clone(), a.clone(), b, a]),
        ],
        vec![
            (sphere(), frames(4, 64, 32, 2, rng)),
            (sphere(), frames(4, 64, 32, 6, rng)),
        ],
    ];
    let last = &MergeFunction::Last;
    let want: Vec<_> = cases.iter().map(|c| oracle::composite(c, last)).collect();
    let one: Vec<_> = cases.iter().map(|c| composite(c, last)).collect();
    assert_eq!(one, want, "one thread");
    let two: Vec<_> = std::thread::scope(|s| {
        let running: Vec<_> = cases.iter().map(|c| s.spawn(|| composite(c, last))).collect();
        running.into_iter().map(|h| h.join().expect("composite")).collect()
    });
    assert_eq!(two, want, "two threads");
}

// ------------------------------------------------------------ merges

const A: Yuv = Yuv {
    y: 200,
    u: 90,
    v: 160,
};
const B: Yuv = Yuv {
    y: 100,
    u: 120,
    v: 130,
};

fn assert_uniform(frame: &Frame, want: Yuv, what: &str) {
    for y in 0..frame.height() {
        for x in 0..frame.width() {
            assert_eq!(frame.get(x, y), want, "{what} at ({x}, {y})");
        }
    }
}

#[derive(Debug)]
struct Brighter;

impl MergeUdf for Brighter {
    fn name(&self) -> &str {
        "brighter"
    }

    fn merge(&self, first: Yuv, second: Yuv) -> Yuv {
        if second.y > first.y {
            second
        } else {
            first
        }
    }
}

/// Every merge function over two full uniform frames: every luma
/// sample is merged (the per-pixel loop re-read the block's chroma
/// after its first write and lost three luma samples in four).
#[test]
fn merges_of_uniform_frames_are_uniform() {
    let inputs = [
        (sphere(), vec![Frame::filled(16, 8, A)]),
        (sphere(), vec![Frame::filled(16, 8, B)]),
    ];
    let mean = Yuv::new(150, 105, 145);
    let custom = MergeFunction::Custom(Arc::new(Brighter));
    for (merge, want) in [
        (MergeFunction::Last, B),
        (MergeFunction::First, A),
        (MergeFunction::Mean, mean),
        (custom, A),
    ] {
        let (_, out) = composite(&inputs, &merge);
        assert_uniform(&out[0], want, merge.name());
    }
}

/// ω pixels of the overlay leave the base alone under every merge,
/// wherever they sit in their 2×2 block; a block's chroma comes from
/// its last merged pixel.
#[test]
fn merges_skip_omega_pixels_of_the_overlay() {
    let base = Frame::filled(8, 4, A);
    // One overlay block per position-in-block pattern: chroma (0, 0)
    // everywhere, luma nonzero only where the pattern says.
    let patterns: [[bool; 4]; 4] = [
        [true, false, false, false],
        [false, false, false, true],
        [false, true, true, false],
        [false, false, false, false],
    ];
    let mut ov = Frame::filled(8, 4, OMEGA);
    for (b, pattern) in patterns.iter().enumerate() {
        for (i, &on) in pattern.iter().enumerate() {
            if on {
                ov.plane_mut(PlaneKind::Luma)[(i / 2) * 8 + 2 * b + i % 2] = 100;
            }
        }
    }
    let inputs = [(sphere(), vec![base]), (sphere(), vec![ov.clone()])];
    for merge in [
        MergeFunction::Last,
        MergeFunction::First,
        MergeFunction::Mean,
    ] {
        let (_, out) = composite(&inputs, &merge);
        for (b, pattern) in patterns.iter().enumerate() {
            let any = pattern.iter().any(|&on| on);
            for (i, &on) in pattern.iter().enumerate() {
                let (x, y) = (2 * b + i % 2, i / 2);
                assert!(is_omega(ov.get(x, y)) != on);
                let got = out[0].get(x, y);
                let s = Yuv::new(100, 0, 0);
                let want = match (&merge, on, any) {
                    // Untouched block.
                    (_, _, false) => A,
                    (MergeFunction::First, _, true) => A,
                    (MergeFunction::Last, true, _) => s,
                    // An ω pixel keeps its luma; the block's chroma is
                    // its neighbours' doing.
                    (MergeFunction::Last, false, true) => Yuv::new(A.y, s.u, s.v),
                    (_, true, _) => Yuv::new(150, 45, 80),
                    (_, false, true) => Yuv::new(A.y, 45, 80),
                };
                assert_eq!(got, want, "{} block {b} pixel {i}", merge.name());
            }
        }
    }
}

/// `FIRST` and `MEAN` at an odd block position inside a larger hull,
/// through a resized overlay, three inputs deep. (Patch edges are
/// powers of two of π/8, so the pixel rects are exact.)
#[test]
fn first_and_mean_at_an_offset_three_inputs_deep() {
    let c = Yuv::new(40, 200, 60);
    let inputs = [
        (sphere(), vec![Frame::filled(32, 16, A); 2]),
        (patch(1, 2, 1, 2), vec![Frame::filled(2, 2, B)]),
        (patch(1, 4, 1, 4), vec![Frame::filled(2, 2, c)]),
    ];
    // The canvas has two pixels per π/8 either way.
    let covered = |x: usize, y: usize| {
        (
            (2..4).contains(&x) && (2..4).contains(&y),
            (2..8).contains(&x) && (2..8).contains(&y),
        )
    };
    let half = |p: Yuv, q: Yuv| {
        let m = |a: u8, b: u8| ((a as u16 + b as u16) / 2) as u8;
        Yuv::new(m(p.y, q.y), m(p.u, q.u), m(p.v, q.v))
    };
    for merge in [MergeFunction::First, MergeFunction::Mean] {
        let (_, out) = composite(&inputs, &merge);
        assert_eq!(out.len(), 2);
        for f in &out {
            assert_eq!((f.width(), f.height()), (32, 16));
            for y in 0..16 {
                for x in 0..32 {
                    let want = match (&merge, covered(x, y)) {
                        (MergeFunction::First, _) | (_, (_, false)) => A,
                        (_, (false, true)) => half(A, c),
                        (_, (true, true)) => half(half(A, B), c),
                    };
                    assert_eq!(f.get(x, y), want, "{} at ({x}, {y})", merge.name());
                }
            }
        }
    }
}

// --------------------------------------------------------------- MAP

#[derive(Debug)]
struct Negative;

impl MapUdf for Negative {
    fn name(&self) -> &str {
        "negative"
    }

    fn apply(&self, frame: &Frame) -> Frame {
        let mut out = frame.clone();
        out.plane_mut(PlaneKind::Luma)
            .iter_mut()
            .for_each(|p| *p = 255 - *p);
        out
    }
}

fn map_functions() -> Vec<MapFunction> {
    vec![
        MapFunction::Builtin(BuiltinMap::Blur),
        MapFunction::Builtin(BuiltinMap::Sharpen),
        MapFunction::Builtin(BuiltinMap::Grayscale),
        MapFunction::Builtin(BuiltinMap::Focus),
        MapFunction::Custom(Arc::new(Negative)),
    ]
}

/// Chunks of 1, 3 and 7 frames at heights whose halves are odd (34,
/// 66: any split into row bands has a ragged one).
fn map_inputs() -> Vec<Chunk> {
    let rng = &mut Rng(0x3a9);
    [(1, 48, 34), (3, 48, 34), (7, 40, 66), (1, 40, 66)]
        .into_iter()
        .enumerate()
        .map(|(t, (n, w, h))| Chunk {
            t_index: t,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t as f64, t as f64 + 1.0)),
            info: StreamInfo::origin(30),
            payload: ChunkPayload::Decoded {
                frames: frames(n, w, h, 1, rng),
                device: Device::Cpu,
            },
        })
        .collect()
}

/// `MAP` as the executor runs it: `map_chunk` through the operator
/// driver, which runs the chunks of a batch on up to `threads` threads.
fn run_map(f: &MapFunction, device: Device, chunks: Vec<Chunk>, threads: usize) -> u64 {
    let on_device = move |c: Chunk| match c.payload {
        ChunkPayload::Decoded { frames, .. } => {
            Chunk { payload: ChunkPayload::Decoded { frames, device }, ..c }
        }
        ChunkPayload::Encoded { .. } => c,
    };
    let input: ChunkStream = Box::new(chunks.into_iter().map(on_device).map(Ok));
    let (f, metrics) = (f.clone(), Metrics::new());
    let out = par_flat_map_chunks_ctx(
        input,
        Parallelism::new(threads),
        QueryCtx::unbounded(),
        move |c, _| map_chunk(c, &f, &metrics).map(Some),
    );
    let mut h = 0;
    for c in out {
        let ChunkPayload::Decoded { frames, .. } = c.expect("map").payload else {
            panic!("decoded output expected")
        };
        h = fnv1a(&digest(&frames).to_le_bytes(), h);
    }
    h
}

/// Golden digests captured at commit d3572aa (serial `MAP` on
/// `Device::Cpu`), in `map_functions` order.
const MAP_GOLDEN: &[u64] = &[
    0x50431196a0d8e1e1, // BLUR
    0x87b789daa5352a7f, // SHARPEN
    0x381cbf4ca96301d8, // GRAYSCALE
    0x0ab5d00d8dc97eee, // FOCUS
    0xf1af38d65e2b6d74, // negative
];

/// One chunk alone in its batch (it gets the whole budget) and four
/// chunks sharing a batch, on either device, at 1, 2, 3 and 8 threads.
#[test]
fn map_output_is_the_same_at_every_thread_count_on_every_device() {
    let mut got = Vec::new();
    for f in map_functions() {
        let want = run_map(&f, Device::Cpu, map_inputs(), 1);
        got.push((f.name().to_string(), want));
        for device in [Device::Cpu, Device::Gpu] {
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    run_map(&f, device, map_inputs(), threads),
                    want,
                    "{} on {device:?} at {threads} threads",
                    f.name()
                );
                for (i, lone) in map_inputs().into_iter().enumerate() {
                    assert_eq!(
                        run_map(&f, device, vec![lone.clone()], threads),
                        run_map(&f, Device::Cpu, vec![lone], 1),
                        "{} chunk {i} alone on {device:?} at {threads} threads",
                        f.name()
                    );
                }
            }
        }
    }
    if got.iter().map(|g| g.1).ne(MAP_GOLDEN.iter().copied()) {
        for (name, d) in &got {
            eprintln!("    0x{d:016x}, // {name}");
        }
        panic!("MAP digests drifted from MAP_GOLDEN (current values above)");
    }
}
