//! Steady-state allocation accounting.
//!
//! The codec's contract after the kernel overhaul: encode and decode
//! perform **zero heap allocations per macroblock**. The allocations
//! that remain are per-frame/per-tile outputs (payload vectors,
//! returned frames) plus a bounded number of scratch-buffer growths —
//! none of which scale with the number of macroblocks processed.
//!
//! The test pins that down with a counting global allocator: encoding
//! and decoding a 128×128 stream (64 macroblocks per frame) must cost
//! at most a small constant more allocations than a 32×32 stream
//! (4 macroblocks per frame) with the same frame count and GOP/tile
//! structure. Any per-macroblock allocation would add hundreds.
//!
//! The same allocator, counting bytes, pins the parsers' other
//! contract: a length prefix reserves no more than the bytes behind it
//! could hold.
//!
//! A decode that fans out allocates on its helper threads too, so the
//! allocator also keeps a count across every thread. The tests in this
//! file take turns, so that count sees only the test that reads it.

use lightdb_codec::{
    CodecError, CodecKind, Decoder, EncodedGop, Encoder, EncoderConfig, SequenceHeader, TileGrid,
    VideoStream,
};
use lightdb_frame::{Frame, Yuv};
use lightdb_codec::scratch::DecoderScratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

/// Allocations on every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by every test here, so one test's allocations never land in
/// another's [`ALL_ALLOCS`] window.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method delegates to the `System` allocator unchanged;
// the only extra work is a thread-local counter bump via `try_with`,
// which never allocates, panics, or recurses into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` verbatim to `System.alloc`, which
    // upholds the GlobalAlloc contract for the returned pointer.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the counter itself must never allocate or panic,
        // even during TLS teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's (ptr, layout) pair, which the
    // GlobalAlloc contract guarantees came from a matching alloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a prior `System.alloc` with
        // the same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's (ptr, layout, new_size) triple
    // unchanged; System.realloc upholds the contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout describe a live allocation from this
        // allocator and new_size is non-zero, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f`, returning (allocations on this thread, result).
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = ALLOCS.with(|c| c.get());
    let r = f();
    (ALLOCS.with(|c| c.get()) - start, r)
}

/// Runs `f`, returning (allocations on every thread, result).
fn count_all<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = ALL_ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALL_ALLOCS.load(Ordering::Relaxed) - start, r)
}

/// Runs `f`, returning (bytes requested on this thread, result).
fn count_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = BYTES.with(|c| c.get());
    let r = f();
    (BYTES.with(|c| c.get()) - start, r)
}

fn scene(w: usize, h: usize, n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 3 * i) as f64 / 9.0).sin() * 60.0
                        + (y as f64 / 7.0).cos() * 50.0
                        + 128.0) as u8;
                    f.set(x, y, Yuv::new(v, (x % 256) as u8, (y % 256) as u8));
                }
            }
            f
        })
        .collect()
}

/// Extra allocations tolerated on the large run: covers geometric
/// scratch-buffer growth (log-bounded in payload size) with room to
/// spare. The 128×128 run has 360 more macroblocks than the 32×32 run
/// (×6 blocks each), so even a single allocation per macroblock or
/// per block would blow through this.
const SLACK: u64 = 64;

#[test]
fn codec_allocations_do_not_scale_with_macroblock_count() {
    let _turn = exclusive();
    let n = 6;
    let small = scene(32, 32, n);
    let big = scene(128, 128, n);
    let enc = Encoder::new(EncoderConfig {
        qp: 18,
        gop_length: 3, // two GOPs: exercises cross-GOP scratch reuse
        grid: TileGrid::new(2, 2),
        ..Default::default()
    })
    .unwrap();

    // Warm-up: lazy statics (DCT bases, quantiser tables) and the
    // allocator's own bookkeeping.
    let _ = enc.encode(&small).unwrap();

    let (a_small, s_small) = count(|| enc.encode(&small).unwrap());
    let (a_big, s_big) = count(|| enc.encode(&big).unwrap());
    assert!(
        a_big <= a_small + SLACK,
        "encode allocations scale with macroblock count: {a_small} (32×32) vs {a_big} (128×128)"
    );

    let dec = Decoder::new();
    let _ = dec.decode(&s_small).unwrap();
    let (d_small, f_small) = count(|| dec.decode(&s_small).unwrap());
    let (d_big, f_big) = count(|| dec.decode(&s_big).unwrap());
    assert_eq!(f_small.len(), n);
    assert_eq!(f_big.len(), n);
    assert!(
        d_big <= d_small + SLACK,
        "decode allocations scale with macroblock count: {d_small} (32×32) vs {d_big} (128×128)"
    );

    // Sanity: the decoded output really is 16× the pixel volume, so
    // the flat allocation profile isn't an artifact of equal work.
    assert_eq!(f_big[0].sample_count(), 16 * f_small[0].sample_count());
}

/// LEB128 of 2²⁰ and 2²⁴, the largest counts the parsers accept.
const FRAMES_2_20: [u8; 3] = [0x80, 0x80, 0x40];
const GOPS_2_24: [u8; 4] = [0x80, 0x80, 0x80, 0x08];

#[test]
fn a_hostile_count_reserves_no_more_than_its_input_could_hold() {
    let _turn = exclusive();
    // 2²⁰ frames claimed by 3 bytes; the walker and the parser alike.
    let (bytes, r) = count_bytes(|| EncodedGop::from_bytes(&FRAMES_2_20));
    assert!(matches!(r, Err(CodecError::Corrupt(_))), "{r:?}");
    assert!(bytes < 4096, "from_bytes requested {bytes} bytes for a 3-byte input");
    let (bytes, r) = count_bytes(|| EncodedGop::extract_tile_bytes(&FRAMES_2_20, 0));
    assert!(matches!(r, Err(CodecError::Corrupt(_))), "{r:?}");
    assert!(bytes < 4096, "extract_tile_bytes requested {bytes} bytes for a 3-byte input");
    // The multi-tile walker sizes each output by the count, so the same
    // claim padded to 16 bytes (a first frame that does not parse), for
    // four tiles at once.
    let mut padded = FRAMES_2_20.to_vec();
    padded.resize(16, 0xff);
    let (bytes, r) = count_bytes(|| EncodedGop::extract_tiles(&padded, &[0, 3, 1, 2]));
    assert!(matches!(r, Err(CodecError::Corrupt(_))), "{r:?}");
    assert!(bytes < 4096, "extract_tiles requested {bytes} bytes for a 16-byte input");

    // One frame claiming 4096 tiles, then nothing.
    let frame = [1, 3, 0, 0x80, 0x20];
    let (bytes, r) = count_bytes(|| EncodedGop::from_bytes(&frame));
    assert!(matches!(r, Err(CodecError::Corrupt(_))), "{r:?}");
    assert!(bytes < 4096, "from_bytes requested {bytes} bytes for a 5-byte input");

    // A stream file: magic, a valid header, 2²⁴ GOPs claimed.
    let header = SequenceHeader {
        codec: CodecKind::H264Sim,
        width: 32,
        height: 32,
        fps: 4,
        gop_length: 4,
        grid: TileGrid::SINGLE,
    };
    let mut stream = VideoStream { header, gops: vec![] }.to_bytes();
    stream.pop(); // the GOP count, 0
    stream.extend_from_slice(&GOPS_2_24);
    assert!(stream.len() <= 16, "{} bytes", stream.len());
    let (bytes, r) = count_bytes(|| VideoStream::from_bytes(&stream));
    assert!(matches!(r, Err(CodecError::Corrupt(_))), "{r:?}");
    assert!(bytes < 4096, "VideoStream::from_bytes requested {bytes} bytes for {} bytes", stream.len());
}

#[test]
fn the_tile_walkers_allocate_only_their_output() {
    let _turn = exclusive();
    let stream = Encoder::new(EncoderConfig {
        qp: 22,
        gop_length: 4,
        grid: TileGrid::new(4, 4),
        ..Default::default()
    })
    .unwrap()
    .encode(&scene(128, 64, 4))
    .unwrap();
    let bytes = stream.gops[0].to_bytes();
    for tiles in [vec![5], vec![0, 5, 10, 15], (0..15).collect::<Vec<usize>>()] {
        // Each output is one exactly-sized buffer and the reference count
        // that shares it; then the list. Nothing per frame, nothing per
        // tile left behind.
        let (allocs, _) = count(|| EncodedGop::extract_tiles(&bytes, &tiles).unwrap());
        assert_eq!(allocs, 2 * tiles.len() as u64 + 1, "extract_tiles({tiles:?})");
    }
    let (allocs, _) = count(|| EncodedGop::extract_tile_bytes(&bytes, 7).unwrap());
    assert_eq!(allocs, 1, "extract_tile_bytes allocates its output and nothing else");
}

/// A GOP made from the buffer pool's bytes is those bytes: checking them
/// allocates nothing, and the GOP's bytes are the buffer's.
#[test]
fn the_sharing_constructor_allocates_nothing() {
    let _turn = exclusive();
    let stream = Encoder::new(EncoderConfig { qp: 22, gop_length: 4, grid: TileGrid::new(4, 4), ..Default::default() })
        .unwrap()
        .encode(&scene(128, 64, 4))
        .unwrap();
    let pooled = std::sync::Arc::new(stream.gops[0].to_bytes());
    let (allocs, gop) = count(|| EncodedGop::from_shared(pooled.clone()).unwrap());
    assert_eq!(allocs, 0);
    assert_eq!(gop.as_bytes().as_ptr(), pooled.as_ptr());
    // Reading it whole allocates nothing either.
    let (allocs, tiles) = count(|| gop.frames().map(|f| f.tiles().count()).sum::<usize>());
    assert_eq!((allocs, tiles), (0, 4 * 16));
}

/// Fan-out cost of one 2-thread decode of an `n`-frame `w × h` GOP,
/// after warm-up: its allocations on every thread, less the one-thread
/// decode's (the pin above: its output frames and nothing else).
fn fan_out_allocations(w: usize, h: usize, n: usize) -> u64 {
    let stream = Encoder::new(EncoderConfig { qp: 22, gop_length: n, ..Default::default() })
        .unwrap()
        .encode(&scene(w, h, n))
        .unwrap();
    let (header, gop) = (&stream.header, &stream.gops[0]);
    let dec = Decoder::new();
    let (mut one, mut two) = (DecoderScratch::new(), DecoderScratch::new());
    // Warm-up: the residual buffers reach their size, and each thread's
    // lazy state is built.
    for _ in 0..3 {
        dec.decode_gop_scratch(header, gop, &mut one, 1).unwrap();
        dec.decode_gop_scratch(header, gop, &mut two, 2).unwrap();
    }
    let (serial, a) = count_all(|| dec.decode_gop_scratch(header, gop, &mut one, 1).unwrap());
    let (threaded, b) = count_all(|| dec.decode_gop_scratch(header, gop, &mut two, 2).unwrap());
    assert_eq!(a, b);
    assert_eq!(a.len(), n);
    threaded.saturating_sub(serial)
}

/// Most a fan-out may allocate per call: the helper thread, the two
/// channels, the reorder slots, the residual buffers lent to the helper. A per-frame allocation would add 20 to
/// 30 frames' cost over 10 frames', a per-macroblock one thousands.
const FAN_OUT_MAX: u64 = 32;

#[test]
fn a_threaded_decode_allocates_its_frames_and_a_fixed_cost() {
    let _turn = exclusive();
    let costs = [(64, 64, 30), (256, 128, 30), (256, 128, 10)]
        .map(|(w, h, n)| ((w, h, n), fan_out_allocations(w, h, n)));
    for &(gop, cost) in &costs {
        assert!(
            cost <= FAN_OUT_MAX,
            "{gop:?}: a 2-thread decode allocated {cost} beyond its frames"
        );
    }
    let cost = |pick: fn(u64, u64) -> u64| costs.iter().map(|c| c.1).reduce(pick).unwrap();
    let spread = cost(u64::max) - cost(u64::min);
    assert!(spread <= 4, "fan-out cost grows with frames or macroblocks: {costs:?}");
}
