//! Seeded input generation shared by the workloads: the generator,
//! procedural frames, encoding, hashing and a small parallel map.
//!
//! Everything the engine sees comes from here and is a pure function
//! of `--seed`: the same seed gives byte-identical frames, streams,
//! query lists and traces.

use lightdb::codec::{CodecKind, Encoder, EncoderConfig, TileGrid, VideoStream};
use lightdb::frame::{Frame, PlaneKind};
use lightdb::geom::projection::ProjectionKind;
use lightdb::geom::Point3;
use lightdb::LightDb;
use lightdb_datasets::{Dataset, DatasetSpec};

/// SplitMix64: tiny, seedable, and good enough to shuffle op lists.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed, so
    /// adding a draw in one place never shifts another's sequence.
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over byte slices: the output digest the same seed must
/// reproduce.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn add_frames(&mut self, frames: &[Frame]) {
        for f in frames {
            for plane in [PlaneKind::Luma, PlaneKind::Cb, PlaneKind::Cr] {
                self.add(f.plane(plane));
            }
        }
    }

    pub(crate) fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `n` consecutive procedural frames of `dataset` starting at frame
/// `start` (the seed picks `start`, so each seed sees another stretch
/// of the same scene with the same motion statistics).
pub(crate) fn scene_frames(
    dataset: Dataset,
    width: usize,
    height: usize,
    fps: u32,
    start: usize,
    n: usize,
) -> Vec<Frame> {
    let spec = DatasetSpec {
        width,
        height,
        fps,
        seconds: 1,
        qp: 22,
    };
    (0..n)
        .map(|i| lightdb_datasets::frame(dataset, &spec, start + i))
        .collect()
}

/// Adds seeded luma grain of amplitude `amp`. The procedural scenes
/// compress to a few hundred bytes per tile; grain gives tiles the
/// kilobyte sizes real 360° video has, so cache budgets mean something.
pub(crate) fn add_grain(frames: &mut [Frame], rng: &mut Rng, amp: i32) {
    let span = 2 * amp as u64 + 1;
    for f in frames {
        for b in f.plane_mut(PlaneKind::Luma) {
            let n = rng.below(span) as i32 - amp;
            *b = (i32::from(*b) + n).clamp(0, 255) as u8;
        }
    }
}

/// Encodes `frames` (HEVC-sim) into closed GOPs of `gop` frames.
pub(crate) fn encode(
    frames: &[Frame],
    fps: u32,
    gop: usize,
    qp: u8,
    grid: TileGrid,
) -> VideoStream {
    Encoder::new(EncoderConfig {
        codec: CodecKind::HevcSim,
        qp,
        grid,
        gop_length: gop,
        fps,
    })
    .expect("valid encoder config")
    .encode(frames)
    .expect("encode generated frames")
}

/// Stores an encoded stream as a new version of `name`.
pub(crate) fn store(db: &LightDb, name: &str, stream: VideoStream) -> Result<u64, String> {
    lightdb::ingest::store_stream(
        db,
        name,
        stream,
        Point3::ORIGIN,
        ProjectionKind::Equirectangular,
    )
    .map_err(|e| format!("store {name}: {e}"))
}

/// Cores the load generator and the engine may use.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on at most `nproc` threads, keeping order.
pub(crate) fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let threads = nproc().min(items.len()).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    let done: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            return out;
                        }
                        out.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input worker panicked"))
            .collect()
    });
    for (i, v) in done.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item mapped"))
        .collect()
}

/// Total size of every regular file under `dir`.
pub(crate) fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_are_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn digest_is_length_delimited() {
        let mut a = Digest::new();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::new();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn par_map_keeps_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            par_map(&items, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }
}
