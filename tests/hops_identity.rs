//! Encoded-domain queries return exactly the stored bytes they select.
//!
//! `GOPSELECT`, `GOPUNION` and `TILESELECT` never run the codec, so
//! their output is checkable byte for byte: against direct slicing of
//! the stored stream (whole GOPs, or `EncodedGop::extract_tile` of every
//! GOP), and against the same query on a `SERIAL` session. A GOP that
//! leaves whole is the buffer pool's own buffer, not a copy. `TILESELECT`
//! runs inside the scan, which walks each GOP's bytes once for just the
//! requested tiles; the chunk-domain operator it replaced survives as
//! the oracle under `crates/exec/tests/oracle/`, and the two must agree
//! on output, errors and skip/degrade accounting under every
//! `ReadPolicy` — with a checksum-damaged GOP, a GOP that does not
//! parse, and frames that lack tiles their header's grid promises.

#[path = "../crates/exec/tests/oracle/tile_select.rs"]
mod oracle;

/// The codec's parsed GOP, whose serialiser writes GOPs no
/// `EncodedGop` constructor accepts.
#[path = "../crates/codec/tests/oracle/gop.rs"]
mod gop_oracle;

use gop_oracle::{ParsedFrame, ParsedGop};
use lightdb::codec::{EncodedGop, Encoder, EncoderConfig, FrameType, SequenceHeader, VideoStream};
use lightdb::container::{checksum::checksum, GopIndexEntry, TlfDescriptor, Track, TrackRole};
use lightdb::exec::metrics::counters;
use lightdb::exec::{sources, ExecError, Executor, Metrics, PhysicalPlan};
use lightdb::geom::projection::ProjectionKind;
use lightdb::prelude::*;
use lightdb::storage::bufferpool::GopKey;
use lightdb::storage::faults::{self, sites, Fault};
use lightdb::storage::TrackWrite;
use std::f64::consts::PI;
use std::fs;
use std::time::Duration;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };
/// GOPs per stored stream; two frames each at 2 fps, so GOP `g` is the
/// second `[g, g + 1)`.
const GOPS: u64 = 8;

/// `n` 128×64 frames of a moving gradient.
fn frames(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| {
            let mut f = Frame::new(128, 64);
            for y in 0..64 {
                for x in 0..128 {
                    let v = ((x * 2 + y * 3 + i * 11) % 256) as u8;
                    f.set(x, y, Yuv::new(v, (x + i) as u8, (y * 4) as u8));
                }
            }
            f
        })
        .collect()
}

fn encode(grid: TileGrid) -> VideoStream {
    Encoder::new(EncoderConfig {
        gop_length: 2,
        fps: 2,
        qp: 26,
        grid,
        ..Default::default()
    })
    .unwrap()
    .encode(&frames(2 * GOPS as usize))
    .unwrap()
}

fn store(db: &LightDb, name: &str, stream: &VideoStream) {
    lightdb::ingest::store_stream(
        db,
        name,
        stream.clone(),
        Point3::ORIGIN,
        ProjectionKind::Equirectangular,
    )
    .unwrap();
}

/// A database holding the plain stream as `a` and `b` and the 4×4-tiled
/// one as `tiled`.
struct Fixture {
    db: LightDb,
    plain: VideoStream,
    tiled: VideoStream,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("lightdb-hops-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let db = LightDb::open(root).unwrap();
        let (plain, tiled) = (encode(TileGrid::SINGLE), encode(GRID));
        store(&db, "a", &plain);
        store(&db, "b", &plain);
        store(&db, "tiled", &tiled);
        Fixture { db, plain, tiled }
    }

    /// Runs `q` on the default session and on a `SERIAL` one, checks it
    /// planned to `op` without a decode and that both sessions agree,
    /// and returns each output part's GOP bytes.
    fn run_encoded(&self, q: &VrqlExpr, op: &str) -> Vec<Vec<Vec<u8>>> {
        let plan = self.db.explain(q).unwrap();
        assert!(plan.contains(op) && !plan.contains("DECODE"), "{plan}");
        let out = streams(self.db.execute(q).unwrap());
        let mut serial = self.db.session();
        serial.set_parallelism(Parallelism::SERIAL);
        assert_eq!(
            out,
            streams(serial.execute(q).unwrap()),
            "SERIAL differs: {plan}"
        );
        out.iter()
            .map(|s| s.gops.iter().map(EncodedGop::to_bytes).collect())
            .collect()
    }

    fn cleanup(self) {
        let root = self.db.catalog().root().to_path_buf();
        drop(self.db);
        let _ = fs::remove_dir_all(root);
    }
}

fn streams(out: QueryOutput) -> Vec<VideoStream> {
    match out {
        QueryOutput::Encoded(s) => s,
        QueryOutput::Unit => vec![],
        other => panic!(
            "expected encoded output, got {} frames",
            other.frame_count()
        ),
    }
}

/// GOPs `[lo, hi)` of `s`, serialised.
fn slice(s: &VideoStream, lo: u64, hi: u64) -> Vec<Vec<u8>> {
    s.gops[lo as usize..hi as usize]
        .iter()
        .map(EncodedGop::to_bytes)
        .collect()
}

fn time_range(tlf: &str, lo: u64, hi: u64) -> VrqlExpr {
    scan(tlf) >> Select::along(Dimension::T, lo as f64, hi as f64)
}

fn tile_range(c0: usize, c1: usize, r0: usize, r1: usize) -> VrqlExpr {
    let (dt, dp) = (2.0 * PI / GRID.cols as f64, PI / GRID.rows as f64);
    scan("tiled")
        >> Select::along(Dimension::Theta, c0 as f64 * dt, c1 as f64 * dt).and(
            Dimension::Phi,
            r0 as f64 * dp,
            r1 as f64 * dp,
        )
}

#[test]
fn gop_select_and_gop_union_return_the_stored_gops() {
    let fx = Fixture::new("gops");
    let mut rng = Rng(0x60b5);
    for _ in 0..12 {
        let lo = rng.below(GOPS);
        let hi = lo + 1 + rng.below(GOPS - lo);
        let got = fx.run_encoded(&time_range("a", lo, hi), "GOPSELECT");
        assert_eq!(
            got,
            vec![slice(&fx.plain, lo, hi)],
            "GOPSELECT [{lo}, {hi})"
        );

        let lo = rng.below(GOPS - 1);
        let hi = lo + 2 + rng.below(GOPS - lo - 1);
        let mid = lo + 1 + rng.below(hi - lo - 1);
        let q = union(
            vec![time_range("a", lo, mid), time_range("b", mid, hi)],
            MergeFunction::Last,
        );
        let mut want = slice(&fx.plain, lo, mid);
        want.extend(slice(&fx.plain, mid, hi));
        assert_eq!(
            fx.run_encoded(&q, "GOPUNION"),
            vec![want],
            "GOPUNION [{lo}, {mid}, {hi})"
        );
    }
    fx.cleanup();
}

/// `GOPSELECT` returns the buffer pool's bytes: every output GOP is the
/// pool's buffer for that GOP, shared, not a copy of it.
#[test]
fn gop_select_returns_the_buffer_pools_own_buffers() {
    let fx = Fixture::new("shared");
    let out = streams(fx.db.execute(&time_range("a", 2, 6)).unwrap());
    let stored = fx.db.catalog().read("a", None).unwrap();
    let track = &stored.metadata.tracks[0];
    let media = stored.media().path_of(&track.media_path).display().to_string();
    assert_eq!(out[0].gops.len(), 4);
    for (gop, entry) in out[0].gops.iter().zip(&track.gop_index[2..6]) {
        let key = GopKey { media: media.clone(), gop: entry.start_frame };
        let pooled = fx
            .db
            .pool()
            .get_gop::<std::io::Error>(&key, || panic!("GOP {} left the pool", entry.start_frame))
            .unwrap();
        assert_eq!(gop.as_bytes().as_ptr(), pooled.as_ptr(), "GOP {}", entry.start_frame);
    }
    fx.cleanup();
}

#[test]
fn tile_select_returns_every_tile_rectangle_of_a_four_by_four_grid() {
    let fx = Fixture::new("rects");
    for (c0, c1, r0, r1) in (0..4).flat_map(|c0| {
        (c0 + 1..=4).flat_map(move |c1| {
            (0..4).flat_map(move |r0| (r0 + 1..=4).map(move |r1| (c0, c1, r0, r1)))
        })
    }) {
        if (c0, c1, r0, r1) == (0, 4, 0, 4) {
            continue; // the whole sphere selects nothing
        }
        let want: Vec<Vec<Vec<u8>>> = (r0..r1)
            .flat_map(|r| (c0..c1).map(move |c| GRID.index_of(c, r)))
            .map(|t| {
                fx.tiled
                    .gops
                    .iter()
                    .map(|g| g.extract_tile(t).unwrap().to_bytes())
                    .collect()
            })
            .collect();
        let got = fx.run_encoded(&tile_range(c0, c1, r0, r1), "TILESELECT");
        assert_eq!(got, want, "TILESELECT cols {c0}..{c1} rows {r0}..{r1}");
    }
    fx.cleanup();
}

/// FNV-1a over every output frame's planes.
fn frames_digest(parts: &[Vec<Frame>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in parts.iter().flatten() {
        for kind in [
            lightdb::frame::PlaneKind::Luma,
            lightdb::frame::PlaneKind::Cb,
            lightdb::frame::PlaneKind::Cr,
        ] {
            for &b in f.plane(kind) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// A selection off the tile grid plans as `TILESELECT` of the covering
/// tiles, a decode of just those, and a frame-level trim.
#[test]
fn misaligned_angular_selection_decodes_only_the_covering_tiles() {
    let fx = Fixture::new("cover");
    let q =
        scan("tiled") >> Select::along(Dimension::Theta, 0.4, 2.0).and(Dimension::Phi, 0.3, 1.2);
    let plan = fx.db.explain(&q).unwrap();
    assert!(
        plan.contains("TILESELECT([0, 1, 4, 5])") && plan.contains("DECODE"),
        "{plan}"
    );
    let parts = fx.db.execute(&q).unwrap().into_frame_parts().unwrap();
    let mut serial = fx.db.session();
    serial.set_parallelism(Parallelism::SERIAL);
    assert_eq!(
        parts,
        serial.execute(&q).unwrap().into_frame_parts().unwrap()
    );
    assert_eq!(
        parts.iter().map(Vec::len).sum::<usize>(),
        4 * 2 * GOPS as usize
    );
    assert_eq!(frames_digest(&parts), COVERING_DIGEST);
    fx.cleanup();
}

/// The misaligned selection's frames, recorded before the scan took
/// `TILESELECT` over.
const COVERING_DIGEST: u64 = 0xc9ed_1054_08c4_b84f;

/// Runs `TILESELECT(tiles)` over `SCAN(name)` twice under `policy` —
/// through the executor (the tile-projecting scan) and through the
/// chunk-domain oracle over a whole-GOP scan — and checks both return
/// the same streams or the same error, with the same skip and degrade
/// counts.
fn assert_scan_matches_oracle(db: &LightDb, name: &str, tiles: &[usize], policy: ReadPolicy) {
    let what = format!("{name} tiles {tiles:?} under {policy:?}");
    let mut exec = Executor::new(db.catalog().clone(), db.pool().clone());
    exec.read_policy = policy;
    let scan = || PhysicalPlan::ScanTlf {
        name: name.into(),
        version: None,
        t_frames: None,
        spatial: None,
    };
    let plan = PhysicalPlan::TileSelect {
        input: Box::new(scan()),
        tiles: tiles.to_vec(),
    };
    let fused = exec.run(&plan).map(streams);

    let metrics = Metrics::new();
    let unfused = sources::scan_tlf(
        db.catalog(),
        db.pool(),
        name,
        None,
        None,
        None,
        None,
        true,
        policy,
        metrics.clone(),
        QueryCtx::unbounded(),
    )
    .and_then(|s| oracle::collect_streams(oracle::tile_select(s, tiles.to_vec(), metrics.clone())));

    match (&fused, &unfused) {
        (Ok(f), Ok(u)) => assert_eq!(f, u, "{what}"),
        (Err(f), Err(u)) => assert_eq!(format!("{f:?}"), format!("{u:?}"), "{what}"),
        (f, u) => panic!("{what}: fused {f:?} vs oracle {u:?}"),
    }
    for counter in [counters::SKIPPED_GOPS, counters::DEGRADED_GOPS] {
        assert_eq!(
            exec.metrics.counter(counter),
            metrics.counter(counter),
            "{counter}: {what}"
        );
    }
    assert_eq!(exec.metrics.open_spans(), 0, "{what}");
}

const POLICIES: [ReadPolicy; 3] = [
    ReadPolicy::Fail,
    ReadPolicy::SkipCorruptGops { max_skipped: 4 },
    ReadPolicy::Degrade { max_degraded: 4 },
];

#[test]
fn tile_projecting_scan_matches_the_chunk_domain_oracle_on_a_damaged_gop() {
    let fx = Fixture::new("crc");
    // Flip one byte inside GOP 3's range on disk: it fails its CRC.
    let stored = fx.db.catalog().read("tiled", None).unwrap();
    let track = &stored.metadata.tracks[0];
    let entry = track.gop_index[3];
    let path = stored.dir.join(&track.media_path);
    let mut bytes = fs::read(&path).unwrap();
    bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    for policy in POLICIES {
        for tiles in [vec![5], vec![0, 3, 12, 15], vec![14, 9, 9], vec![2, 16, 1]] {
            assert_scan_matches_oracle(&fx.db, "tiled", &tiles, policy);
        }
    }
    fx.cleanup();
}

/// Stores a hand-built 64×32 stream as `name`, whose header promises a
/// 2×2 grid. GOP 1 begins with a predicted frame (its bytes pass their
/// checksum but do not parse); GOP 2's second frame has three tiles, not
/// four. The payloads are never decoded. No writer makes such a stream,
/// so its media file and GOP index are written here.
fn store_hand_built(db: &LightDb, name: &str) {
    let header = SequenceHeader {
        codec: CodecKind::HevcSim,
        width: 64,
        height: 32,
        fps: 2,
        gop_length: 2,
        grid: TileGrid::new(2, 2),
    };
    let frame = |frame_type, tiles: usize, seed: u8| ParsedFrame {
        frame_type,
        tiles: (0..tiles).map(|t| vec![seed ^ t as u8; 3 + t]).collect(),
    };
    let gop = |i: u8| ParsedGop {
        frames: match i {
            1 => vec![
                frame(FrameType::Predicted, 4, i),
                frame(FrameType::Predicted, 4, i + 1),
            ],
            2 => vec![
                frame(FrameType::Key, 4, i),
                frame(FrameType::Predicted, 3, i + 1),
            ],
            _ => vec![
                frame(FrameType::Key, 4, i),
                frame(FrameType::Predicted, 4, i + 1),
            ],
        },
    };
    let gops: Vec<Vec<u8>> = (0..4).map(|i| gop(i).to_bytes()).collect();
    // Magic and header as the stream writer lays them out, then the
    // length-prefixed GOPs.
    let mut media = VideoStream { header, gops: vec![] }.to_bytes();
    media.pop(); // the GOP count, 0
    lightdb::codec::bitio::write_varint(&mut media, gops.len() as u64);
    let mut gop_index = Vec::new();
    for (i, bytes) in gops.iter().enumerate() {
        lightdb::codec::bitio::write_varint(&mut media, bytes.len() as u64);
        gop_index.push(GopIndexEntry {
            start_frame: 2 * i as u64,
            frame_count: 2,
            byte_offset: media.len() as u64,
            byte_len: bytes.len() as u64,
            crc32: checksum(bytes),
        });
        media.extend_from_slice(bytes);
    }
    let dir = db.catalog().root().join(name);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("hand_built.lvc"), media).unwrap();
    let track = Track {
        role: TrackRole::Video,
        codec: header.codec,
        projection: ProjectionKind::Equirectangular,
        media_path: "hand_built.lvc".into(),
        gop_index,
    };
    let tlf = TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 4.0), 0);
    db.catalog().store(name, vec![TrackWrite::Existing(track)], tlf).unwrap();
}

#[test]
fn tile_projecting_scan_matches_the_chunk_domain_oracle_on_a_grid_mismatch() {
    let fx = Fixture::new("ragged");
    store_hand_built(&fx.db, "ragged");
    for policy in POLICIES {
        // Tiles every frame has; one GOP 2 lacks; one outside the grid
        // first and last; a repeat.
        for tiles in [
            vec![0, 1],
            vec![3],
            vec![2, 3, 0],
            vec![4, 0],
            vec![0, 4],
            vec![1, 1],
        ] {
            assert_scan_matches_oracle(&fx.db, "ragged", &tiles, policy);
        }
    }
    // A frame without a requested tile fails the query whatever the
    // policy: the stored GOP parsed, so there is nothing to skip.
    let mut exec = Executor::new(fx.db.catalog().clone(), fx.db.pool().clone());
    exec.read_policy = ReadPolicy::SkipCorruptGops { max_skipped: 4 };
    let plan = PhysicalPlan::TileSelect {
        input: Box::new(PhysicalPlan::ScanTlf {
            name: "ragged".into(),
            version: None,
            t_frames: None,
            spatial: None,
        }),
        tiles: vec![3],
    };
    let err = exec.run(&plan).unwrap_err();
    assert!(
        matches!(&err, ExecError::Codec(lightdb::codec::CodecError::Incompatible(m)) if m == "tile 3 out of range"),
        "{err:?}"
    );
    assert_eq!(
        exec.metrics.counter(counters::SKIPPED_GOPS),
        1,
        "GOP 1 skipped, then GOP 2 failed"
    );
    // TILESELECT reads a SCAN and nothing else.
    let over_omega = PhysicalPlan::TileSelect {
        input: Box::new(PhysicalPlan::Omega {
            volume: Volume::everywhere(),
        }),
        tiles: vec![0],
    };
    assert!(matches!(exec.run(&over_omega), Err(ExecError::Domain(_))));
    fx.cleanup();
}

/// A cancel landing while the scan waits on a slow GOP read stops the
/// query with `Cancelled` and leaves no span open and no admission held.
#[test]
fn cancel_mid_tile_scan_leaves_nothing_behind() {
    let fx = Fixture::new("cancel");
    // Every GOP read stalls 40 ms on this thread, where the scan runs.
    faults::reset();
    faults::arm(sites::MEDIA_READ, Fault::Delay { ms: 40 });
    let ctx = QueryCtx::unbounded().with_mem_estimate(1 << 20);
    let token = ctx.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        token.cancel();
    });
    let result = fx.db.execute_with_ctx(&tile_range(1, 3, 0, 2), ctx);
    canceller.join().unwrap();
    faults::reset();
    match result {
        Err(lightdb::Error::Exec(ExecError::Cancelled)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(
        fx.db.pool().admitted(),
        0,
        "cancelled scan leaked its admission"
    );
    assert_eq!(
        fx.db.metrics().open_spans(),
        0,
        "cancelled scan left a span open"
    );
    fx.cleanup();
}
