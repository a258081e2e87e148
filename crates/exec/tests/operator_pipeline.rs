//! One plan through every unary operator the executor drives —
//! GOPSELECT, KEYFRAMESELECT, DECODE, TRANSFER, UNION, SELECT, MAP,
//! DISCRETIZE, ROTATE, TRANSLATE, INTERPOLATE, PARTITION, FLATTEN and
//! ENCODE — at 1 and 4 threads, run twice on one executor so the
//! second run is served by the shared decode cache. Pinned: the output
//! bytes, every `report_wall` row's `(op, count)` (the per-operator
//! breakdown Fig 11 reads), and the `decode.*`, `encode.*` and
//! `shared_scan.*` counters. Nothing here depends on how the executor
//! wires its operators together, so the same values must hold before
//! and after any restructuring of it.

use lightdb_codec::{CodecKind, Encoder, EncoderConfig};
use lightdb_container::{TlfDescriptor, TrackRole};
use lightdb_core::algebra::{MergeFunction, VolumePredicate};
use lightdb_core::udf::{BuiltinInterp, BuiltinMap, InterpFunction, MapFunction};
use lightdb_exec::sharedscan::SharedDecode;
use lightdb_exec::{Device, Executor, Parallelism, PhysicalPlan, QueryOutput};
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::projection::ProjectionKind;
use lightdb_geom::{Dimension, Interval, Point3};
use lightdb_storage::catalog::TrackWrite;
use lightdb_storage::{BufferPool, Catalog};
use std::f64::consts::PI;
use std::sync::Arc;

/// Four one-second GOPs of four 64×32 frames.
fn seed(catalog: &Catalog) {
    let frames: Vec<Frame> = (0..16)
        .map(|i| {
            let mut f = Frame::new(64, 32);
            for y in 0..32 {
                for x in 0..64 {
                    let luma = ((x * 7 + y * 3 + i * 11) % 200 + 30) as u8;
                    f.set(x, y, Yuv::new(luma, (96 + x + i) as u8, (160 - y) as u8));
                }
            }
            f
        })
        .collect();
    let config = EncoderConfig { gop_length: 4, fps: 4, qp: 22, ..Default::default() };
    let stream = Encoder::new(config).unwrap().encode(&frames).unwrap();
    let track = TrackWrite::New {
        role: TrackRole::Video,
        projection: ProjectionKind::Equirectangular,
        stream,
    };
    let tlf = TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 4.0), 0);
    catalog.store("src", vec![track], tlf).unwrap();
}

fn the_plan() -> PhysicalPlan {
    let scan = || {
        Box::new(PhysicalPlan::ScanTlf {
            name: "src".into(),
            version: None,
            t_frames: None,
            spatial: None,
        })
    };
    let gops = PhysicalPlan::ToFrames {
        input: Box::new(PhysicalPlan::GopSelect { input: scan(), t_frames: (4, 15) }),
        device: Device::Cpu,
    };
    let keyframes = PhysicalPlan::Transfer {
        input: Box::new(PhysicalPlan::ToFrames {
            input: Box::new(PhysicalPlan::KeyframeSelect { input: scan() }),
            device: Device::Cpu,
        }),
        to: Device::Gpu,
    };
    let union = PhysicalPlan::UnionFrames {
        inputs: vec![gops, keyframes],
        merge: MergeFunction::Mean,
        device: Device::Cpu,
    };
    let select = PhysicalPlan::SelectFrames {
        input: Box::new(union),
        predicate: VolumePredicate::any()
            .with(Dimension::T, Interval::new(0.5, 3.5))
            .with(Dimension::Theta, Interval::new(0.0, PI)),
        device: Device::Cpu,
    };
    let map = PhysicalPlan::MapFrames {
        input: Box::new(select),
        f: MapFunction::Builtin(BuiltinMap::Blur),
        device: Device::Cpu,
    };
    let discretize = PhysicalPlan::DiscretizeFrames {
        input: Box::new(map),
        steps: vec![(Dimension::Theta, PI / 16.0)],
        device: Device::Cpu,
    };
    let rotate = PhysicalPlan::RotateFrames {
        input: Box::new(discretize),
        dtheta: PI / 2.0,
        dphi: 0.0,
        device: Device::Cpu,
    };
    let translate = PhysicalPlan::TranslateChunks {
        input: Box::new(rotate),
        dx: 0.0,
        dy: 0.0,
        dz: 0.0,
        dt: 1.0,
    };
    let interpolate = PhysicalPlan::InterpolateFrames {
        input: Box::new(translate),
        f: InterpFunction::Builtin(BuiltinInterp::Linear),
        device: Device::Cpu,
    };
    let partition = PhysicalPlan::PartitionChunks {
        input: Box::new(interpolate),
        spec: vec![(Dimension::T, 1.0), (Dimension::Theta, PI / 2.0), (Dimension::Phi, PI / 2.0)],
    };
    let flatten = PhysicalPlan::FlattenChunks { input: Box::new(partition) };
    PhysicalPlan::FromFrames {
        input: Box::new(flatten),
        device: Device::Cpu,
        codec: CodecKind::HevcSim,
        qp: 24,
    }
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What one executor reports after running the plan twice.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per run: output byte count and FNV-1a digest.
    outputs: Vec<(usize, u64)>,
    walls: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
}

fn observe(threads: usize) -> Observed {
    let root = std::env::temp_dir()
        .join(format!("lightdb-exec-operator-pipeline-{threads}-{}", std::process::id()));
    match std::fs::remove_dir_all(&root) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("clearing {}: {e}", root.display()),
    }
    let catalog = Arc::new(Catalog::open(&root).unwrap());
    seed(&catalog);
    let mut exec = Executor::new(catalog, Arc::new(BufferPool::new(8 << 20)));
    exec.parallelism = Parallelism::new(threads);
    exec.shared_decode = Some(Arc::new(SharedDecode::new(32 << 20)));
    let plan = the_plan();
    let outputs = (0..2)
        .map(|_| {
            let QueryOutput::Encoded(streams) = exec.run(&plan).unwrap() else {
                panic!("ENCODE at the root yields encoded streams")
            };
            let bytes: Vec<u8> = streams.iter().flat_map(|s| s.to_bytes()).collect();
            (bytes.len(), fnv1a(&bytes, 0xcbf2_9ce4_8422_2325))
        })
        .collect();
    // `report_wall` sorts by busy time, which varies run to run.
    let mut walls: Vec<(String, u64)> = exec
        .metrics
        .report_wall()
        .into_iter()
        .map(|(op, _, _, count)| (op.to_string(), count))
        .collect();
    walls.sort();
    let counters = exec
        .metrics
        .counters()
        .into_iter()
        .filter(|(name, _)| ["decode.", "encode.", "shared_scan."].iter().any(|p| name.starts_with(p)))
        .map(|(name, n)| (name.to_string(), n))
        .collect();
    drop(exec);
    std::fs::remove_dir_all(&root).unwrap();
    Observed { outputs, walls, counters }
}

fn pinned() -> Observed {
    let owned = |rows: &[(&str, u64)]| rows.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    Observed {
        outputs: OUTPUTS.to_vec(),
        walls: owned(WALLS),
        counters: owned(COUNTERS),
    }
}

/// Captured at commit 4b39aeb, where every operator but DECODE,
/// ENCODE, MAP and SUBQUERY still built its own stream.
const OUTPUTS: &[(usize, u64)] = &[(821, 0x3b91_d124_9d2a_9b08), (821, 0x3b91_d124_9d2a_9b08)];
const WALLS: &[(&str, u64)] = &[
    ("DECODE", 7),
    ("DISCRETIZE", 6),
    ("ENCODE", 6),
    ("FLATTEN", 6),
    ("GOPSELECT", 8),
    ("INTERPOLATE", 6),
    ("KEYFRAMESELECT", 8),
    ("MAP", 6),
    ("PARTITION", 6),
    ("ROTATE", 6),
    ("SCAN", 20),
    ("SELECT", 8),
    ("TRANSFER", 8),
    ("TRANSLATE", 6),
    ("UNION", 8),
];
const COUNTERS: &[(&str, u64)] = &[
    ("decode.blocks", 768),
    ("decode.blocks_uncoded", 32),
    ("encode.blocks", 240),
    ("encode.blocks_sad_gated", 4),
    ("encode.blocks_zero_quant", 38),
    ("encode.mv_candidates", 266),
    ("encode.mv_eliminated", 22),
    ("shared_scan.decodes", 7),
    ("shared_scan.hits", 7),
];

#[test]
fn every_unary_operator_keeps_its_output_spans_and_counters() {
    for threads in [1, 4] {
        let got = observe(threads);
        assert!(got == pinned(), "{threads} threads observed {got:?}");
    }
}
