//! `cluster_scan` — `Coordinator::execute` of `SCAN → MAP grayscale →
//! ENCODE` over eight GOP-aligned fragments, replication 2, on two
//! in-process workers, one client.
//!
//! The only path through `cluster::{net, proto, worker, coordinator}`.
//! The benchmark does its own ingest (the `cluster::fixture` frames are
//! 32×32) sized so the single-node query takes tens of milliseconds:
//! fixed RPC cost is visible but not the whole story. Every result is
//! compared byte for byte with the single-node answer.

use super::{engine_counters, Replay};
use crate::harness::{timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{self, Digest, Rng};
use crate::json::J;
use crate::trace::{Breakdown, Tracer, ROOT_REPLAY};
use lightdb::codec::{TileGrid, VideoStream};
use lightdb::core::algebra::LogicalPlan;
use lightdb::core::subgraph;
use lightdb::exec::metrics::counters as names;
use lightdb::prelude::*;
use lightdb_cluster::net::{decode_frame, encode_frame, Conn};
use lightdb_cluster::proto::Request;
use lightdb_cluster::{worker, Coordinator, CoordinatorConfig, Fragment, WorkerHandle};
use lightdb_datasets::Dataset;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

const WHOLE: &str = "vid";
const FRAGMENTS: usize = 8;
const WORKERS: usize = 2;

fn fragment(i: usize) -> String {
    format!("{WHOLE}.f{i}")
}

fn template(input: &str) -> VrqlExpr {
    scan(input) >> Map::builtin(BuiltinMap::Grayscale) >> Encode::with(CodecKind::HevcSim)
}

#[derive(Debug)]
pub(crate) struct Inputs {
    frames: Vec<Frame>,
    fps: u32,
    /// Frames per GOP, and per fragment.
    gop: usize,
}

#[derive(Debug)]
pub(crate) struct ClusterScan {
    /// Single node holding the whole stream and, for the replay, every
    /// fragment under the name the workers know it by.
    single: LightDb,
    coordinator: Coordinator,
    /// Dropped (and so stopped) after the coordinator.
    workers: Vec<WorkerHandle>,
    addrs: Vec<SocketAddr>,
    plan: LogicalPlan,
    /// The single-node answer every distributed result must equal.
    expected: Vec<u8>,
    frames: u64,
    encoded_bytes: u64,
    /// The same query on one node (first, cold execution).
    single_node_ms: f64,
}

impl ClusterScan {
    fn run(&self, i: u64, tr: &Tracer) -> Result<Done, String> {
        let ctx = QueryCtx::unbounded();
        let (out, elapsed) = timed(tr, i, "op:coordinator.execute", || {
            self.coordinator.execute(&self.plan, ReadPolicy::Fail, &ctx)
        });
        match out {
            Ok(QueryOutput::Encoded(streams))
                if streams.len() == 1 && streams[0].to_bytes() == self.expected =>
            {
                Ok(Done {
                    elapsed,
                    units: self.frames,
                })
            }
            Ok(other) => Err(format!(
                "cluster result differs from single node ({} frames)",
                other.frame_count()
            )),
            Err(e) => Err(format!("cluster query: {e}")),
        }
    }
}

impl Workload for ClusterScan {
    type Inputs = Inputs;

    fn generate(args: &Args) -> Inputs {
        let (fps, gop) = if args.quick { (2, 2) } else { (12, 12) };
        // One fragment from each eighth of the scene, in seeded order: how
        // much there is to encode barely depends on the seed.
        let mut rng = Rng::new(args.seed, 0xc105);
        let mut starts: Vec<usize> = (0..FRAGMENTS)
            .map(|k| k * 375 + rng.below(300) as usize)
            .collect();
        rng.shuffle(&mut starts);
        let frames = starts
            .iter()
            .flat_map(|&s| inputs::scene_frames(Dataset::Venice, 256, 128, fps, s, gop))
            .collect();
        Inputs { frames, fps, gop }
    }

    fn setup(inp: &Inputs, root: &Path) -> Result<ClusterScan, String> {
        // Fragment streams are encoded once and stored on every holder;
        // closed GOPs make their concatenation the whole-stream encode.
        let mut jobs: Vec<&[Frame]> = inp.frames.chunks(inp.gop).collect();
        jobs.push(&inp.frames);
        let mut streams: Vec<VideoStream> = inputs::par_map(&jobs, |f| {
            inputs::encode(f, inp.fps, inp.gop, 22, TileGrid::SINGLE)
        });
        let whole = streams.pop().expect("whole stream");
        let encoded_bytes = whole.to_bytes().len() as u64;

        let single = LightDb::open(root.join("single")).map_err(|e| format!("open single: {e}"))?;
        inputs::store(&single, WHOLE, whole)?;
        let dirs: Vec<_> = (0..WORKERS)
            .map(|w| root.join(format!("worker{w}")))
            .collect();
        let mut table = Vec::with_capacity(FRAGMENTS);
        {
            let dbs: Vec<LightDb> = dirs
                .iter()
                .map(|d| LightDb::open(d).map_err(|e| format!("open worker dir: {e}")))
                .collect::<Result<_, _>>()?;
            for (i, stream) in streams.into_iter().enumerate() {
                let holders: Vec<usize> = (0..WORKERS).map(|r| (i + r) % WORKERS).collect();
                for &h in &holders {
                    inputs::store(&dbs[h], &fragment(i), stream.clone())?;
                }
                inputs::store(&single, &fragment(i), stream)?;
                table.push(Fragment {
                    name: fragment(i),
                    holders,
                });
            }
        }
        let workers: Vec<WorkerHandle> = dirs
            .iter()
            .map(|d| worker::spawn(d).map_err(|e| format!("spawn worker: {e}")))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = workers.iter().map(WorkerHandle::addr).collect();
        let coordinator = Coordinator::new(addrs.clone(), table, CoordinatorConfig::from_env());

        let started = std::time::Instant::now();
        let expected = match single.execute(&template(WHOLE)) {
            Ok(QueryOutput::Encoded(s)) if s.len() == 1 => s[0].to_bytes(),
            Ok(_) => return Err("single-node query did not return one encoded stream".into()),
            Err(e) => return Err(format!("single-node query: {e}")),
        };
        let single_node_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(ClusterScan {
            single_node_ms,
            single,
            coordinator,
            workers,
            addrs,
            plan: template(WHOLE).into_plan(),
            expected,
            frames: inp.frames.len() as u64,
            encoded_bytes,
        })
    }

    fn lanes(&self) -> Vec<&'static str> {
        vec!["query"]
    }

    fn unit(&self) -> &'static str {
        "frames"
    }

    fn op(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        self.run(i, tr)
    }

    /// Every operation already compares its bytes with the single-node
    /// answer; the pass here warms both workers and fixes the digest.
    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let off = Tracer::off();
        for i in 0..3 {
            let r = self.run(i, &off);
            v.check(r.is_ok(), || r.err().unwrap_or_default());
        }
        let mut digest = Digest::new();
        digest.add(&self.expected);
        v.digest = digest.hex();
        v
    }

    fn replay(&self, _lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            let result = (|| -> Result<(), String> {
                let mut parts: Vec<VideoStream> = Vec::with_capacity(FRAGMENTS);
                for f in 0..FRAGMENTS {
                    let subplan = template(&fragment(f)).into_plan();
                    let request = st
                        .call("cluster.plan_serialise", || {
                            subgraph::serialize(&subplan).map(|plan| {
                                Request::Execute {
                                    deadline_ms: None,
                                    read_policy: ReadPolicy::Fail,
                                    plan,
                                }
                                .to_bytes()
                            })
                        })
                        .map_err(|e| format!("replay serialise: {e}"))?;
                    st.call("cluster.connect", || {
                        Conn::connect(self.addrs[f % WORKERS], "perfbench", Duration::from_secs(2))
                    })
                    .map_err(|e| format!("replay connect: {e}"))?;
                    let out = st
                        .call("cluster.worker_execute", || {
                            self.single
                                .execute_plan_with_ctx(&subplan, QueryCtx::unbounded())
                        })
                        .map_err(|e| format!("replay execute: {e}"))?;
                    let QueryOutput::Encoded(mut streams) = out else {
                        return Err("replay execute: not an encoded result".into());
                    };
                    let reply = streams[0].to_bytes();
                    // Both directions of the wire framing, per byte moved.
                    st.units(
                        "cluster.frame_codec",
                        (request.len() + reply.len()) as u64,
                        || {
                            for payload in [&request, &reply] {
                                std::hint::black_box(decode_frame(&encode_frame(i, payload)));
                            }
                        },
                    );
                    parts.push(streams.remove(0));
                }
                let whole = st
                    .call("cluster.reassemble", || {
                        VideoStream::concat(&parts.iter().collect::<Vec<_>>())
                    })
                    .map_err(|e| format!("replay reassemble: {e}"))?;
                if whole.to_bytes() != self.expected {
                    return Err(
                        "replayed fragments do not reassemble to the single-node answer".into(),
                    );
                }
                Ok(())
            })();
            (result, 1)
        })
    }

    fn counters(&self) -> Counters {
        let mut c = engine_counters(&self.single, &[self.single.metrics()]);
        let m = self.coordinator.metrics();
        for name in [
            names::CLUSTER_RPC_RETRIES,
            names::CLUSTER_FAILOVERS,
            names::CLUSTER_LOST_FRAGMENTS,
        ] {
            c.insert(name, m.counter(name));
        }
        c
    }

    fn layer_extras(&self, b: &Breakdown) -> Vec<(&'static str, f64)> {
        // Each worker is primary for every WORKERS-th fragment; with one
        // core apiece the query cannot beat the slower worker's share.
        let slowest_worker_ms =
            b.per_unit("cluster.worker_execute", 1e6) * (FRAGMENTS / WORKERS) as f64;
        // Span units are bytes: ns per byte × 10⁶ bytes ÷ 10³ = µs per MB.
        let codec = b.per_unit("cluster.frame_codec", 1e3) * 1e6;
        let query_ms = b.per_unit("op:coordinator.execute", 1e6);
        vec![
            ("frame_codec_us_per_mb", codec),
            ("cluster_overhead_ms", query_ms - slowest_worker_ms),
            (
                "cluster_retries",
                self.coordinator
                    .metrics()
                    .counter(names::CLUSTER_RPC_RETRIES) as f64,
            ),
        ]
    }

    fn sizes(&self) -> J {
        J::obj([
            ("frame", J::str("256x128")),
            ("frames", J::Int(self.frames)),
            ("fragments", J::Int(FRAGMENTS as u64)),
            ("replication", J::Int(WORKERS as u64)),
            ("workers", J::Int(self.workers.len() as u64)),
            ("encoded_input_bytes", J::Int(self.encoded_bytes)),
            ("result_bytes", J::Int(self.expected.len() as u64)),
            ("single_node_query_ms", J::Num(self.single_node_ms)),
            ("buffer_pool", J::str("fits: one small stream per node")),
        ])
    }
}
