//! The coordinator: places `PARTITION`-shaped subplans on workers by
//! data locality, supervises their execution, and reassembles the
//! encoded fragment results without decoding them.
//!
//! A distributed query is a template plan (one `SCAN` leaf, ending in
//! `ENCODE`) plus a fragment table: each fragment is a time slice of
//! the logical TLF, stored under its own name on one or more workers
//! (the replicas). For each fragment the coordinator rewrites the
//! template's scan to the fragment's name, serialises the subplan via
//! [`lightdb_core::subgraph`], and dispatches it to the worker chosen
//! by [`lightdb_optimizer::placement`]. The workers return *encoded*
//! GOP streams, which are stitched back in fragment order with
//! [`VideoStream::concat`] — the `GOPUNION`/`TILEUNION` reassembly:
//! pure container concatenation, no decode.
//!
//! Failure handling implements the cluster tri-state contract:
//!
//! * **transient** faults (timeouts, injected delays) retry the same
//!   worker under [`RetryPolicy::rpc_default`] — bounded attempts,
//!   decorrelated jitter, never sleeping past the query deadline;
//! * **unavailable** faults (dead or partitioned workers, and
//!   exhausted transient budgets) fail over to the fragment's next
//!   replica, marking the worker unhealthy for the placer;
//! * when **no replica** is left: under [`ReadPolicy::Fail`] the
//!   query fails classified `Unavailable`; under the lossy policies
//!   the fragment is dropped and the reassembled result is a
//!   well-formed stream with fewer GOPs (fragment loss is coarser
//!   than the per-GOP budgets — any non-`Fail` policy accepts it),
//!   counted in [`counters::CLUSTER_LOST_FRAGMENTS`].
//!
//! Every RPC carries the query's remaining deadline budget, and the
//! receive path polls the cancel token so a cancel turns into a
//! best-effort `Cancel` RPC to the worker plus a local
//! `ExecError::Cancelled` — the same classified shapes as a
//! single-node query.

use crate::net::Conn;
use crate::proto::{Request, Response};
use lightdb_codec::{CodecKind, VideoStream};
use lightdb_core::algebra::{LogicalOp, LogicalPlan};
use lightdb_core::{ErrorClass, RetryPolicy};
use lightdb_exec::metrics::{counters, Metrics};
use lightdb_exec::{ExecError, QueryCtx, QueryOutput, ReadPolicy};
use lightdb_optimizer::placement::{place, WorkerState};
use lightdb_storage::faults;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Receive-poll slice: how often a blocked receive wakes up to check
/// the cancel token and deadlines.
const RECV_POLL: Duration = Duration::from_millis(25);

/// One fragment of a distributed TLF: its worker-local name and the
/// workers holding a replica, primary first.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The TLF name this fragment is stored under on its holders.
    pub name: String,
    /// Indices (into the coordinator's worker list) of the workers
    /// holding a replica, in placement preference order.
    pub holders: Vec<usize>,
}

/// Coordinator tuning.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Per-RPC-attempt budget (connect + send + receive).
    pub rpc_timeout: Duration,
    /// Delay between heartbeat rounds.
    pub heartbeat_interval: Duration,
    /// Retry policy for transient RPC failures (same-worker).
    pub retry: RetryPolicy,
}

impl CoordinatorConfig {
    /// Defaults, with `LIGHTDB_RPC_TIMEOUT_MS` overriding the
    /// per-attempt RPC budget.
    pub fn from_env() -> CoordinatorConfig {
        CoordinatorConfig {
            rpc_timeout: lightdb_core::envknob::read_duration_ms("LIGHTDB_RPC_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(2)),
            heartbeat_interval: Duration::from_millis(100),
            retry: RetryPolicy::rpc_default(),
        }
    }
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig::from_env()
    }
}

#[derive(Debug)]
struct WorkerSlot {
    addr: SocketAddr,
    /// Tags this worker's fault sites (`cluster.rpc.send.w0`, …).
    label: String,
    /// Most recent verdict: last heartbeat or RPC outcome. Flips
    /// down on `Unavailable` mid-query for fast failover feedback;
    /// the heartbeat revives it when the worker answers again.
    healthy: AtomicBool,
}

/// The query-facing cluster front end. One per process is typical;
/// `execute` is `&self` and internally parallel per fragment.
#[derive(Debug)]
pub struct Coordinator {
    workers: Arc<Vec<WorkerSlot>>,
    fragments: Vec<Fragment>,
    metrics: Arc<Metrics>,
    cfg: CoordinatorConfig,
    next_request: AtomicU64,
    hb_stop: Arc<AtomicBool>,
    heartbeat: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Builds a coordinator over `workers` (index order defines
    /// worker ids) serving `fragments`, and starts its heartbeat.
    pub fn new(
        workers: Vec<SocketAddr>,
        fragments: Vec<Fragment>,
        cfg: CoordinatorConfig,
    ) -> Coordinator {
        let workers: Arc<Vec<WorkerSlot>> = Arc::new(
            workers
                .into_iter()
                .enumerate()
                .map(|(i, addr)| WorkerSlot {
                    addr,
                    label: format!("w{i}"),
                    healthy: AtomicBool::new(true),
                })
                .collect(),
        );
        let metrics = Arc::new(Metrics::new());
        let hb_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = Some(spawn_heartbeat(
            workers.clone(),
            metrics.clone(),
            hb_stop.clone(),
            cfg.heartbeat_interval,
            cfg.rpc_timeout,
        ));
        Coordinator {
            workers,
            fragments,
            metrics,
            cfg,
            next_request: AtomicU64::new(1),
            hb_stop,
            heartbeat,
        }
    }

    /// The coordinator's metrics: RPC retries, failovers, lost
    /// fragments, heartbeat failures, plus worker-reported skipped /
    /// degraded GOP totals folded in per query.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current health verdict for a worker.
    pub fn worker_healthy(&self, worker: usize) -> bool {
        self.workers[worker].healthy.load(Ordering::Acquire)
    }

    /// Number of workers in the cluster map.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Runs `template` — a single-`SCAN` plan ending in `ENCODE`
    /// (a bare pipeline gets `ENCODE(H264Sim)` appended, since only
    /// encoded results cross the wire) — over every fragment, and
    /// reassembles the encoded answers in fragment order.
    pub fn execute(
        &self,
        template: &LogicalPlan,
        read_policy: ReadPolicy,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, ExecError> {
        ctx.check()?;
        let template = ensure_encoded(template);
        let holders: Vec<Vec<usize>> =
            self.fragments.iter().map(|f| f.holders.clone()).collect();
        let states: Vec<WorkerState> = self
            .workers
            .iter()
            .map(|w| WorkerState {
                healthy: w.healthy.load(Ordering::Acquire),
            })
            .collect();
        let placements = place(&holders, &states);

        let mut results: Vec<Result<Option<VideoStream>, ExecError>> =
            (0..self.fragments.len()).map(|_| Ok(None)).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.fragments.len());
            for (fragment, placement) in self.fragments.iter().zip(&placements) {
                let subplan = bind_fragment(&template, &fragment.name);
                let mut candidates = Vec::with_capacity(1 + placement.fallbacks.len());
                candidates.extend(placement.primary);
                candidates.extend(placement.fallbacks.iter().copied());
                handles.push(scope.spawn(faults::inherit(move || {
                    self.run_fragment(&subplan, candidates, read_policy, ctx)
                })));
            }
            for (slot, handle) in results.iter_mut().zip(handles) {
                match handle.join() {
                    Ok(r) => *slot = r,
                    Err(_) => {
                        *slot = Err(ExecError::Other(
                            "fragment dispatch thread panicked".to_string(),
                        ))
                    }
                }
            }
        });

        let mut parts: Vec<VideoStream> = Vec::with_capacity(results.len());
        for result in results {
            if let Some(stream) = result? {
                parts.push(stream);
            }
        }
        if parts.is_empty() {
            return Err(ExecError::Unavailable(
                "every fragment was lost; nothing to reassemble".to_string(),
            ));
        }
        let refs: Vec<&VideoStream> = parts.iter().collect();
        let combined = VideoStream::concat(&refs).map_err(ExecError::Codec)?;
        Ok(QueryOutput::Encoded(vec![combined]))
    }

    /// Executes one fragment's subplan against its candidate workers
    /// in order. `Ok(None)` means the fragment was dropped under a
    /// lossy read policy.
    fn run_fragment(
        &self,
        subplan: &LogicalPlan,
        candidates: Vec<usize>,
        read_policy: ReadPolicy,
        ctx: &QueryCtx,
    ) -> Result<Option<VideoStream>, ExecError> {
        let plan_bytes = lightdb_core::subgraph::serialize(subplan).map_err(ExecError::Core)?;
        let mut last: Option<RpcError> = None;
        let mut tried = 0usize;
        for worker in candidates {
            tried += 1;
            if tried > 1 {
                self.metrics.bump(counters::CLUSTER_FAILOVERS);
            }
            match self.execute_on_worker(worker, &plan_bytes, read_policy, ctx) {
                Ok((streams, skipped, degraded)) => {
                    self.metrics.add(counters::SKIPPED_GOPS, skipped);
                    self.metrics.add(counters::DEGRADED_GOPS, degraded);
                    let refs: Vec<&VideoStream> = streams.iter().collect();
                    let stream = VideoStream::concat(&refs).map_err(ExecError::Codec)?;
                    return Ok(Some(stream));
                }
                Err(e) => match e.classify() {
                    // Peer gone (or its transient budget exhausted —
                    // handled below): try the next replica.
                    ErrorClass::Unavailable | ErrorClass::Transient => {
                        self.workers[worker].healthy.store(false, Ordering::Release);
                        last = Some(e);
                    }
                    // Anything else is about the query, not the
                    // worker: failing over would not change it.
                    _ => return Err(e.into_exec()),
                },
            }
        }
        // No candidate could serve the fragment.
        match read_policy {
            ReadPolicy::Fail => Err(match last {
                Some(e) => e.into_exec(),
                None => ExecError::Unavailable(
                    "no healthy worker holds a replica of the fragment".to_string(),
                ),
            }),
            ReadPolicy::SkipCorruptGops { .. } | ReadPolicy::Degrade { .. } => {
                self.metrics.bump(counters::CLUSTER_LOST_FRAGMENTS);
                Ok(None)
            }
        }
    }

    /// One worker's Execute RPC, with same-target retries on
    /// transient failures under the configured policy.
    fn execute_on_worker(
        &self,
        worker: usize,
        plan_bytes: &[u8],
        read_policy: ReadPolicy,
        ctx: &QueryCtx,
    ) -> Result<(Vec<VideoStream>, u64, u64), RpcError> {
        let deadline = ctx.remaining().map(|d| Instant::now() + d);
        let attempts = AtomicU64::new(0);
        let result = self.cfg.retry.run(deadline, RpcError::classify, || {
            attempts.fetch_add(1, Ordering::Relaxed);
            self.attempt_execute(worker, plan_bytes, read_policy, ctx)
        });
        let retries = attempts.load(Ordering::Relaxed).saturating_sub(1);
        if retries > 0 {
            self.metrics.add(counters::CLUSTER_RPC_RETRIES, retries);
        }
        result
    }

    /// A single Execute attempt: fresh connection, send, poll-receive.
    /// A timed-out attempt abandons its connection (the next attempt
    /// reconnects), so a response frame torn by the timeout can never
    /// desynchronise a later exchange.
    fn attempt_execute(
        &self,
        worker: usize,
        plan_bytes: &[u8],
        read_policy: ReadPolicy,
        ctx: &QueryCtx,
    ) -> Result<(Vec<VideoStream>, u64, u64), RpcError> {
        let slot = &self.workers[worker];
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let request = Request::Execute {
            deadline_ms: ctx
                .remaining()
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            read_policy,
            plan: plan_bytes.to_vec(),
        };
        let started = Instant::now();
        let mut conn =
            Conn::connect(slot.addr, &slot.label, self.cfg.rpc_timeout).map_err(RpcError::Io)?;
        conn.send(id, &request.to_bytes()).map_err(RpcError::Io)?;
        let _ = conn.set_timeout(RECV_POLL);
        let payload = loop {
            match ctx.check() {
                Ok(()) => {}
                Err(ExecError::Cancelled) => {
                    self.cancel_on_worker(worker, id);
                    return Err(RpcError::Cancelled);
                }
                Err(_) => return Err(RpcError::DeadlineExceeded),
            }
            if started.elapsed() >= self.cfg.rpc_timeout {
                return Err(RpcError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("rpc to {} timed out", slot.label),
                )));
            }
            match conn.recv() {
                Ok((rid, payload)) => {
                    if rid != id {
                        return Err(RpcError::Io(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("response id {rid} does not match request {id}"),
                        )));
                    }
                    break payload;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(RpcError::Io(e)),
            }
        };
        match Response::from_bytes(&payload).map_err(RpcError::Io)? {
            Response::Executed {
                streams,
                skipped,
                degraded,
            } => {
                let mut parsed = Vec::with_capacity(streams.len());
                for bytes in &streams {
                    parsed.push(VideoStream::from_bytes(bytes).map_err(|e| {
                        RpcError::Remote(
                            ErrorClass::Corrupt,
                            format!("undecodable result stream: {e}"),
                        )
                    })?);
                }
                Ok((parsed, skipped, degraded))
            }
            Response::Failed { class, message } => Err(RpcError::Remote(class, message)),
            other => Err(RpcError::Remote(
                ErrorClass::Fatal,
                format!("unexpected response to Execute: {other:?}"),
            )),
        }
    }

    /// Best-effort out-of-band cancel of request `id` on `worker`.
    /// Uses a `.cancel`-suffixed fault label so chaos schedules
    /// targeting the main RPC path don't consume their budgets here.
    fn cancel_on_worker(&self, worker: usize, id: u64) {
        let slot = &self.workers[worker];
        let label = format!("{}.cancel", slot.label);
        let cancel_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut conn) = Conn::connect(slot.addr, &label, self.cfg.rpc_timeout) {
            if conn
                .send(cancel_id, &Request::Cancel { request: id }.to_bytes())
                .is_ok()
            {
                let _ = conn.recv();
            }
        }
    }

    /// Fetches a worker's leak counters (admitted bytes, open spans)
    /// over the `Stats` RPC — the chaos harness's end-of-run probe.
    pub fn worker_stats(&self, worker: usize) -> Result<(u64, u64), ExecError> {
        let slot = &self.workers[worker];
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let run = || -> Result<(u64, u64), RpcError> {
            let mut conn = Conn::connect(slot.addr, &slot.label, self.cfg.rpc_timeout)
                .map_err(RpcError::Io)?;
            conn.send(id, &Request::Stats.to_bytes())
                .map_err(RpcError::Io)?;
            match conn.recv().map_err(RpcError::Io)? {
                (rid, payload) if rid == id => {
                    match Response::from_bytes(&payload).map_err(RpcError::Io)? {
                        Response::Stats {
                            admitted,
                            open_spans,
                        } => Ok((admitted, open_spans)),
                        other => Err(RpcError::Remote(
                            ErrorClass::Fatal,
                            format!("unexpected response to Stats: {other:?}"),
                        )),
                    }
                }
                (rid, _) => Err(RpcError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response id {rid} does not match request {id}"),
                ))),
            }
        };
        run().map_err(RpcError::into_exec)
    }

    /// Asks a worker to stop serving (graceful shutdown).
    pub fn shutdown_worker(&self, worker: usize) -> Result<(), ExecError> {
        let slot = &self.workers[worker];
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let run = || -> Result<(), RpcError> {
            let mut conn = Conn::connect(slot.addr, &slot.label, self.cfg.rpc_timeout)
                .map_err(RpcError::Io)?;
            conn.send(id, &Request::Shutdown.to_bytes())
                .map_err(RpcError::Io)?;
            let _ = conn.recv();
            Ok(())
        };
        run().map_err(RpcError::into_exec)
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Release);
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

/// Heartbeat loop: pings every worker each round, updating health
/// and counting failures. Uses `hb`-prefixed fault labels so chaos
/// schedules can target (or spare) the heartbeat path independently
/// of query RPCs.
fn spawn_heartbeat(
    workers: Arc<Vec<WorkerSlot>>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    interval: Duration,
    rpc_timeout: Duration,
) -> JoinHandle<()> {
    // Heartbeats should notice a dead worker quickly; they never
    // carry payloads, so a tight budget is safe.
    let probe_timeout = rpc_timeout.min(Duration::from_millis(250));
    std::thread::spawn(faults::inherit(move || {
        while !stop.load(Ordering::Acquire) {
            for (i, slot) in workers.iter().enumerate() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let alive = ping(slot.addr, &format!("hb{i}"), probe_timeout);
                if !alive {
                    metrics.bump(counters::CLUSTER_HEARTBEAT_FAILURES);
                }
                slot.healthy.store(alive, Ordering::Release);
            }
            std::thread::sleep(interval);
        }
    }))
}

fn ping(addr: SocketAddr, label: &str, timeout: Duration) -> bool {
    let attempt = || -> io::Result<bool> {
        let mut conn = Conn::connect(addr, label, timeout)?;
        conn.send(0, &Request::Ping.to_bytes())?;
        let (_, payload) = conn.recv()?;
        Ok(matches!(Response::from_bytes(&payload)?, Response::Pong))
    };
    attempt().unwrap_or(false)
}

/// Appends `ENCODE(H264Sim)` unless the plan already ends encoded —
/// fragment results must cross the wire without decoding.
fn ensure_encoded(template: &LogicalPlan) -> LogicalPlan {
    if matches!(template.op, LogicalOp::Encode { .. }) {
        template.clone()
    } else {
        LogicalPlan::unary(
            LogicalOp::Encode {
                codec: CodecKind::H264Sim,
                quality: None,
            },
            template.clone(),
        )
    }
}

/// Rewrites every `SCAN` in the template to read the fragment's
/// worker-local TLF name.
fn bind_fragment(template: &LogicalPlan, fragment_name: &str) -> LogicalPlan {
    let op = match &template.op {
        LogicalOp::Scan { version, .. } => LogicalOp::Scan {
            name: fragment_name.to_string(),
            version: *version,
        },
        other => other.clone(),
    };
    LogicalPlan {
        op,
        inputs: template
            .inputs
            .iter()
            .map(|i| bind_fragment(i, fragment_name))
            .collect(),
    }
}

/// RPC-layer failure, keeping the remote classification intact.
#[derive(Debug)]
enum RpcError {
    Io(io::Error),
    Remote(ErrorClass, String),
    Cancelled,
    DeadlineExceeded,
}

impl RpcError {
    fn classify(&self) -> ErrorClass {
        match self {
            RpcError::Io(e) => ErrorClass::of_io_kind(e.kind()),
            RpcError::Remote(class, _) => *class,
            RpcError::Cancelled => ErrorClass::Cancelled,
            RpcError::DeadlineExceeded => ErrorClass::DeadlineExceeded,
        }
    }

    /// Reconstructs an [`ExecError`] whose `classify()` matches the
    /// wire classification, so callers handle local and remote
    /// failures with the same match arms.
    fn into_exec(self) -> ExecError {
        match self {
            RpcError::Io(e) => match ErrorClass::of_io_kind(e.kind()) {
                ErrorClass::Unavailable => ExecError::Unavailable(e.to_string()),
                _ => ExecError::Io(e),
            },
            RpcError::Cancelled => ExecError::Cancelled,
            RpcError::DeadlineExceeded => ExecError::DeadlineExceeded,
            RpcError::Remote(class, message) => match class {
                ErrorClass::Cancelled => ExecError::Cancelled,
                ErrorClass::DeadlineExceeded => ExecError::DeadlineExceeded,
                ErrorClass::Overloaded => ExecError::Overloaded(message),
                ErrorClass::Unavailable => ExecError::Unavailable(message),
                ErrorClass::Transient => {
                    ExecError::Io(io::Error::new(io::ErrorKind::TimedOut, message))
                }
                ErrorClass::Corrupt => {
                    ExecError::Io(io::Error::new(io::ErrorKind::InvalidData, message))
                }
                ErrorClass::Fatal => ExecError::Other(message),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_encoded_wraps_bare_pipelines_only() {
        let scan = LogicalPlan::leaf(LogicalOp::Scan {
            name: "v".to_string(),
            version: None,
        });
        let wrapped = ensure_encoded(&scan);
        assert!(matches!(wrapped.op, LogicalOp::Encode { .. }));
        assert_eq!(wrapped.len(), 2);
        let already = LogicalPlan::unary(
            LogicalOp::Encode {
                codec: CodecKind::HevcSim,
                quality: None,
            },
            scan,
        );
        let kept = ensure_encoded(&already);
        assert_eq!(kept.len(), 2);
        assert!(
            matches!(kept.op, LogicalOp::Encode { codec: CodecKind::HevcSim, .. }),
            "an existing ENCODE must be preserved, not double-wrapped"
        );
    }

    #[test]
    fn bind_fragment_rewrites_every_scan() {
        let scan = LogicalPlan::leaf(LogicalOp::Scan {
            name: "video".to_string(),
            version: Some(3),
        });
        let plan = LogicalPlan::unary(
            LogicalOp::Encode {
                codec: CodecKind::H264Sim,
                quality: None,
            },
            scan,
        );
        let bound = bind_fragment(&plan, "video.f2");
        assert_eq!(bound.scanned_names(), vec!["video.f2"]);
        match &bound.inputs[0].op {
            LogicalOp::Scan { version, .. } => assert_eq!(*version, Some(3)),
            other => panic!("expected SCAN, got {other:?}"),
        }
    }

    #[test]
    fn rpc_errors_reconstruct_matching_exec_errors() {
        for class in [
            ErrorClass::Transient,
            ErrorClass::Corrupt,
            ErrorClass::Cancelled,
            ErrorClass::DeadlineExceeded,
            ErrorClass::Overloaded,
            ErrorClass::Unavailable,
            ErrorClass::Fatal,
        ] {
            let e = RpcError::Remote(class, "m".to_string());
            assert_eq!(e.classify(), class);
            assert_eq!(e.into_exec().classify(), class);
        }
        let io_err = RpcError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "x"));
        assert_eq!(io_err.classify(), ErrorClass::Unavailable);
        assert!(matches!(io_err.into_exec(), ExecError::Unavailable(_)));
    }
}
