//! The worker side of the cluster: an engine over a subset of TLF
//! fragments, serving subplan executions to a coordinator.
//!
//! A worker hosts a full [`LightDb`] over its own data directory (its
//! fragment subset ingested as ordinary local TLFs) behind a framed
//! [`Listener`]. Each accepted connection gets a handler thread
//! and its own engine [`Session`], so
//! requests on one connection execute serially (matching the
//! coordinator's one-connection-per-dispatch model) while separate
//! connections run concurrently.
//!
//! Robustness contract, worker side:
//!
//! * every `Execute` runs under the deadline the coordinator shipped
//!   and registers its cancel token in an in-flight table, so an
//!   out-of-band `Cancel` aborts it at the next chunk boundary;
//! * failures are answered as [`Response::Failed`] with the
//!   failure's [`ErrorClass`](lightdb_core::ErrorClass) preserved,
//!   never as a torn connection;
//! * the `Stats` request reports outstanding admission bytes and any
//!   spans a finished request left open — the no-leak numbers the
//!   chaos harness asserts are zero on every surviving worker;
//! * the serve loop threads `cluster.worker.serve` through the fault
//!   registry, so `LIGHTDB_FAULTS=cluster.worker.serve=crash` models
//!   a fail-stop worker death (the worker binary exits; see
//!   `exit_on_crash`).

use crate::net::{Conn, Listener};
use crate::proto::{Request, Response};
use lightdb::prelude::*;
use lightdb_core::subgraph::UdfRegistry;
use lightdb_exec::metrics::counters;
use lightdb_exec::{CancelToken, QueryCtx};
use lightdb_storage::faults;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop polls for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Per-read timeout on worker-side connections. Generous: the
/// coordinator owns deadline enforcement; this only reclaims handler
/// threads whose peer silently vanished.
const SERVE_TIMEOUT: Duration = Duration::from_secs(30);

struct WorkerShared {
    db: LightDb,
    /// In-flight `Execute`s by request id, for out-of-band `Cancel`.
    inflight: Mutex<HashMap<u64, CancelToken>>,
    /// Spans left open by *finished* requests — a leak detector that
    /// survives the per-request sessions being dropped.
    leaked_spans: AtomicU64,
    shutdown: AtomicBool,
    /// Clones of live connections (by connection id) so `kill` can
    /// sever them mid-query; handlers deregister on exit so a
    /// long-lived worker does not accumulate dead sockets.
    conns: Mutex<HashMap<u64, Conn>>,
    next_conn: AtomicU64,
    /// Every connection handler, joined by `kill`: each holds the
    /// engine, and with it the data directory's root lock.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Worker-binary mode: a `crash` fault at the serve site exits
    /// the process (fail-stop) instead of poisoning the test process.
    exit_on_crash: bool,
}

/// A running worker bound to a localhost port.
///
/// Dropping the handle does **not** stop the worker; call
/// [`WorkerHandle::kill`] (abrupt, models a crashed process as seen
/// from the coordinator) or send [`Request::Shutdown`] (graceful).
#[derive(Debug)]
pub struct WorkerHandle {
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerShared").finish_non_exhaustive()
    }
}

impl WorkerHandle {
    /// The address the worker serves on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Abruptly kills the worker as the *coordinator* would see a
    /// dead process: the listener stops accepting and every live
    /// connection is severed mid-whatever-it-was-doing. In-flight
    /// queries are cancelled so their resources drain promptly (a
    /// real process death would reclaim them via the OS). Returns once
    /// every handler has exited, so the data directory can be opened
    /// again at once, as after a process death.
    pub fn kill(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // No connection is accepted after this.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for (_, token) in self
            .shared
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
        {
            token.cancel();
        }
        for (_, conn) in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
        {
            conn.shutdown();
        }
        let handlers: Vec<_> =
            self.shared.handlers.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
    }

    /// True once the serve loop has exited (shutdown or kill).
    pub fn is_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns an in-process worker over `data_dir`, returning its handle.
/// The engine opens with default options; fragments are whatever TLFs
/// the directory already holds (plus any stored later through another
/// handle — workers share nothing, so there isn't one).
pub fn spawn(data_dir: &Path) -> io::Result<WorkerHandle> {
    spawn_inner(data_dir, false)
}

/// [`spawn`] for the standalone worker binary: a `crash` fault at the
/// serve site exits the process with status 42 (fail-stop) rather
/// than marking the shared registry crashed.
pub fn spawn_exiting_on_crash(data_dir: &Path) -> io::Result<WorkerHandle> {
    spawn_inner(data_dir, true)
}

fn spawn_inner(data_dir: &Path, exit_on_crash: bool) -> io::Result<WorkerHandle> {
    let db = LightDb::open(data_dir).map_err(|e| io::Error::other(e.to_string()))?;
    let (listener, addr) = Listener::bind_localhost()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(WorkerShared {
        db,
        inflight: Mutex::new(HashMap::new()),
        leaked_spans: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
        handlers: Mutex::new(Vec::new()),
        exit_on_crash,
    });
    let accept_shared = shared.clone();
    let accept =
        std::thread::spawn(faults::inherit(move || accept_loop(&listener, &accept_shared)));
    Ok(WorkerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &Listener, shared: &Arc<WorkerShared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept("coordinator", SERVE_TIMEOUT) {
            Ok(conn) => {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = conn.try_clone() {
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(conn_id, clone);
                }
                let conn_shared = shared.clone();
                // Handler threads exit when their connection closes
                // (peer drop, kill, or shutdown), dropping their
                // kill-registry entry on the way out; `kill` joins them.
                let handler = std::thread::spawn(faults::inherit(move || {
                    serve_conn(conn, &conn_shared);
                    conn_shared
                        .conns
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&conn_id);
                }));
                let mut handlers = shared.handlers.lock().unwrap_or_else(|e| e.into_inner());
                // Finished handlers are let go, so a long-lived worker
                // keeps one handle per live connection.
                handlers.retain(|h| !h.is_finished());
                handlers.push(handler);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn serve_conn(mut conn: Conn, shared: &Arc<WorkerShared>) {
    // One engine session per connection: requests on a connection are
    // serial, so the session's mutable config is uncontended.
    let mut session = shared.db.session();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (id, payload) = match conn.recv() {
            Ok(frame) => frame,
            // Peer gone or bytes unusable: nothing sane to answer on
            // this connection.
            Err(_) => return,
        };
        let response = match Request::from_bytes(&payload) {
            Ok(req) => serve_request(shared, &mut session, id, req),
            Err(e) => Some(Response::Failed {
                class: lightdb_core::ErrorClass::Corrupt,
                message: format!("bad request payload: {e}"),
            }),
        };
        match response {
            Some(resp) => {
                if conn.send(id, &resp.to_bytes()).is_err() {
                    return;
                }
            }
            // Graceful shutdown: ack, then let the connection close.
            None => {
                let _ = conn.send(id, &Response::Ack.to_bytes());
                return;
            }
        }
    }
}

/// Handles one request; `None` means the worker should ack and then
/// wind down.
fn serve_request(
    shared: &Arc<WorkerShared>,
    session: &mut lightdb::session::Session,
    id: u64,
    req: Request,
) -> Option<Response> {
    // The serve-site failpoint models worker-side faults: errors are
    // answered in-band; a crash fault fail-stops the worker binary.
    if let Err(e) = faults::fail_point(faults::sites::CLUSTER_WORKER_SERVE) {
        if faults::crashed() && shared.exit_on_crash {
            std::process::exit(42);
        }
        return Some(Response::Failed {
            class: lightdb_core::ErrorClass::of_io_kind(e.kind()),
            message: e.to_string(),
        });
    }
    match req {
        Request::Ping => Some(Response::Pong),
        Request::Execute {
            deadline_ms,
            read_policy,
            plan,
        } => Some(execute(shared, session, id, deadline_ms, read_policy, plan)),
        Request::Cancel { request } => {
            if let Some(token) = shared
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&request)
            {
                token.cancel();
            }
            Some(Response::Ack)
        }
        Request::Stats => Some(Response::Stats {
            admitted: shared.db.pool().admitted() as u64,
            open_spans: shared.leaked_spans.load(Ordering::Acquire),
        }),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            None
        }
    }
}

fn execute(
    shared: &Arc<WorkerShared>,
    session: &mut lightdb::session::Session,
    id: u64,
    deadline_ms: Option<u64>,
    read_policy: lightdb_exec::ReadPolicy,
    plan_bytes: Vec<u8>,
) -> Response {
    let plan = match lightdb_core::subgraph::deserialize(&plan_bytes, &UdfRegistry::new()) {
        Ok(p) => p,
        Err(e) => {
            return Response::Failed {
                class: lightdb_core::ErrorClass::Corrupt,
                message: format!("undeserialisable subplan: {e}"),
            }
        }
    };
    let ctx = match deadline_ms {
        Some(ms) => QueryCtx::unbounded().with_deadline(Duration::from_millis(ms)),
        None => QueryCtx::unbounded(),
    };
    session.set_read_policy(read_policy);
    // Register for out-of-band cancellation before execution starts.
    shared
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, ctx.cancel_token());
    let skipped_before = session.metrics().counter(counters::SKIPPED_GOPS);
    let degraded_before = session.metrics().counter(counters::DEGRADED_GOPS);
    let result = session.execute_plan_with_ctx(&plan, ctx);
    shared
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&id);
    // Anything still open now outlives its request: a leak, recorded
    // durably so `Stats` sees it after the session is gone.
    shared
        .leaked_spans
        .fetch_add(session.metrics().open_spans(), Ordering::AcqRel);
    match result {
        Ok(QueryOutput::Encoded(streams)) => Response::Executed {
            streams: streams.iter().map(|s| s.to_bytes()).collect(),
            skipped: session.metrics().counter(counters::SKIPPED_GOPS) - skipped_before,
            degraded: session.metrics().counter(counters::DEGRADED_GOPS) - degraded_before,
        },
        Ok(other) => Response::Failed {
            class: lightdb_core::ErrorClass::Fatal,
            message: format!(
                "distributed subplans must end in ENCODE; got {} output",
                match other {
                    QueryOutput::Stored { .. } => "stored",
                    QueryOutput::Frames(_) => "frame",
                    QueryOutput::Unit => "unit",
                    QueryOutput::Encoded(_) => "encoded",
                }
            ),
        },
        Err(e) => Response::Failed {
            class: classify_engine_error(&e),
            message: e.to_string(),
        },
    }
}

/// Maps an engine error to the taxonomy for the wire. Mirrors how
/// the local chaos harness classifies: storage and exec errors carry
/// their own class, codec damage is corruption, plan errors are
/// programming mistakes.
pub fn classify_engine_error(e: &lightdb::Error) -> lightdb_core::ErrorClass {
    match e {
        lightdb::Error::Storage(s) => s.classify(),
        lightdb::Error::Exec(x) => x.classify(),
        lightdb::Error::Codec(_) => lightdb_core::ErrorClass::Corrupt,
        lightdb::Error::Plan(_) => lightdb_core::ErrorClass::Fatal,
    }
}
