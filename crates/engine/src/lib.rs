//! # LightDB
//!
//! A database management system for virtual, augmented, and
//! mixed-reality (VAMR) video, reproduced in Rust from
//! *"LightDB: A DBMS for Virtual Reality Video"* (PVLDB 11(10), 2018)
//! — the full-system successor of the SIGMOD 2017 *VisualCloud*
//! demonstration.
//!
//! LightDB models all VAMR video as **temporal light fields (TLFs)**:
//! logically continuous functions `L(x, y, z, t, θ, φ) → color` over
//! six dimensions. Queries are written in **VRQL**, a declarative
//! algebra with `>>` streaming composition, and a rule-based optimizer
//! lowers them to physical plans that exploit GPU placement,
//! GOP/tile/spatial indexes, and homomorphic operators that transform
//! encoded video without decoding it.
//!
//! ```no_run
//! use lightdb::prelude::*;
//!
//! let db = LightDb::open("/tmp/lightdb-demo")?;
//! // Grayscale-transcode a stored TLF (Table 1 of the paper):
//! let q = scan("panorama")
//!     >> Map::builtin(BuiltinMap::Grayscale)
//!     >> Encode::with(CodecKind::H264Sim);
//! let out = db.execute(&q)?;
//! println!("produced {} frames", out.frame_count());
//! # Ok::<(), lightdb::Error>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::session::{plan_cache, EngineShared, Session, PLAN_CACHE_CAPACITY};
use lightdb_core::algebra::{LogicalOp, LogicalPlan};
use lightdb_core::subgraph::{self, UdfRegistry};
use lightdb_core::vrql::VrqlExpr;
use lightdb_exec::sharedscan::SharedDecode;
use lightdb_exec::tilecache::TileCache;
use lightdb_exec::{Metrics, QueryCtx, QueryOutput};
use lightdb_storage::{BufferPool, Catalog, Snapshot};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

pub mod ingest;
pub mod session;
pub mod tileserver;

/// Everything a LightDB application typically needs.
pub mod prelude {
    pub use crate::session::{Session, SessionBudget, SessionConfig};
    pub use crate::tileserver::{
        Orientation, ServedTile, ServedView, TileServer, TileServerConfig,
    };
    pub use crate::{ingest::IngestConfig, Error, LightDb};
    pub use lightdb_codec::{CodecKind, TileGrid};
    pub use lightdb_core::udf::{BuiltinInterp, BuiltinMap, InterpUdf, MapUdf, PointMapUdf};
    pub use lightdb_core::vrql::*;
    pub use lightdb_core::{MergeFunction, Quality};
    pub use lightdb_exec::{CancelToken, Parallelism, QueryCtx, QueryOutput, ReadPolicy};
    pub use lightdb_frame::{Frame, Yuv};
    pub use lightdb_geom::{Dimension, Interval, Point3, Volume};
    pub use lightdb_optimizer::PlannerOptions;
    pub use lightdb_storage::AdmitPolicy;
}

// Re-export the component crates for advanced use.
pub use lightdb_codec as codec;
pub use lightdb_container as container;
pub use lightdb_core as core;
pub use lightdb_exec as exec;
pub use lightdb_frame as frame;
pub use lightdb_geom as geom;
pub use lightdb_index as index;
pub use lightdb_optimizer as optimizer;
pub use lightdb_storage as storage;

/// Unified error type.
#[derive(Debug)]
pub enum Error {
    Storage(lightdb_storage::StorageError),
    Plan(lightdb_optimizer::PlanError),
    Exec(lightdb_exec::ExecError),
    Codec(lightdb_codec::CodecError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "{e}"),
            Error::Plan(e) => write!(f, "{e}"),
            Error::Exec(e) => write!(f, "{e}"),
            Error::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<lightdb_storage::StorageError> for Error {
    fn from(e: lightdb_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<lightdb_optimizer::PlanError> for Error {
    fn from(e: lightdb_optimizer::PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<lightdb_exec::ExecError> for Error {
    fn from(e: lightdb_exec::ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<lightdb_codec::CodecError> for Error {
    fn from(e: lightdb_codec::CodecError) -> Self {
        Error::Codec(e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Default buffer-pool capacity: 64 MiB of encoded GOPs.
pub const DEFAULT_POOL_BYTES: usize = 64 << 20;

/// Default shared-decode cache budget: 32 MiB of decoded frames.
/// Override with `LIGHTDB_SHARED_DECODE_MB` (`0` disables the cache).
pub const DEFAULT_SHARED_DECODE_BYTES: usize = lightdb_exec::sharedscan::DEFAULT_BUDGET_BYTES;

/// Default encoded-tile cache budget: 64 MiB of extracted tile GOPs.
/// Override with `LIGHTDB_TILE_CACHE_MB` (`0` disables the cache).
pub const DEFAULT_TILE_CACHE_BYTES: usize = lightdb_exec::tilecache::DEFAULT_BUDGET_BYTES;

/// A LightDB database handle: the engine plus one default
/// [`Session`].
///
/// A `LightDb` doubles as a **server front-end**: call
/// [`LightDb::session`] to mint independent sessions, one per client.
/// Sessions share the catalog, buffer pool, plan cache, and
/// shared-decode cache, but each carries its own planner options,
/// read policy, parallelism, admission policy, UDF registry, and
/// metrics. The handle's own `execute*`, `explain` and `metrics` run
/// on its default session, at the defaults every session starts from;
/// a client that wants other settings takes a session.
///
/// One `LightDb` per root: while a handle is open, a second
/// [`LightDb::open`] of its root fails with
/// [`StorageError::RootInUse`](lightdb_storage::StorageError::RootInUse).
#[derive(Debug)]
pub struct LightDb {
    shared: Arc<EngineShared>,
    default: Session,
}

/// Default admission backpressure window: queries whose declared
/// working set does not fit wait up to this long for capacity before
/// failing with `Overloaded`.
pub const DEFAULT_ADMIT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

impl LightDb {
    /// Opens (or initialises) a database rooted at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<LightDb> {
        // `LIGHTDB_SHARED_DECODE_MB` sizes the engine-wide decoded-GOP
        // cache; 0 disables shared scans entirely.
        let shared_decode = match lightdb_core::envknob::read_u64("LIGHTDB_SHARED_DECODE_MB") {
            Some(0) => None,
            Some(mb) => Some(Arc::new(SharedDecode::new(
                lightdb_core::envknob::clamp_to_usize(mb.saturating_mul(1 << 20)),
            ))),
            None => Some(Arc::new(SharedDecode::new(DEFAULT_SHARED_DECODE_BYTES))),
        };
        // `LIGHTDB_TILE_CACHE_MB` sizes the engine-wide encoded-tile
        // cache behind the serving path; 0 disables it.
        let tile_cache = match lightdb_core::envknob::read_u64("LIGHTDB_TILE_CACHE_MB") {
            Some(0) => None,
            Some(mb) => Some(Arc::new(TileCache::new(
                lightdb_core::envknob::clamp_to_usize(mb.saturating_mul(1 << 20)),
            ))),
            None => Some(Arc::new(TileCache::new(DEFAULT_TILE_CACHE_BYTES))),
        };
        let shared = Arc::new(EngineShared {
            catalog: Arc::new(Catalog::open(path.as_ref().to_path_buf())?),
            pool: Arc::new(BufferPool::new(DEFAULT_POOL_BYTES)),
            plan_cache: plan_cache(PLAN_CACHE_CAPACITY),
            shared_decode,
            tile_cache,
            next_session: AtomicU64::new(1),
        });
        Ok(LightDb {
            default: Session::new(shared.clone()),
            shared,
        })
    }

    /// Mints a new independent [`Session`] at the
    /// default settings with an empty UDF registry. Sessions share
    /// storage, the plan cache, and the shared-decode cache;
    /// everything else is per-session.
    pub fn session(&self) -> Session {
        Session::new(self.shared.clone())
    }

    /// The catalog (for inspection and direct ingest).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// The buffer pool (for cache statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.shared.pool
    }

    /// Number of entries currently in the engine-wide plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.len()
    }

    /// The engine-wide encoded-tile cache behind
    /// [`TileServer`](tileserver::TileServer)s, or `None` when
    /// disabled via `LIGHTDB_TILE_CACHE_MB=0` (for cache statistics).
    pub fn tile_cache(&self) -> Option<&Arc<TileCache>> {
        self.shared.tile_cache.as_ref()
    }

    /// Forces a catalog checkpoint: every WAL-committed metadata
    /// version is durably materialised and the log is truncated.
    /// Checkpoints also happen automatically as the log grows; call
    /// this to bound recovery work before a planned shutdown.
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.shared.catalog.checkpoint()?)
    }

    /// Caps the total bytes of concurrently *admitted* working sets
    /// (independent of resident cache bytes), engine-wide. Queries
    /// beyond the cap block or fail per their session's
    /// [`Session::set_admit_policy`](session::Session::set_admit_policy).
    pub fn set_admission_limit(&self, bytes: usize) {
        self.shared.pool.set_admission_limit(bytes);
    }

    /// Cumulative per-operator execution metrics of the default
    /// session.
    pub fn metrics(&self) -> &Metrics {
        self.default.metrics()
    }

    /// Executes a VRQL query as one transaction with snapshot
    /// isolation and returns its output.
    ///
    /// Two transformations implement the paper's *partially
    /// materialised views* (Section 4.1): a `STORE` whose input is
    /// continuous (ends in `INTERPOLATE`) materialises only the
    /// discrete prefix and records the remaining operator subgraph in
    /// the TLF's metadata; a `SCAN` of such a TLF transparently
    /// re-applies the recorded subgraph.
    pub fn execute(&self, query: &VrqlExpr) -> Result<QueryOutput> {
        self.default.execute(query)
    }

    /// [`LightDb::execute`] under an explicit [`QueryCtx`]: the
    /// query observes `ctx`'s deadline and cancellation at every
    /// chunk boundary, and its declared working set (if any) passes
    /// buffer-pool admission before execution starts. Cancel from
    /// another thread via [`QueryCtx::cancel_token`].
    pub fn execute_with_ctx(&self, query: &VrqlExpr, ctx: QueryCtx) -> Result<QueryOutput> {
        self.default.execute_with_ctx(query, ctx)
    }

    /// Executes a bare [`LogicalPlan`] on the default session (see
    /// [`Session::execute_plan_with_ctx`](session::Session::execute_plan_with_ctx)).
    pub fn execute_plan_with_ctx(&self, plan: &LogicalPlan, ctx: QueryCtx) -> Result<QueryOutput> {
        self.default.execute_plan_with_ctx(plan, ctx)
    }

    /// Returns the optimised physical plan for a query, as text —
    /// LightDB's `EXPLAIN` — under the default options.
    pub fn explain(&self, query: &VrqlExpr) -> Result<String> {
        self.default.explain(query)
    }
}

/// Resolves unversioned scans to the snapshot's pinned versions and
/// splices in stored view subgraphs, for
/// [`Session::execute_plan_with_ctx`](session::Session::execute_plan_with_ctx).
pub(crate) fn resolve_scans_in(
    catalog: &Catalog,
    udfs: &UdfRegistry,
    plan: LogicalPlan,
    snapshot: &Snapshot<'_>,
) -> Result<LogicalPlan> {
    let LogicalPlan { op, inputs } = plan;
    let op = match op {
        LogicalOp::Scan { name, version } if name != lightdb_optimizer::lower::SUBQUERY_INPUT => {
            let version = match version {
                Some(v) => Some(v),
                None => snapshot.pinned_version(&name),
            };
            // A continuous TLF carries the operators still to be
            // applied over its materialised prefix.
            if let Some(v) = version {
                if let Ok(stored) = catalog.read(&name, Some(v)) {
                    if let Some(bytes) = &stored.metadata.tlf.view_subgraph {
                        let view = subgraph::deserialize(bytes, udfs)
                            .map_err(lightdb_optimizer::PlanError::Core)?;
                        let scan = LogicalPlan::leaf(LogicalOp::Scan {
                            name: name.clone(),
                            version: Some(v),
                        });
                        return Ok(splice_materialized(view, &scan));
                    }
                }
            }
            LogicalOp::Scan { name, version }
        }
        other => other,
    };
    let inputs = inputs
        .into_iter()
        .map(|p| resolve_scans_in(catalog, udfs, p, snapshot))
        .collect::<Result<Vec<_>>>()?;
    Ok(LogicalPlan { op, inputs })
}

/// Replaces `SCAN($materialized)` leaves of a view subgraph with the
/// scan of the materialised TLF.
fn splice_materialized(view: LogicalPlan, scan: &LogicalPlan) -> LogicalPlan {
    let LogicalPlan { op, inputs } = view;
    if let LogicalOp::Scan { name, .. } = &op {
        if name == subgraph::MATERIALIZED {
            return scan.clone();
        }
    }
    let inputs = inputs
        .into_iter()
        .map(|p| splice_materialized(p, scan))
        .collect();
    LogicalPlan { op, inputs }
}

/// Splits `STORE(continuous-suffix(X))` into `STORE(X)` plus the
/// serialised suffix. The suffix is the chain of serialisable unary
/// operators from the store's input down to (and including) the last
/// `INTERPOLATE` — the paper's "latest point where it becomes
/// continuous". Queries without such a suffix store discretely.
fn peel_view_subgraph(plan: LogicalPlan) -> (LogicalPlan, Option<Vec<u8>>) {
    let LogicalOp::Store { name } = &plan.op else {
        return (plan, None);
    };
    let name = name.clone();
    let child = &plan.inputs[0];
    // Collect the unary serialisable chain below the store.
    let mut chain: Vec<&LogicalPlan> = Vec::new();
    let mut cursor = child;
    let mut last_interp: Option<usize> = None;
    loop {
        let serialisable = matches!(
            cursor.op,
            LogicalOp::Interpolate { .. }
                | LogicalOp::Map { .. }
                | LogicalOp::Select { .. }
                | LogicalOp::Discretize { .. }
                | LogicalOp::Rotate { .. }
                | LogicalOp::Translate { .. }
        ) && cursor.inputs.len() == 1;
        if !serialisable {
            break;
        }
        chain.push(cursor);
        if matches!(cursor.op, LogicalOp::Interpolate { .. }) {
            last_interp = Some(chain.len());
        }
        cursor = &cursor.inputs[0];
    }
    let Some(cut) = last_interp else {
        return (plan, None);
    };
    // Rebuild the suffix over SCAN($materialized); abandon peeling if
    // any node fails to serialise (e.g. stencils).
    let mut suffix = LogicalPlan::leaf(LogicalOp::Scan {
        name: subgraph::MATERIALIZED.into(),
        version: None,
    });
    for node in chain[..cut].iter().rev() {
        suffix = LogicalPlan {
            op: node.op.clone(),
            inputs: vec![suffix],
        };
    }
    let Ok(bytes) = subgraph::serialize(&suffix) else {
        return (plan, None);
    };
    // The store's new input is whatever lies below the last INTERPOLATE.
    let materialize = chain[cut - 1].inputs[0].clone();
    (
        LogicalPlan::unary(LogicalOp::Store { name }, materialize),
        Some(bytes),
    )
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-db-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn demo_frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::new(64, 32);
                for y in 0..32 {
                    for x in 0..64 {
                        f.set(x, y, Yuv::new(((x * 2 + y + i * 3) % 256) as u8, 100, 180));
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn open_ingest_query_roundtrip() {
        let db = LightDb::open(temp_root("roundtrip")).unwrap();
        ingest::store_frames(
            &db,
            "demo",
            &demo_frames(8),
            &ingest::IngestConfig {
                fps: 4,
                gop_length: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let q = scan("demo") >> Map::builtin(BuiltinMap::Grayscale);
        let out = db.execute(&q).unwrap();
        assert_eq!(out.frame_count(), 8);
        let QueryOutput::Frames(parts) = out else {
            panic!()
        };
        let c = parts[0].1[0].get(5, 5);
        assert!((c.u as i32 - 128).abs() <= 8);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn explain_shows_physical_plan() {
        let db = LightDb::open(temp_root("explain")).unwrap();
        ingest::store_frames(
            &db,
            "demo",
            &demo_frames(4),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let q = scan("demo") >> Select::along(Dimension::T, 0.0, 1.0);
        let plan = db.explain(&q).unwrap();
        assert!(plan.contains("GOPSELECT"), "{plan}");
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn store_and_scan_back() {
        let db = LightDb::open(temp_root("store")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(4),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let q = scan("src") >> Map::builtin(BuiltinMap::Blur) >> Store::named("dst");
        let QueryOutput::Stored { name, version } = db.execute(&q).unwrap() else {
            panic!()
        };
        assert_eq!((name.as_str(), version), ("dst", 1));
        let out = db.execute(&scan("dst")).unwrap();
        assert_eq!(out.frame_count(), 4);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn ddl_through_the_engine() {
        let db = LightDb::open(temp_root("engineddl")).unwrap();
        db.execute(&create("fresh")).unwrap();
        assert!(db.catalog().exists("fresh"));
        db.execute(&drop_tlf("fresh")).unwrap();
        assert!(!db.catalog().exists("fresh"));
    }

    #[test]
    fn snapshot_pins_scan_versions() {
        let db = LightDb::open(temp_root("snapshot")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(2),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Store version 2 with different content.
        let brighter: Vec<Frame> = demo_frames(2)
            .into_iter()
            .map(|f| lightdb_frame::kernels::contrast(&f, 1.5))
            .collect();
        ingest::store_frames(
            &db,
            "src",
            &brighter,
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Explicit version scans see each version.
        let v1 = db.execute(&scan_version("src", 1)).unwrap();
        let v2 = db.execute(&scan_version("src", 2)).unwrap();
        assert_eq!(v1.frame_count(), 2);
        assert_eq!(v2.frame_count(), 2);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn expired_deadline_fails_classified() {
        let db = LightDb::open(temp_root("deadline")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(2),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let ctx = QueryCtx::unbounded().with_deadline(std::time::Duration::ZERO);
        let err = db.execute_with_ctx(&scan("src"), ctx).unwrap_err();
        match err {
            Error::Exec(e) => {
                assert!(
                    matches!(e, lightdb_exec::ExecError::DeadlineExceeded),
                    "{e}"
                )
            }
            other => panic!("unexpected error: {other}"),
        }
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn pre_cancelled_query_fails_classified() {
        let db = LightDb::open(temp_root("cancel")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(2),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let ctx = QueryCtx::unbounded();
        ctx.cancel_token().cancel();
        let err = db.execute_with_ctx(&scan("src"), ctx).unwrap_err();
        match err {
            Error::Exec(e) => assert!(matches!(e, lightdb_exec::ExecError::Cancelled), "{e}"),
            other => panic!("unexpected error: {other}"),
        }
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    /// A `MAP` that records what the pool has admitted under one
    /// session id while the query runs.
    struct AdmittedProbe {
        pool: Arc<BufferPool>,
        session: u64,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl MapUdf for AdmittedProbe {
        fn name(&self) -> &str {
            "admitted_probe"
        }

        fn apply(&self, frame: &Frame) -> Frame {
            let admitted = self.pool.session_admitted(self.session);
            self.seen
                .fetch_max(admitted, std::sync::atomic::Ordering::Relaxed);
            frame.clone()
        }
    }

    #[test]
    fn fail_fast_admission_rejects_oversized_working_set() {
        let mut db = LightDb::open(temp_root("admit")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(2),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        db.set_admission_limit(1 << 20);
        db.default.set_admit_policy(AdmitPolicy::FailFast);
        let ctx = QueryCtx::unbounded().with_mem_estimate(8 << 20);
        let err = db.execute_with_ctx(&scan("src"), ctx).unwrap_err();
        match err {
            Error::Exec(e) => {
                assert!(matches!(e, lightdb_exec::ExecError::Overloaded(_)), "{e}");
                assert_eq!(e.classify(), lightdb_core::ErrorClass::Overloaded);
            }
            other => panic!("unexpected error: {other}"),
        }
        // A fitting declaration is admitted under the default session's
        // id while the handle's query runs, and released after it.
        let probe = Arc::new(AdmittedProbe {
            pool: db.pool().clone(),
            session: db.default.id(),
            seen: Default::default(),
        });
        let ctx = QueryCtx::unbounded().with_mem_estimate(64 << 10);
        db.execute_with_ctx(&(scan("src") >> Map::udf(probe.clone())), ctx)
            .unwrap();
        let seen = probe.seen.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(seen, 64 << 10, "admitted under the default session");
        assert_eq!(db.pool().admitted(), 0, "admission released after query");
        assert_eq!(db.default.admitted_bytes(), 0);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }

    #[test]
    fn metrics_accumulate_across_queries() {
        let db = LightDb::open(temp_root("metrics")).unwrap();
        ingest::store_frames(
            &db,
            "src",
            &demo_frames(2),
            &ingest::IngestConfig {
                fps: 2,
                gop_length: 2,
                ..Default::default()
            },
        )
        .unwrap();
        db.execute(&(scan("src") >> Map::builtin(BuiltinMap::Blur)))
            .unwrap();
        db.execute(&(scan("src") >> Map::builtin(BuiltinMap::Blur)))
            .unwrap();
        // The handle's metrics are its default session's.
        assert!(std::ptr::eq(db.metrics(), db.default.metrics()));
        assert!(db.metrics().count("MAP") >= 2);
        assert!(db.metrics().count("DECODE") >= 1);
        assert_eq!(
            db.metrics()
                .counter(lightdb_exec::metrics::counters::PLAN_CACHE_HITS),
            1
        );
        // A session minted afterwards has its own id and starts empty.
        let fresh = db.session();
        assert_ne!(fresh.id(), db.default.id());
        assert_eq!(fresh.metrics().count("MAP"), 0);
        fs::remove_dir_all(db.catalog().root()).unwrap();
    }
}
