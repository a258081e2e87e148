//! Sessions and the plan cache — the engine's multi-session server
//! front-end.
//!
//! A long-running service wants N concurrent clients with *divergent*
//! settings over one catalog and one buffer pool. A [`Session`] is
//! exactly that: a cheap handle holding its **own** copies of every
//! per-client knob ([`SessionConfig`]), its own UDF registry, its own
//! [`Metrics`], and a per-session statement budget
//! ([`SessionBudget`]) — while sharing the engine-wide state
//! ([`EngineShared`]: catalog, pool, plan cache, shared-decode
//! cache) through an `Arc`. A [`LightDb`](crate::LightDb) is that
//! shared state plus one default session; every statement, from the
//! handle or from any session, runs through
//! [`Session::execute_plan_with_ctx`].
//!
//! Three properties the tests pin down:
//!
//! * **Isolation.** Two sessions with different `ReadPolicy` /
//!   `Parallelism` / options run concurrently without affecting each
//!   other; outputs are byte-identical to serial runs.
//! * **Plan caching.** Statement shapes that are cacheable (see
//!   [`lightdb_optimizer::fingerprint`]) skip re-planning on repeat
//!   execution, across *all* sessions — hit/miss/eviction counts
//!   surface on each session's `Metrics` as `plan_cache.*` counters.
//! * **Shared scans.** Concurrent queries over the same TLF/GOP range
//!   decode each GOP once through the engine-wide
//!   [`SharedDecode`](lightdb_exec::sharedscan::SharedDecode) cache
//!   (`shared_scan.*` counters).

use crate::Result;
use lightdb_core::algebra::{LogicalOp, LogicalPlan};
use lightdb_core::subgraph::UdfRegistry;
use lightdb_core::udf::{InterpUdf, MapUdf};
use lightdb_core::vrql::VrqlExpr;
use lightdb_exec::metrics::counters;
use lightdb_exec::sharedscan::SharedDecode;
use lightdb_exec::tilecache::TileCache;
use lightdb_exec::{
    Executor, Metrics, Parallelism, PhysicalPlan, QueryCtx, QueryOutput, ReadPolicy,
};
use lightdb_optimizer::{fingerprint::fingerprint, Planner, PlannerOptions};
use lightdb_storage::lru::{SingleFlightLru, Source};
use lightdb_storage::{AdmitPolicy, BufferPool, Catalog, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bound on cached plans. Entries are small (a physical-plan tree),
/// so the bound exists to keep pathological workloads (generated
/// one-off query shapes) from growing the map without end.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Per-client execution settings. Plain data — each session owns its
/// copy, which is what makes sessions independent.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Optimiser switches (device placement, rewrites, codecs).
    pub options: PlannerOptions,
    /// What scans do when stored GOPs turn out corrupt.
    pub read_policy: ReadPolicy,
    /// Worker-thread budget for chunk-parallel operators.
    pub parallelism: Parallelism,
    /// What queries with a declared working set do when the pool's
    /// admission limit is exhausted.
    pub admit_policy: AdmitPolicy,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            options: PlannerOptions::default(),
            read_policy: ReadPolicy::default(),
            parallelism: Parallelism::from_env(),
            admit_policy: AdmitPolicy::Block {
                timeout: crate::DEFAULT_ADMIT_TIMEOUT,
            },
        }
    }
}

/// Default resource budget a session applies to each statement that
/// does not bring its own [`QueryCtx`] limits. Environment knobs
/// (`LIGHTDB_DEADLINE_MS`, `LIGHTDB_MEM_CAP`) take precedence; the
/// session budget fills in whatever they leave unset.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionBudget {
    /// Per-statement deadline.
    pub deadline: Option<Duration>,
    /// Declared working set for buffer-pool admission.
    pub mem_estimate: Option<usize>,
}

/// Engine-wide cache of physical plans keyed by
/// [`fingerprint`](lightdb_optimizer::fingerprint::fingerprint)
/// strings, each weighing 1. Shared by every session: the key embeds
/// the planner options and every pinned scan version, so sessions with
/// divergent options simply occupy different entries, and a `STORE`
/// bumping a version orphans old entries instead of serving stale
/// plans — as does a `DROP` and re-create, since the catalog never
/// repeats a `(name, version)`. Single-flight: concurrent identical
/// statements plan once.
pub(crate) type PlanCache = SingleFlightLru<String, Arc<PhysicalPlan>>;

/// A plan cache holding at most `capacity` (at least one) plans.
pub(crate) fn plan_cache(capacity: usize) -> PlanCache {
    SingleFlightLru::new(capacity.max(1), 1)
}

/// State shared by every session of one engine: the durable catalog,
/// the buffer pool, the plan cache, the shared decoded-GOP cache,
/// and the session-id allocator.
pub(crate) struct EngineShared {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) plan_cache: PlanCache,
    /// `None` when shared scans are disabled
    /// (`LIGHTDB_SHARED_DECODE_MB=0`).
    pub(crate) shared_decode: Option<Arc<SharedDecode>>,
    /// Engine-wide encoded-tile cache for the serving path. `None`
    /// when disabled (`LIGHTDB_TILE_CACHE_MB=0`).
    pub(crate) tile_cache: Option<Arc<TileCache>>,
    pub(crate) next_session: AtomicU64,
}

impl std::fmt::Debug for EngineShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineShared").finish_non_exhaustive()
    }
}

/// One client's connection to the engine.
///
/// Created with [`LightDb::session`](crate::LightDb::session); cheap
/// (an `Arc` plus plain-data copies) and independent: every knob
/// mutated through a session affects that session alone. Sessions
/// are `Send`, so a server can hand each client thread its own.
#[derive(Debug)]
pub struct Session {
    shared: Arc<EngineShared>,
    id: u64,
    config: SessionConfig,
    budget: SessionBudget,
    udfs: UdfRegistry,
    metrics: Metrics,
}

impl Session {
    /// A session at the default settings with an empty UDF registry.
    pub(crate) fn new(shared: Arc<EngineShared>) -> Session {
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            shared,
            id,
            config: SessionConfig::default(),
            budget: SessionBudget::default(),
            udfs: UdfRegistry::new(),
            metrics: Metrics::new(),
        }
    }

    /// This session's unique id (tags its buffer-pool admissions; see
    /// [`BufferPool::session_admitted`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine-wide catalog (for inspection).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// Current per-session settings.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Current optimiser options.
    pub fn options(&self) -> PlannerOptions {
        self.config.options
    }

    /// Replaces this session's optimiser options.
    pub fn set_options(&mut self, options: PlannerOptions) {
        self.config.options = options;
    }

    /// Sets this session's read policy for scans over corrupt data.
    pub fn set_read_policy(&mut self, policy: ReadPolicy) {
        self.config.read_policy = policy;
    }

    /// Sets this session's worker-thread budget. Output is
    /// byte-identical at any setting.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.config.parallelism = parallelism;
    }

    /// Sets this session's admission policy.
    pub fn set_admit_policy(&mut self, policy: AdmitPolicy) {
        self.config.admit_policy = policy;
    }

    /// Sets the default per-statement budget (deadline / declared
    /// working set). Environment knobs still take precedence.
    pub fn set_budget(&mut self, budget: SessionBudget) {
        self.budget = budget;
    }

    /// Registers a custom `MAP` UDF in this session's registry only.
    pub fn register_map_udf(&mut self, udf: Arc<dyn MapUdf>) {
        self.udfs.register_map(udf);
    }

    /// Registers a custom `INTERPOLATE` UDF in this session's
    /// registry only.
    pub fn register_interp_udf(&mut self, udf: Arc<dyn InterpUdf>) {
        self.udfs.register_interp(udf);
    }

    /// This session's cumulative metrics (decode/encode spans, plan
    /// cache and shared-scan counters).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Outstanding admission bytes currently held by this session.
    pub fn admitted_bytes(&self) -> usize {
        self.shared.pool.session_admitted(self.id)
    }

    /// Opens a [`TileServer`](crate::tileserver::TileServer) over
    /// this session: a headset-facing serving facade that answers
    /// `(viewer, second, orientation)` with encoded tile bytes cut
    /// zero-decode from `hq_name` (and the optional low-quality
    /// companion `lq_name` for the neighbor ring), routed through the
    /// engine-wide tile cache. Stream versions are pinned at open.
    /// Serve latencies and `tile_cache.*` / `tile_server.*` counters
    /// land on this session's [`Metrics`].
    pub fn tile_server(
        &self,
        hq_name: &str,
        lq_name: Option<&str>,
        config: crate::tileserver::TileServerConfig,
    ) -> Result<crate::tileserver::TileServer> {
        crate::tileserver::TileServer::open(
            self.shared.clone(),
            self.metrics.clone(),
            config,
            hq_name,
            lq_name,
        )
    }

    /// Executes a VRQL query under this session's settings with a
    /// fresh per-statement context (environment knobs, then the
    /// session budget).
    pub fn execute(&self, query: &VrqlExpr) -> Result<QueryOutput> {
        self.execute_with_ctx(query, self.statement_ctx())
    }

    /// [`execute`](Session::execute) under an explicit [`QueryCtx`].
    pub fn execute_with_ctx(&self, query: &VrqlExpr, ctx: QueryCtx) -> Result<QueryOutput> {
        self.execute_plan_with_ctx(query.plan(), ctx)
    }

    /// Executes a bare [`LogicalPlan`] under this session's settings —
    /// the engine's single execution path, and the entry point for
    /// plans that did not come from local VRQL, such as distributed
    /// subplans a cluster worker deserialised off the wire
    /// ([`lightdb_core::subgraph`]).
    pub fn execute_plan_with_ctx(&self, plan: &LogicalPlan, ctx: QueryCtx) -> Result<QueryOutput> {
        let (shared, cfg, metrics) = (&self.shared, &self.config, &self.metrics);
        // Pin a snapshot and resolve unversioned scans against it,
        // splicing stored view subgraphs in as we go.
        let snapshot = Snapshot::begin(&shared.catalog);
        let pinned = crate::resolve_scans_in(&shared.catalog, &self.udfs, plan.clone(), &snapshot)?;
        if let LogicalOp::Store { name } = &pinned.op {
            snapshot.note_write(name)?;
        }
        // Peel a continuous suffix off STOREs (opt-in policy).
        let (pinned, view_subgraph) = if cfg.options.defer_continuous {
            crate::peel_view_subgraph(pinned)
        } else {
            (pinned, None)
        };
        // Plan, through the cache when the resolved shape is cacheable.
        // The fingerprint embeds options and pinned scan versions, so a
        // hit is exactly the plan `Planner::plan` would rebuild. Writes
        // (the only statements carrying a view subgraph) never
        // fingerprint, so the splice below stays on the uncached path.
        let physical: Arc<PhysicalPlan> = match fingerprint(&pinned, &cfg.options) {
            Some(key) if view_subgraph.is_none() => {
                let served = shared.plan_cache.get_or_compute(&key, &|| None, || {
                    let plan = Planner::new(shared.catalog.clone(), cfg.options).plan(&pinned)?;
                    Ok((Arc::new(plan), 1))
                });
                // A request that waited on another's planning is a hit; a
                // planner error is its own leader's miss, cached nowhere.
                let served = match served {
                    Ok(served) => served,
                    Err(e) => {
                        metrics.bump(counters::PLAN_CACHE_MISSES);
                        return Err(e);
                    }
                };
                let kind = match served.source {
                    Source::Miss => counters::PLAN_CACHE_MISSES,
                    Source::Hit | Source::Coalesced => counters::PLAN_CACHE_HITS,
                };
                metrics.add_all([(kind, 1), (counters::PLAN_CACHE_EVICTIONS, served.evicted)]);
                served.value
            }
            _ => {
                metrics.bump(counters::PLAN_CACHE_MISSES);
                let mut physical =
                    Planner::new(shared.catalog.clone(), cfg.options).plan(&pinned)?;
                if let Some(bytes) = &view_subgraph {
                    if let PhysicalPlan::Store {
                        view_subgraph: vs, ..
                    } = &mut physical
                    {
                        *vs = Some(bytes.clone());
                    }
                }
                Arc::new(physical)
            }
        };
        let mut executor = Executor::new(shared.catalog.clone(), shared.pool.clone());
        executor.metrics = metrics.clone();
        executor.spatial_index = cfg.options.use_indexes;
        executor.read_policy = cfg.read_policy;
        executor.parallelism = cfg.parallelism;
        executor.admit_policy = cfg.admit_policy;
        executor.shared_decode = shared.shared_decode.clone();
        executor.session = Some(self.id);
        executor.ctx = ctx;
        let out = executor.run(&physical)?;
        if let QueryOutput::Stored { name, version } = &out {
            snapshot.expose(name, *version);
        }
        Ok(out)
    }

    /// Returns the optimised physical plan for a query under this
    /// session's options, as text — LightDB's `EXPLAIN`.
    pub fn explain(&self, query: &VrqlExpr) -> Result<String> {
        let planner = Planner::new(self.shared.catalog.clone(), self.config.options);
        Ok(planner.plan(query.plan())?.to_string())
    }

    /// A fresh per-statement context: environment limits first, the
    /// session budget filling whatever they leave unset.
    fn statement_ctx(&self) -> QueryCtx {
        let mut ctx = QueryCtx::from_env();
        if ctx.remaining().is_none() {
            if let Some(d) = self.budget.deadline {
                ctx = ctx.with_deadline(d);
            }
        }
        if ctx.mem_estimate().is_none() {
            if let Some(b) = self.budget.mem_estimate {
                ctx = ctx.with_mem_estimate(b);
            }
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_exec::PhysicalPlan;

    fn get(cache: &PlanCache, key: &str) -> lightdb_storage::lru::Served<Arc<PhysicalPlan>> {
        let plan = Arc::new(PhysicalPlan::Omega {
            volume: lightdb_geom::Volume::everywhere(),
        });
        cache
            .get_or_compute(&key.to_string(), &|| None::<()>, || Ok((plan, 1)))
            .unwrap()
    }

    #[test]
    fn plan_cache_hits_after_insert() {
        let cache = plan_cache(4);
        assert_eq!(get(&cache, "a").source, Source::Miss);
        assert_eq!(get(&cache, "a").source, Source::Hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let cache = plan_cache(2);
        get(&cache, "a");
        get(&cache, "b");
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(get(&cache, "a").source, Source::Hit);
        assert_eq!(get(&cache, "c").evicted, 1);
        assert!(cache.contains(&"a".to_string()), "recent entry survives");
        assert!(!cache.contains(&"b".to_string()), "LRU entry evicted");
        assert!(cache.contains(&"c".to_string()));
    }

    #[test]
    fn plan_cache_replacement_is_not_an_eviction() {
        let cache = plan_cache(2);
        get(&cache, "a");
        assert_eq!(get(&cache, "a").evicted, 0);
        assert_eq!((cache.len(), cache.stats().evictions), (1, 0));
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = plan_cache(0);
        get(&cache, "a");
        assert!(cache.contains(&"a".to_string()));
        assert_eq!(get(&cache, "b").evicted, 1);
        assert_eq!(cache.len(), 1);
    }
}
