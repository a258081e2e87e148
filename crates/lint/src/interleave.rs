//! A miniature loom-style deterministic interleaving explorer.
//!
//! Two of the workspace's concurrency contracts are load-bearing for
//! everything PR 2 built on top of the buffer pool and the parallel
//! executor:
//!
//! 1. **Single-flight loading** (`storage::bufferpool::BufferPool`):
//!    concurrent misses on one key coalesce into one disk load, byte
//!    accounting always equals residency (`bytes == resident`), and a
//!    failed load lets a waiter take over as loader.
//! 2. **Batch reassembly** (`exec::parallel::scatter`): workers pull
//!    jobs from a shared queue and push `(index, result)` pairs in
//!    completion order; reassembly must reproduce the serial output
//!    byte-identically for *every* completion interleaving — also
//!    when one job yields no, one or many outputs, as the `SUBQUERY`
//!    bodies `par_flat_map_chunks_ctx` fans out do.
//!
//! The stress tests in those crates sample a handful of OS-scheduler
//! interleavings per run. This harness instead *enumerates* them: the
//! algorithms are restated as explicit state machines whose atomic
//! steps are exactly the lock-protected critical sections of the real
//! code (the same granularity loom would instrument), and a DFS
//! scheduler runs every possible schedule of 2–3 threads, checking
//! the invariants in each terminal state and flagging deadlock when
//! no runnable thread exists.
//!
//! The step decomposition is kept in lock-step with
//! `crates/storage/src/bufferpool.rs` and
//! `crates/exec/src/parallel.rs`; each step documents the source
//! lines it models.

use std::collections::BTreeMap;

/// One model thread: a cloneable program counter plus locals.
pub trait ModelThread<S>: Clone {
    /// True once the thread has finished its program.
    fn done(&self) -> bool;
    /// True when the thread can take a step now (condvar-style waits
    /// return false until their wake condition holds).
    fn runnable(&self, shared: &S) -> bool;
    /// Executes one atomic step (one lock-protected critical section
    /// or one out-of-lock action).
    fn step(&mut self, shared: &mut S);
}

/// Result of exhaustively exploring one scenario.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Distinct complete schedules (terminal DFS paths).
    pub schedules: u64,
    /// Total steps executed across all schedules.
    pub steps: u64,
    /// Invariant violations: (schedule trace, message).
    pub failures: Vec<(String, String)>,
    /// Schedules that wedged (non-done threads, none runnable).
    pub deadlocks: u64,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.deadlocks == 0 && self.schedules > 0
    }
}

/// Hard cap on explored schedules: keeps an accidentally huge model
/// from hanging CI. Scenarios here are orders of magnitude smaller.
const MAX_SCHEDULES: u64 = 1_000_000;

/// Terminal-state invariant checker: sees the final shared state and
/// every thread's final local state.
type Check<'a, S, T> = &'a dyn Fn(&S, &[T]) -> Result<(), String>;

/// Exhaustively explores every interleaving of `threads` over
/// `shared`, invoking `check` on each terminal state.
pub fn explore<S: Clone, T: ModelThread<S>>(
    shared: &S,
    threads: &[T],
    check: Check<'_, S, T>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = String::new();
    dfs(shared, threads, check, &mut trace, &mut out);
    out
}

fn dfs<S: Clone, T: ModelThread<S>>(
    shared: &S,
    threads: &[T],
    check: Check<'_, S, T>,
    trace: &mut String,
    out: &mut Outcome,
) {
    if out.schedules >= MAX_SCHEDULES {
        return;
    }
    let mut any_runnable = false;
    let mut all_done = true;
    for t in threads {
        if !t.done() {
            all_done = false;
            if t.runnable(shared) {
                any_runnable = true;
            }
        }
    }
    if all_done {
        out.schedules += 1;
        if let Err(msg) = check(shared, threads) {
            out.failures.push((trace.clone(), msg));
        }
        return;
    }
    if !any_runnable {
        out.schedules += 1;
        out.deadlocks += 1;
        out.failures
            .push((trace.clone(), "deadlock: no runnable thread".into()));
        return;
    }
    for (i, t) in threads.iter().enumerate() {
        if t.done() || !t.runnable(shared) {
            continue;
        }
        let mut s2 = shared.clone();
        let mut t2: Vec<T> = threads.to_vec();
        t2[i].step(&mut s2);
        out.steps += 1;
        let len = trace.len();
        trace.push((b'A' + (i as u8 % 26)) as char);
        dfs(&s2, &t2, check, trace, out);
        trace.truncate(len);
    }
}

// ---------------------------------------------------------------------------
// Model 1: buffer-pool single-flight (storage::bufferpool::get_gop)
// ---------------------------------------------------------------------------

/// Shared pool state: the fields of `PoolInner` that the invariants
/// speak about, keyed by small integers instead of media paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolState {
    /// key → payload length (the model's `map`).
    resident: BTreeMap<u8, usize>,
    /// key → LRU stamp.
    stamps: BTreeMap<u8, u64>,
    /// key → flight id with a load in progress (the `loading` map).
    loading: BTreeMap<u8, usize>,
    /// flight id → completed (condvar `done` flags).
    flights_done: Vec<bool>,
    hits: u64,
    misses: u64,
    loads: u64,
    bytes: usize,
    evictions: u64,
    clock: u64,
    capacity: usize,
    /// When set, the Nth disk load (1-based) returns an error — the
    /// fault-injection hook of the model.
    failing_load: Option<u64>,
}

impl PoolState {
    pub fn new(capacity: usize) -> PoolState {
        PoolState {
            resident: BTreeMap::new(),
            stamps: BTreeMap::new(),
            loading: BTreeMap::new(),
            flights_done: Vec::new(),
            hits: 0,
            misses: 0,
            loads: 0,
            bytes: 0,
            evictions: 0,
            clock: 0,
            capacity,
            failing_load: None,
        }
    }

    pub fn failing_load(mut self, nth: u64) -> PoolState {
        self.failing_load = Some(nth);
        self
    }

    fn resident_bytes(&self) -> usize {
        self.resident.values().sum()
    }

    /// Mirrors `PoolInner::evict_to_capacity`: LRU-evict to capacity,
    /// dropping the just-inserted `protect` key only as a last resort.
    fn evict_to_capacity(&mut self, protect: u8) {
        while self.bytes > self.capacity {
            let victim = self
                .resident
                .keys()
                .filter(|&&k| k != protect)
                .min_by_key(|&&k| self.stamps.get(&k).copied().unwrap_or(0))
                .copied();
            let Some(v) = victim else { break };
            if let Some(len) = self.resident.remove(&v) {
                self.bytes -= len;
                self.evictions += 1;
            }
        }
        if self.bytes > self.capacity {
            if let Some(len) = self.resident.remove(&protect) {
                self.bytes -= len;
                self.evictions += 1;
            }
        }
    }
}

/// Program counter of one `get_gop(key)` call.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PoolPc {
    /// The locked fast path: hit check, miss accounting, flight
    /// registration or wait decision (bufferpool.rs lines 167–201).
    CheckCache,
    /// The out-of-lock disk read (lines 202–205).
    Load {
        flight: usize,
    },
    /// The locked publish: stats, insert, accounting, eviction,
    /// flight completion (lines 206–229).
    Publish {
        flight: usize,
        load_ok: bool,
    },
    /// Parked on `Flight::wait` until the loader finishes (line 194).
    WaitFlight {
        flight: usize,
    },
    Done,
}

/// One model thread calling `get_gop(key)` for a `len`-byte GOP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolThread {
    key: u8,
    len: usize,
    pc: PoolPc,
    /// Exactly one of hits/misses per call (the `counted` flag).
    counted: bool,
    /// What the call returned: payload length or error.
    pub result: Option<Result<usize, ()>>,
}

impl PoolThread {
    pub fn get(key: u8, len: usize) -> PoolThread {
        PoolThread {
            key,
            len,
            pc: PoolPc::CheckCache,
            counted: false,
            result: None,
        }
    }
}

impl ModelThread<PoolState> for PoolThread {
    fn done(&self) -> bool {
        self.pc == PoolPc::Done
    }

    fn runnable(&self, shared: &PoolState) -> bool {
        match &self.pc {
            PoolPc::WaitFlight { flight } => shared.flights_done[*flight],
            PoolPc::Done => false,
            _ => true,
        }
    }

    fn step(&mut self, s: &mut PoolState) {
        match self.pc.clone() {
            PoolPc::CheckCache => {
                s.clock += 1;
                if s.resident.contains_key(&self.key) {
                    s.stamps.insert(self.key, s.clock);
                    if !self.counted {
                        s.hits += 1;
                    }
                    self.result = Some(Ok(s.resident[&self.key]));
                    self.pc = PoolPc::Done;
                    return;
                }
                if !self.counted {
                    s.misses += 1;
                    self.counted = true;
                }
                if let Some(&flight) = s.loading.get(&self.key) {
                    self.pc = PoolPc::WaitFlight { flight };
                    return;
                }
                let flight = s.flights_done.len();
                s.flights_done.push(false);
                s.loading.insert(self.key, flight);
                self.pc = PoolPc::Load { flight };
            }
            PoolPc::Load { flight } => {
                // The disk read happens outside the lock; whether it
                // fails is decided here so `Publish` stays atomic.
                let nth = s.loads + 1; // sequenced by publish order below
                let ok = s.failing_load != Some(nth);
                self.pc = PoolPc::Publish {
                    flight,
                    load_ok: ok,
                };
            }
            PoolPc::Publish { flight, load_ok } => {
                s.loads += 1;
                s.loading.remove(&self.key);
                s.flights_done[flight] = true;
                if !load_ok {
                    self.result = Some(Err(()));
                    self.pc = PoolPc::Done;
                    return;
                }
                s.clock += 1;
                if let Some(old) = s.resident.insert(self.key, self.len) {
                    s.bytes -= old;
                }
                s.stamps.insert(self.key, s.clock);
                s.bytes += self.len;
                s.evict_to_capacity(self.key);
                self.result = Some(Ok(self.len));
                self.pc = PoolPc::Done;
            }
            PoolPc::WaitFlight { .. } => {
                // Woken: re-check the cache; if the load failed or the
                // entry was evicted we may become the loader.
                self.pc = PoolPc::CheckCache;
            }
            PoolPc::Done => {}
        }
    }
}

/// The invariants every terminal pool state must satisfy, regardless
/// of schedule. Scenario-specific bounds are layered on by callers.
pub fn pool_invariants(s: &PoolState, threads: &[PoolThread]) -> Result<(), String> {
    if s.bytes != s.resident_bytes() {
        return Err(format!(
            "bytes {} != resident {}",
            s.bytes,
            s.resident_bytes()
        ));
    }
    if s.bytes > s.capacity {
        return Err(format!("bytes {} exceeds capacity {}", s.bytes, s.capacity));
    }
    if !s.loading.is_empty() {
        return Err(format!("loading map not drained: {:?}", s.loading));
    }
    if s.hits + s.misses != threads.len() as u64 {
        return Err(format!(
            "hits {} + misses {} != {} calls",
            s.hits,
            s.misses,
            threads.len()
        ));
    }
    for (i, t) in threads.iter().enumerate() {
        match t.result {
            None => return Err(format!("thread {i} finished without a result")),
            Some(Ok(len)) if len != t.len => {
                return Err(format!("thread {i} got {len} bytes, wanted {}", t.len))
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Model 2: batch scatter / reassembly (exec::parallel::scatter)
// ---------------------------------------------------------------------------

/// Shared scatter state: the job queue and completion-ordered results
/// vector, each protected by its own mutex in the real code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterState {
    /// Reversed `(index, item)` jobs; `pop()` hands out input order
    /// (parallel.rs lines 88–90).
    queue: Vec<(usize, u32)>,
    /// `(index, f(item))` pushed in completion order (line 99). One
    /// item yields any number of outputs: the chunk drivers built on
    /// `scatter` are flat-maps (`par_flat_map_chunks_ctx`), with the
    /// one-to-one operators as the single-output case.
    results: Vec<(usize, ItemResult)>,
    jobs: usize,
}

/// What `f` returns for one item: its outputs, or the failed item.
type ItemResult = Result<Vec<u32>, u32>;

impl ScatterState {
    /// Seeds the queue with `items` in reversed order, exactly as
    /// `scatter` does so `pop()` hands out jobs in input order.
    pub fn new(items: &[u32]) -> ScatterState {
        let mut queue: Vec<(usize, u32)> = items.iter().copied().enumerate().collect();
        queue.reverse();
        ScatterState {
            queue,
            results: Vec::new(),
            jobs: items.len(),
        }
    }
}

/// The model transform: `item % 10` outputs per item, each a cheap
/// injective function of the item and its position so wrong, duplicate
/// or misplaced outputs are detectable.
fn kernel(item: u32) -> Vec<u32> {
    (0..item % 10)
        .map(|k| item.wrapping_mul(16).wrapping_add(k))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WorkerPc {
    /// Locked queue pop (parallel.rs line 95).
    Pop,
    /// Out-of-lock compute of `f(i, t)` (line 98).
    Compute {
        index: usize,
        item: u32,
    },
    /// Locked results push (line 99).
    Push {
        index: usize,
        value: ItemResult,
    },
    Done,
}

/// One scatter worker; `fail_index` models a transform error for the
/// error-in-position scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerThread {
    pc: WorkerPc,
    fail_index: Option<usize>,
}

impl WorkerThread {
    pub fn new(fail_index: Option<usize>) -> WorkerThread {
        WorkerThread {
            pc: WorkerPc::Pop,
            fail_index,
        }
    }
}

impl ModelThread<ScatterState> for WorkerThread {
    fn done(&self) -> bool {
        self.pc == WorkerPc::Done
    }

    fn runnable(&self, _shared: &ScatterState) -> bool {
        self.pc != WorkerPc::Done
    }

    fn step(&mut self, s: &mut ScatterState) {
        match self.pc.clone() {
            WorkerPc::Pop => match s.queue.pop() {
                Some((index, item)) => self.pc = WorkerPc::Compute { index, item },
                None => self.pc = WorkerPc::Done,
            },
            WorkerPc::Compute { index, item } => {
                let value = if self.fail_index == Some(index) {
                    Err(item)
                } else {
                    Ok(kernel(item))
                };
                self.pc = WorkerPc::Push { index, value };
            }
            WorkerPc::Push { index, value } => {
                s.results.push((index, value));
                self.pc = WorkerPc::Pop;
            }
            WorkerPc::Done => {}
        }
    }
}

/// The reassembly contract: scattering the results back into
/// index-ordered slots and replaying them reproduces the serial
/// flat-map exactly — byte-identical, every item's outputs contiguous
/// and ahead of the next item's, errors in their input positions.
pub fn scatter_invariants(s: &ScatterState, items: &[u32], fail: &[usize]) -> Result<(), String> {
    if s.results.len() != s.jobs {
        return Err(format!("{} results for {} jobs", s.results.len(), s.jobs));
    }
    // Reassemble exactly as parallel.rs lines 106–110 do.
    let mut slots: Vec<Option<&ItemResult>> = vec![None; s.jobs];
    for (i, v) in &s.results {
        if slots[*i].is_some() {
            return Err(format!("slot {i} produced twice"));
        }
        slots[*i] = Some(v);
    }
    // Replay the slots as `par_flat_map_chunks_ctx` fills its outbox —
    // an item's outputs in order, or its error in their place — noting
    // which item each replayed entry came from.
    let mut replayed_from: Vec<usize> = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let expected = if fail.contains(&i) {
            Err(items[i])
        } else {
            Ok(kernel(items[i]))
        };
        match slot {
            None => return Err(format!("slot {i} missing")),
            Some(v) if **v != expected => {
                return Err(format!(
                    "slot {i}: got {v:?}, serial path gives {expected:?}"
                ))
            }
            Some(v) => {
                let entries = v.as_ref().map_or(1, Vec::len);
                replayed_from.extend(std::iter::repeat_n(i, entries));
            }
        }
    }
    // Outputs of item i are contiguous and precede item i + 1's.
    if let Some(w) = replayed_from.windows(2).find(|w| w[0] > w[1]) {
        return Err(format!(
            "item {}'s output replayed after item {}'s",
            w[1], w[0]
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Model 3: shared-scan decode coalescing (exec::sharedscan::SharedDecode)
// ---------------------------------------------------------------------------

/// Shared state of `SharedDecode`: the decoded-frame cache plus the
/// generic single-flight table (`storage::bufferpool::SingleFlight`),
/// each behind its own mutex in the real code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedScanState {
    /// key → decoded payload length (the model's frame cache).
    cache: BTreeMap<u8, usize>,
    /// key → flight id with a decode in progress.
    flights: BTreeMap<u8, usize>,
    /// flight id → completed (`Flight::finish`).
    flights_done: Vec<bool>,
    hits: u64,
    decodes: u64,
    /// When set, the Nth decode (1-based) fails — models a corrupt
    /// GOP surfacing in the leader.
    failing_decode: Option<u64>,
}

impl SharedScanState {
    pub fn new() -> SharedScanState {
        SharedScanState {
            cache: BTreeMap::new(),
            flights: BTreeMap::new(),
            flights_done: Vec::new(),
            hits: 0,
            decodes: 0,
            failing_decode: None,
        }
    }

    pub fn failing_decode(mut self, nth: u64) -> SharedScanState {
        self.failing_decode = Some(nth);
        self
    }
}

impl Default for SharedScanState {
    fn default() -> SharedScanState {
        SharedScanState::new()
    }
}

/// Program counter of one `SharedDecode::decode(key)` call. The step
/// granularity mirrors the real critical sections: the cache lookup
/// and the `SingleFlight::join` are separate lock acquisitions, so a
/// leader can publish *between* another thread's lookup and join.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SharedScanPc {
    /// Locked cache lookup (sharedscan.rs `decode` loop head).
    CheckCache,
    /// Locked `SingleFlight::join`: register as leader or park.
    Join,
    /// Out-of-lock decode by the leader.
    Decode {
        flight: usize,
    },
    /// Locked publish + ticket drop (flight removal and `finish`).
    Publish {
        flight: usize,
        ok: bool,
    },
    /// Parked on `Flight::wait_done`; wakes on completion or abort.
    WaitFlight {
        flight: usize,
    },
    Done,
}

/// One model query decoding GOP `key` (`len` decoded bytes). An
/// `aborted` thread models a cancelled `QueryCtx`: its waits return
/// immediately and it must exit with an error instead of parking
/// forever on a foreign flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedScanThread {
    key: u8,
    len: usize,
    pc: SharedScanPc,
    aborted: bool,
    /// What the call returned: decoded length, or error (failed own
    /// decode / cancelled).
    pub result: Option<Result<usize, ()>>,
}

impl SharedScanThread {
    pub fn decode(key: u8, len: usize) -> SharedScanThread {
        SharedScanThread {
            key,
            len,
            pc: SharedScanPc::CheckCache,
            aborted: false,
            result: None,
        }
    }

    pub fn aborted(mut self) -> SharedScanThread {
        self.aborted = true;
        self
    }
}

impl ModelThread<SharedScanState> for SharedScanThread {
    fn done(&self) -> bool {
        self.pc == SharedScanPc::Done
    }

    fn runnable(&self, shared: &SharedScanState) -> bool {
        match &self.pc {
            // The real wait is a timed condvar loop that polls the
            // abort flag, so an aborted waiter is always runnable.
            SharedScanPc::WaitFlight { flight } => self.aborted || shared.flights_done[*flight],
            SharedScanPc::Done => false,
            _ => true,
        }
    }

    fn step(&mut self, s: &mut SharedScanState) {
        match self.pc.clone() {
            SharedScanPc::CheckCache => {
                if let Some(&len) = s.cache.get(&self.key) {
                    s.hits += 1;
                    self.result = Some(Ok(len));
                    self.pc = SharedScanPc::Done;
                    return;
                }
                self.pc = SharedScanPc::Join;
            }
            SharedScanPc::Join => {
                if let Some(&flight) = s.flights.get(&self.key) {
                    self.pc = SharedScanPc::WaitFlight { flight };
                    return;
                }
                let flight = s.flights_done.len();
                s.flights_done.push(false);
                s.flights.insert(self.key, flight);
                self.pc = SharedScanPc::Decode { flight };
            }
            SharedScanPc::Decode { flight } => {
                // Leader double-check (sharedscan.rs `Leader` arm): a
                // prior leader may have published between our lookup
                // and our join; serve the hit instead of re-decoding.
                if let Some(&len) = s.cache.get(&self.key) {
                    s.hits += 1;
                    self.result = Some(Ok(len));
                    s.flights.remove(&self.key);
                    s.flights_done[flight] = true;
                    self.pc = SharedScanPc::Done;
                    return;
                }
                s.decodes += 1;
                let ok = s.failing_decode != Some(s.decodes);
                self.pc = SharedScanPc::Publish { flight, ok };
            }
            SharedScanPc::Publish { flight, ok } => {
                if ok {
                    s.cache.insert(self.key, self.len);
                    self.result = Some(Ok(self.len));
                } else {
                    // A failed leader publishes nothing; dropping the
                    // ticket wakes waiters so one can take over.
                    self.result = Some(Err(()));
                }
                s.flights.remove(&self.key);
                s.flights_done[flight] = true;
                self.pc = SharedScanPc::Done;
            }
            SharedScanPc::WaitFlight { flight } => {
                if self.aborted && !s.flights_done[flight] {
                    // `FlightJoin::Aborted` → `ctx.check()` fails.
                    self.result = Some(Err(()));
                    self.pc = SharedScanPc::Done;
                    return;
                }
                // `FlightJoin::Completed`: loop back to the lookup; on
                // a failed leader we may become the next leader.
                self.pc = SharedScanPc::CheckCache;
            }
            SharedScanPc::Done => {}
        }
    }
}

/// Terminal invariants for every shared-scan schedule.
pub fn shared_scan_invariants(
    s: &SharedScanState,
    threads: &[SharedScanThread],
) -> Result<(), String> {
    if !s.flights.is_empty() {
        return Err(format!("flight table not drained: {:?}", s.flights));
    }
    for (i, t) in threads.iter().enumerate() {
        match t.result {
            None => return Err(format!("thread {i} finished without a result")),
            Some(Ok(len)) if len != t.len => {
                return Err(format!("thread {i} got {len} bytes, wanted {}", t.len))
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Model 4: encoded-tile cache single-flight (exec::tilecache::TileCache)
// ---------------------------------------------------------------------------

/// Shared state of `TileCache`: the byte-budgeted LRU map plus the
/// generic single-flight table, each behind its own lock in the real
/// code (`CacheInner` mutex and `SingleFlight`'s mutex).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileCacheState {
    /// key → (encoded tile length, LRU stamp).
    cache: BTreeMap<u8, (usize, u64)>,
    bytes: usize,
    budget: usize,
    clock: u64,
    /// key → flight id with an extraction in progress.
    flights: BTreeMap<u8, usize>,
    /// flight id → completed (`FlightTicket` dropped).
    flights_done: Vec<bool>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    /// `extract_tile` executions — the work the cache exists to avoid.
    extracts: u64,
    /// When set, the Nth extraction (1-based) fails — a corrupt GOP
    /// surfacing in the leader.
    failing_extract: Option<u64>,
}

impl TileCacheState {
    pub fn new(budget: usize) -> TileCacheState {
        TileCacheState {
            cache: BTreeMap::new(),
            bytes: 0,
            budget,
            clock: 0,
            flights: BTreeMap::new(),
            flights_done: Vec::new(),
            hits: 0,
            misses: 0,
            coalesced: 0,
            evictions: 0,
            extracts: 0,
            failing_extract: None,
        }
    }

    pub fn failing_extract(mut self, nth: u64) -> TileCacheState {
        self.failing_extract = Some(nth);
        self
    }

    /// Mirrors `CacheInner::evict_to_budget`: LRU-evict sparing the
    /// just-published key, then drop even it if alone over budget
    /// (oversized tiles are served but never retained).
    fn evict_to_budget(&mut self, protect: u8) {
        while self.bytes > self.budget {
            let victim = self
                .cache
                .iter()
                .filter(|(&k, _)| k != protect)
                .min_by_key(|(_, &(_, stamp))| stamp)
                .map(|(&k, _)| k);
            let Some(v) = victim else { break };
            if let Some((len, _)) = self.cache.remove(&v) {
                self.bytes -= len;
                self.evictions += 1;
            }
        }
        if self.bytes > self.budget {
            if let Some((len, _)) = self.cache.remove(&protect) {
                self.bytes -= len;
                self.evictions += 1;
            }
        }
    }
}

/// Program counter of one `TileCache::get_or_extract(key)` call. The
/// cache lookup and the `SingleFlight::join` are separate lock
/// acquisitions (as in the real code), so a leader can publish
/// between another thread's lookup and join — the leader double-check
/// covers that window.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TileCachePc {
    /// Locked cache lookup (tilecache.rs `get_or_extract` loop head).
    CheckCache,
    /// Locked `SingleFlight::join`: become leader or park.
    Join,
    /// Leader: locked double-check, then the out-of-lock
    /// `extract_tile` whose success is decided here so `Publish`
    /// stays atomic.
    Extract {
        flight: usize,
    },
    /// Locked publish + eviction + ticket drop — or, on a failed
    /// extraction, just the ticket drop (nothing is published and
    /// misses is *not* bumped; the error propagates).
    Publish {
        flight: usize,
        ok: bool,
    },
    /// Parked on the flight; wakes on completion or abort.
    WaitFlight {
        flight: usize,
    },
    Done,
}

/// One model request for tile `key` (`len` encoded bytes). An
/// `aborted` thread models a cancelled request: its waits return
/// immediately and it must exit with an error rather than park
/// forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileCacheThread {
    key: u8,
    len: usize,
    pc: TileCachePc,
    /// Parked behind a foreign flight at least once — decides hit vs
    /// coalesced attribution (the `waited` flag in the real code).
    waited: bool,
    aborted: bool,
    /// What the call returned: served length, or error (failed own
    /// extraction / cancelled).
    pub result: Option<Result<usize, ()>>,
}

impl TileCacheThread {
    pub fn get(key: u8, len: usize) -> TileCacheThread {
        TileCacheThread {
            key,
            len,
            pc: TileCachePc::CheckCache,
            waited: false,
            aborted: false,
            result: None,
        }
    }

    pub fn aborted(mut self) -> TileCacheThread {
        self.aborted = true;
        self
    }

    /// Serve from cache with hit/coalesced attribution (shared by the
    /// loop-head lookup and the leader double-check).
    fn serve_hit(&mut self, s: &mut TileCacheState, len: usize) {
        s.clock += 1;
        if let Some(entry) = s.cache.get_mut(&self.key) {
            entry.1 = s.clock; // LRU touch
        }
        if self.waited {
            s.coalesced += 1;
        } else {
            s.hits += 1;
        }
        self.result = Some(Ok(len));
        self.pc = TileCachePc::Done;
    }
}

impl ModelThread<TileCacheState> for TileCacheThread {
    fn done(&self) -> bool {
        self.pc == TileCachePc::Done
    }

    fn runnable(&self, shared: &TileCacheState) -> bool {
        match &self.pc {
            // The real wait is the sanctioned timed-condvar loop that
            // polls `should_abort`, so an aborted waiter always runs.
            TileCachePc::WaitFlight { flight } => self.aborted || shared.flights_done[*flight],
            TileCachePc::Done => false,
            _ => true,
        }
    }

    fn step(&mut self, s: &mut TileCacheState) {
        match self.pc.clone() {
            TileCachePc::CheckCache => {
                if let Some(&(len, _)) = s.cache.get(&self.key) {
                    self.serve_hit(s, len);
                    return;
                }
                self.pc = TileCachePc::Join;
            }
            TileCachePc::Join => {
                if let Some(&flight) = s.flights.get(&self.key) {
                    self.pc = TileCachePc::WaitFlight { flight };
                    return;
                }
                let flight = s.flights_done.len();
                s.flights_done.push(false);
                s.flights.insert(self.key, flight);
                self.pc = TileCachePc::Extract { flight };
            }
            TileCachePc::Extract { flight } => {
                // Leader double-check: a prior leader may have
                // published between our lookup and our join.
                if let Some(&(len, _)) = s.cache.get(&self.key) {
                    self.serve_hit(s, len);
                    s.flights.remove(&self.key);
                    s.flights_done[flight] = true;
                    return;
                }
                s.extracts += 1;
                let ok = s.failing_extract != Some(s.extracts);
                self.pc = TileCachePc::Publish { flight, ok };
            }
            TileCachePc::Publish { flight, ok } => {
                if ok {
                    s.misses += 1;
                    s.clock += 1;
                    if let Some((old, _)) = s.cache.insert(self.key, (self.len, s.clock)) {
                        s.bytes -= old;
                    }
                    s.bytes += self.len;
                    s.evict_to_budget(self.key);
                    self.result = Some(Ok(self.len));
                } else {
                    // `extract()?` propagates: nothing published, no
                    // miss counted; the ticket drop wakes waiters so
                    // one can take over as leader.
                    self.result = Some(Err(()));
                }
                s.flights.remove(&self.key);
                s.flights_done[flight] = true;
                self.pc = TileCachePc::Done;
            }
            TileCachePc::WaitFlight { flight } => {
                if self.aborted && !s.flights_done[flight] {
                    // `FlightJoin::Aborted` → `ExecError::Cancelled`.
                    self.result = Some(Err(()));
                    self.pc = TileCachePc::Done;
                    return;
                }
                // `FlightJoin::Completed`: mark waited, re-lookup; on
                // a failed leader we may become the next leader.
                self.waited = true;
                self.pc = TileCachePc::CheckCache;
            }
            TileCachePc::Done => {}
        }
    }
}

/// Terminal invariants for every tile-cache schedule: exact byte
/// accounting within budget, drained flight table, and counter
/// attribution — every successful call is exactly one of
/// hit/coalesced/miss, and misses equals successful extractions.
pub fn tile_cache_invariants(
    s: &TileCacheState,
    threads: &[TileCacheThread],
) -> Result<(), String> {
    let resident: usize = s.cache.values().map(|&(len, _)| len).sum();
    if s.bytes != resident {
        return Err(format!("bytes {} != resident {}", s.bytes, resident));
    }
    if s.bytes > s.budget {
        return Err(format!("bytes {} exceeds budget {}", s.bytes, s.budget));
    }
    if !s.flights.is_empty() {
        return Err(format!("flight table not drained: {:?}", s.flights));
    }
    let oks = threads
        .iter()
        .filter(|t| matches!(t.result, Some(Ok(_))))
        .count() as u64;
    if s.hits + s.coalesced + s.misses != oks {
        return Err(format!(
            "hits {} + coalesced {} + misses {} != {} successful calls",
            s.hits, s.coalesced, s.misses, oks
        ));
    }
    for (i, t) in threads.iter().enumerate() {
        match t.result {
            None => return Err(format!("thread {i} finished without a result")),
            Some(Ok(len)) if len != t.len => {
                return Err(format!("thread {i} got {len} bytes, wanted {}", t.len))
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// One named exhaustive exploration.
#[derive(Debug)]
pub struct Scenario {
    pub name: &'static str,
    pub outcome: Outcome,
}

/// Runs the full harness: every scenario, exhaustively.
pub fn run_all() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Two, then three concurrent misses on one key: must coalesce to
    // a single disk load with exact byte accounting.
    for n in [2usize, 3] {
        let state = PoolState::new(1 << 20);
        let threads: Vec<PoolThread> = (0..n).map(|_| PoolThread::get(7, 512)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            pool_invariants(s, t)?;
            if s.loads != 1 {
                return Err(format!(
                    "{} loads; concurrent misses must coalesce",
                    s.loads
                ));
            }
            if s.bytes != 512 {
                return Err(format!("bytes {} != 512", s.bytes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: if n == 2 {
                "pool/single-flight-2"
            } else {
                "pool/single-flight-3"
            },
            outcome,
        });
    }

    // Mixed keys: two threads on key A, one on key B — exactly one
    // load per distinct key.
    {
        let state = PoolState::new(1 << 20);
        let threads = vec![
            PoolThread::get(1, 100),
            PoolThread::get(1, 100),
            PoolThread::get(2, 200),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            pool_invariants(s, t)?;
            if s.loads != 2 {
                return Err(format!("{} loads for 2 distinct keys", s.loads));
            }
            if s.bytes != 300 {
                return Err(format!("bytes {} != 300", s.bytes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "pool/mixed-keys",
            outcome,
        });
    }

    // Failed first load: the waiter must take over as loader; exactly
    // one caller sees the error and the pool still converges.
    {
        let state = PoolState::new(1 << 20).failing_load(1);
        let threads = vec![PoolThread::get(3, 256), PoolThread::get(3, 256)];
        let outcome = explore(&state, &threads, &|s, t| {
            pool_invariants(s, t)?;
            let errs = t.iter().filter(|t| t.result == Some(Err(()))).count();
            let oks = t.iter().filter(|t| matches!(t.result, Some(Ok(_)))).count();
            if errs != 1 || oks != 1 {
                return Err(format!("{errs} errors / {oks} successes; want 1 / 1"));
            }
            if s.loads != 2 {
                return Err(format!(
                    "{} loads; failed load must be retried once",
                    s.loads
                ));
            }
            if s.bytes != 256 {
                return Err(format!("bytes {} != 256 after recovery", s.bytes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "pool/failed-load-handover",
            outcome,
        });
    }

    // Eviction pressure: capacity holds only one of the two entries;
    // accounting must stay exact under every insertion order.
    {
        let state = PoolState::new(150);
        let threads = vec![PoolThread::get(1, 100), PoolThread::get(2, 100)];
        let outcome = explore(&state, &threads, &|s, t| {
            pool_invariants(s, t)?;
            if s.resident.len() != 1 || s.bytes != 100 {
                return Err(format!(
                    "want exactly one 100-byte entry resident, got {} entries / {} bytes",
                    s.resident.len(),
                    s.bytes
                ));
            }
            if s.evictions != 1 {
                return Err(format!("{} evictions; want 1", s.evictions));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "pool/eviction-accounting",
            outcome,
        });
    }

    // Oversized entry: larger than the whole pool — served to every
    // caller but never resident.
    {
        let state = PoolState::new(100);
        let threads = vec![PoolThread::get(1, 150), PoolThread::get(1, 150)];
        let outcome = explore(&state, &threads, &|s, t| {
            pool_invariants(s, t)?;
            if !s.resident.is_empty() || s.bytes != 0 {
                return Err(format!(
                    "oversized entry must not stay resident: {:?}",
                    s.resident
                ));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "pool/oversized-never-resident",
            outcome,
        });
    }

    // Scatter reassembly: 2 and 3 workers over 4 one-output jobs;
    // output must be byte-identical to the serial map under every
    // completion order.
    let items = [11u32, 21, 31, 41];
    for workers in [2usize, 3] {
        let state = ScatterState::new(&items);
        let threads: Vec<WorkerThread> = (0..workers).map(|_| WorkerThread::new(None)).collect();
        let outcome = explore(&state, &threads, &|s, _| scatter_invariants(s, &items, &[]));
        out.push(Scenario {
            name: if workers == 2 {
                "scatter/reassembly-2w"
            } else {
                "scatter/reassembly-3w"
            },
            outcome,
        });
    }

    // Error in position: a failing transform must land in its input
    // slot, exactly as the serial path would emit it.
    {
        let state = ScatterState::new(&items);
        let threads = vec![WorkerThread::new(Some(2)), WorkerThread::new(Some(2))];
        let outcome = explore(&state, &threads, &|s, _| {
            scatter_invariants(s, &items, &[2])
        });
        out.push(Scenario {
            name: "scatter/error-in-position",
            outcome,
        });
    }

    // Flat-map reassembly (SUBQUERY bodies): items that fan out to no,
    // one and three outputs, on 2 and 3 workers — every item's outputs
    // replay contiguously, in input order.
    let uneven = [30u32, 11, 23];
    for workers in [2usize, 3] {
        let state = ScatterState::new(&uneven);
        let threads: Vec<WorkerThread> = (0..workers).map(|_| WorkerThread::new(None)).collect();
        let outcome = explore(&state, &threads, &|s, _| scatter_invariants(s, &uneven, &[]));
        out.push(Scenario {
            name: if workers == 2 {
                "scatter/flat-map-uneven-2w"
            } else {
                "scatter/flat-map-uneven-3w"
            },
            outcome,
        });
    }

    // A failed item mid-batch: its error stands where its outputs
    // would have, between its neighbours' outputs.
    {
        let items = [12u32, 23, 30, 11];
        let state = ScatterState::new(&items);
        let threads = vec![WorkerThread::new(Some(1)), WorkerThread::new(Some(1))];
        let outcome = explore(&state, &threads, &|s, _| scatter_invariants(s, &items, &[1]));
        out.push(Scenario {
            name: "scatter/flat-map-failed-item",
            outcome,
        });
    }

    // Shared scans: 2, then 3 concurrent queries decoding one GOP must
    // coalesce to exactly one decode; everyone gets the frames.
    for n in [2usize, 3] {
        let state = SharedScanState::new();
        let threads: Vec<SharedScanThread> =
            (0..n).map(|_| SharedScanThread::decode(7, 4096)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            shared_scan_invariants(s, t)?;
            if s.decodes != 1 {
                return Err(format!(
                    "{} decodes; concurrent scans must coalesce",
                    s.decodes
                ));
            }
            if t.iter().any(|t| t.result != Some(Ok(4096))) {
                return Err("a query finished without the decoded frames".into());
            }
            Ok(())
        });
        out.push(Scenario {
            name: if n == 2 {
                "sharedscan/exactly-once-2"
            } else {
                "sharedscan/exactly-once-3"
            },
            outcome,
        });
    }

    // Distinct GOPs never coalesce: one decode per key.
    {
        let state = SharedScanState::new();
        let threads = vec![
            SharedScanThread::decode(1, 100),
            SharedScanThread::decode(1, 100),
            SharedScanThread::decode(2, 200),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            shared_scan_invariants(s, t)?;
            if s.decodes != 2 {
                return Err(format!("{} decodes for 2 distinct GOPs", s.decodes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "sharedscan/distinct-gops",
            outcome,
        });
    }

    // Failed leader: the first decode errors; a follower must take
    // over, decode, and succeed — exactly one error, one success.
    {
        let state = SharedScanState::new().failing_decode(1);
        let threads = vec![
            SharedScanThread::decode(3, 256),
            SharedScanThread::decode(3, 256),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            shared_scan_invariants(s, t)?;
            let errs = t.iter().filter(|t| t.result == Some(Err(()))).count();
            let oks = t.iter().filter(|t| t.result == Some(Ok(256))).count();
            if errs + oks != 2 || oks < 1 {
                return Err(format!(
                    "{errs} errors / {oks} successes; want at least 1 success"
                ));
            }
            if s.decodes > 2 {
                return Err(format!(
                    "{} decodes; handover must retry at most once",
                    s.decodes
                ));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "sharedscan/failed-leader-handover",
            outcome,
        });
    }

    // Cancelled follower: a query whose ctx is cancelled must exit
    // with an error instead of parking on a foreign flight, while the
    // leader still completes normally.
    {
        let state = SharedScanState::new();
        let threads = vec![
            SharedScanThread::decode(5, 512),
            SharedScanThread::decode(5, 512).aborted(),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            shared_scan_invariants(s, t)?;
            if t[0].result != Some(Ok(512)) {
                return Err(format!("leader failed: {:?}", t[0].result));
            }
            if t[1].result.is_none() {
                return Err("cancelled follower never returned".into());
            }
            if s.decodes > 1 {
                return Err(format!("{} decodes with one real query", s.decodes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "sharedscan/cancelled-follower-unparks",
            outcome,
        });
    }

    // Tile cache: 2, then 3 concurrent requests for one hot tile must
    // run extract_tile exactly once, with exact counter attribution —
    // one miss, everyone else a hit or a coalesced wait.
    for n in [2usize, 3] {
        let state = TileCacheState::new(1 << 20);
        let threads: Vec<TileCacheThread> = (0..n).map(|_| TileCacheThread::get(7, 900)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            if s.extracts != 1 {
                return Err(format!(
                    "{} extractions; hot-tile requests must coalesce",
                    s.extracts
                ));
            }
            if s.misses != 1 || s.hits + s.coalesced != n as u64 - 1 {
                return Err(format!(
                    "attribution drifted: {} misses, {} hits, {} coalesced for {n} calls",
                    s.misses, s.hits, s.coalesced
                ));
            }
            if t.iter().any(|t| t.result != Some(Ok(900))) {
                return Err("a request finished without the tile bytes".into());
            }
            Ok(())
        });
        out.push(Scenario {
            name: if n == 2 {
                "tilecache/exactly-once-2"
            } else {
                "tilecache/exactly-once-3"
            },
            outcome,
        });
    }

    // Concurrent distinct keys never coalesce: one extraction per
    // tile, both resident, exact byte accounting.
    {
        let state = TileCacheState::new(1 << 20);
        let threads = vec![
            TileCacheThread::get(1, 100),
            TileCacheThread::get(1, 100),
            TileCacheThread::get(2, 200),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            if s.extracts != 2 {
                return Err(format!("{} extractions for 2 distinct tiles", s.extracts));
            }
            if s.bytes != 300 {
                return Err(format!("bytes {} != 300", s.bytes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "tilecache/distinct-keys",
            outcome,
        });
    }

    // Failed leader: the first extraction errors; the waiter must be
    // woken, take over as leader, extract, and succeed — exactly one
    // error, one success, one counted miss, converged cache.
    {
        let state = TileCacheState::new(1 << 20).failing_extract(1);
        let threads = vec![TileCacheThread::get(3, 256), TileCacheThread::get(3, 256)];
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            let errs = t.iter().filter(|t| t.result == Some(Err(()))).count();
            let oks = t.iter().filter(|t| t.result == Some(Ok(256))).count();
            if errs != 1 || oks != 1 {
                return Err(format!("{errs} errors / {oks} successes; want 1 / 1"));
            }
            if s.extracts != 2 {
                return Err(format!(
                    "{} extractions; handover must retry exactly once",
                    s.extracts
                ));
            }
            if s.misses != 1 {
                return Err(format!(
                    "{} misses; failed extractions must not count",
                    s.misses
                ));
            }
            if s.bytes != 256 {
                return Err(format!("bytes {} != 256 after recovery", s.bytes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "tilecache/failed-leader-handover",
            outcome,
        });
    }

    // Cancelled waiter: a request whose abort fires must exit instead
    // of parking on a foreign flight; the leader still publishes.
    {
        let state = TileCacheState::new(1 << 20);
        let threads = vec![
            TileCacheThread::get(5, 512),
            TileCacheThread::get(5, 512).aborted(),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            if t[0].result != Some(Ok(512)) {
                return Err(format!("leader failed: {:?}", t[0].result));
            }
            if t[1].result.is_none() {
                return Err("cancelled waiter never returned".into());
            }
            if s.extracts > 1 {
                return Err(format!("{} extractions with one real request", s.extracts));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "tilecache/cancelled-waiter-unparks",
            outcome,
        });
    }

    // Budget pressure: the budget holds only one of two tiles; every
    // publication order must evict down to budget with exact
    // accounting (and both callers still get their bytes).
    {
        let state = TileCacheState::new(150);
        let threads = vec![TileCacheThread::get(1, 100), TileCacheThread::get(2, 100)];
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            if s.cache.len() != 1 || s.bytes != 100 {
                return Err(format!(
                    "want exactly one 100-byte tile resident, got {} entries / {} bytes",
                    s.cache.len(),
                    s.bytes
                ));
            }
            if s.evictions != 1 {
                return Err(format!("{} evictions; want 1", s.evictions));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "tilecache/budget-eviction",
            outcome,
        });
    }

    // Oversized tile: bigger than the whole budget — served to both
    // callers but never retained.
    {
        let state = TileCacheState::new(100);
        let threads = vec![TileCacheThread::get(1, 150), TileCacheThread::get(1, 150)];
        let outcome = explore(&state, &threads, &|s, t| {
            tile_cache_invariants(s, t)?;
            if !s.cache.is_empty() || s.bytes != 0 {
                return Err(format!(
                    "oversized tile must not stay resident: {:?}",
                    s.cache
                ));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "tilecache/oversized-never-resident",
            outcome,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_hold_and_explore_enough_schedules() {
        let scenarios = run_all();
        let mut total = 0u64;
        for s in &scenarios {
            assert!(
                s.outcome.ok(),
                "{}: {} failures / {} deadlocks (first: {:?})",
                s.name,
                s.outcome.failures.len(),
                s.outcome.deadlocks,
                s.outcome.failures.first()
            );
            total += s.outcome.schedules;
        }
        assert!(
            total >= 100,
            "only {total} schedules explored across the harness"
        );
    }

    #[test]
    fn scatter_invariants_catch_misplaced_outputs() {
        let items = [30u32, 11, 23];
        let mut s = ScatterState::new(&items);
        s.queue.clear();
        // Completion order is free …
        s.results = vec![
            (2, Ok(kernel(23))),
            (0, Ok(kernel(30))),
            (1, Ok(kernel(11))),
        ];
        assert_eq!(scatter_invariants(&s, &items, &[]), Ok(()));
        // … but an item's outputs filed under its neighbour's index
        // would replay out of input order.
        s.results = vec![
            (0, Ok(kernel(30))),
            (2, Ok(kernel(11))),
            (1, Ok(kernel(23))),
        ];
        assert!(scatter_invariants(&s, &items, &[]).is_err());
        // An error must stand in its own item's place.
        s.results = vec![(0, Ok(kernel(30))), (1, Ok(kernel(11))), (2, Err(23))];
        assert!(scatter_invariants(&s, &items, &[1]).is_err());
    }

    #[test]
    fn single_flight_pair_explores_multiple_schedules() {
        let state = PoolState::new(1 << 20);
        let threads = vec![PoolThread::get(0, 64), PoolThread::get(0, 64)];
        let o = explore(&state, &threads, &pool_invariants_check);
        assert!(o.ok());
        assert!(o.schedules >= 4, "{} schedules", o.schedules);
    }

    fn pool_invariants_check(s: &PoolState, t: &[PoolThread]) -> Result<(), String> {
        pool_invariants(s, t)
    }

    /// A deliberately broken model — double-counting bytes on re-insert,
    /// the exact bug PR 2 fixed — must be caught by the explorer.
    #[test]
    fn explorer_catches_seeded_accounting_bug() {
        #[derive(Clone)]
        struct Buggy(PoolThread);
        impl ModelThread<PoolState> for Buggy {
            fn done(&self) -> bool {
                self.0.done()
            }
            fn runnable(&self, s: &PoolState) -> bool {
                self.0.runnable(s)
            }
            fn step(&mut self, s: &mut PoolState) {
                // Re-introduce the pre-PR-2 bug: publish without
                // releasing the replaced entry's bytes and without
                // single-flight (always load; never wait).
                match self.0.pc.clone() {
                    PoolPc::CheckCache => {
                        s.clock += 1;
                        if !self.0.counted {
                            s.misses += 1;
                            self.0.counted = true;
                        }
                        self.0.pc = PoolPc::Load { flight: usize::MAX };
                    }
                    PoolPc::Load { .. } => {
                        self.0.pc = PoolPc::Publish {
                            flight: usize::MAX,
                            load_ok: true,
                        }
                    }
                    PoolPc::Publish { .. } => {
                        s.loads += 1;
                        s.resident.insert(self.0.key, self.0.len);
                        s.bytes += self.0.len; // BUG: no release on replace
                        self.0.result = Some(Ok(self.0.len));
                        self.0.pc = PoolPc::Done;
                    }
                    _ => {}
                }
            }
        }
        let state = PoolState::new(1 << 20);
        let threads = vec![Buggy(PoolThread::get(0, 64)), Buggy(PoolThread::get(0, 64))];
        let o = explore(&state, &threads, &|s, _| {
            if s.bytes != s.resident.values().sum::<usize>() {
                return Err("accounting bug".into());
            }
            Ok(())
        });
        assert!(!o.failures.is_empty(), "the seeded bug must be detected");
    }

    #[test]
    fn explorer_reports_deadlock_on_wedged_model() {
        #[derive(Clone)]
        struct Stuck(bool);
        impl ModelThread<()> for Stuck {
            fn done(&self) -> bool {
                self.0
            }
            fn runnable(&self, _s: &()) -> bool {
                false // waits forever on a condition nobody signals
            }
            fn step(&mut self, _s: &mut ()) {}
        }
        let o = explore(&(), &[Stuck(false)], &|_, _| Ok(()));
        assert_eq!(o.deadlocks, 1);
        assert!(!o.ok());
    }

    #[test]
    fn schedule_counts_match_interleaving_combinatorics() {
        // Two independent 1-step threads: exactly 2 schedules (AB, BA).
        #[derive(Clone)]
        struct OneStep(bool);
        impl ModelThread<u32> for OneStep {
            fn done(&self) -> bool {
                self.0
            }
            fn runnable(&self, _: &u32) -> bool {
                true
            }
            fn step(&mut self, s: &mut u32) {
                *s += 1;
                self.0 = true;
            }
        }
        let o = explore(&0u32, &[OneStep(false), OneStep(false)], &|s, _| {
            if *s == 2 {
                Ok(())
            } else {
                Err("lost update".into())
            }
        });
        assert_eq!(o.schedules, 2);
        assert!(o.ok());
    }
}
