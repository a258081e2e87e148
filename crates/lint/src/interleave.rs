//! A miniature loom-style deterministic interleaving explorer.
//!
//! Two of the workspace's concurrency contracts are load-bearing for
//! everything built on top of the caches and the parallel executor:
//!
//! 1. **Batch reassembly** (`exec::parallel::scatter`): workers pull
//!    jobs from a shared queue and push `(index, result)` pairs in
//!    completion order; reassembly must reproduce the serial output
//!    byte-identically for *every* completion interleaving — also
//!    when one job yields no, one or many outputs, as `SELECT`,
//!    `PARTITION` and `SUBQUERY` bodies do under the one operator
//!    driver, `par_flat_map_chunks_ctx`.
//! 2. **The single-flight LRU** (`storage::lru::SingleFlightLru`,
//!    behind the buffer pool's GOP cache, `exec::tilecache`,
//!    `exec::sharedscan` and the engine's plan cache): one lock per
//!    shard, a lookup-or-lead step and a publish + evict + wake step,
//!    waits outside the lock; exactly-once computation, exact counter
//!    attribution, per-shard bytes within the shard's share, and a
//!    demand-neutral warm (the pool's readahead) that leads an ordinary
//!    flight.
//!
//! The stress tests in those crates sample a handful of OS-scheduler
//! interleavings per run. This harness instead *enumerates* them: the
//! algorithms are restated as explicit state machines whose atomic
//! steps are exactly the lock-protected critical sections of the real
//! code (the same granularity loom would instrument), and a DFS
//! scheduler runs every possible schedule of 2–4 threads, checking
//! the invariants in each terminal state and flagging deadlock when
//! no runnable thread exists.
//!
//! The step decomposition is kept in lock-step with
//! `crates/storage/src/lru.rs` and `crates/exec/src/parallel.rs`; each
//! step documents the source lines it models.

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
// Model 1: batch scatter / reassembly (exec::parallel::scatter)
// ---------------------------------------------------------------------------

/// Shared scatter state: the job queue and completion-ordered results
/// vector, each protected by its own mutex in the real code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterState {
    /// Reversed `(index, item)` jobs; `pop()` hands out input order
    /// (parallel.rs lines 88–90).
    queue: Vec<(usize, u32)>,
    /// `(index, f(item))` pushed in completion order (line 99). One
    /// item yields any number of outputs: the one operator driver
    /// built on `scatter` is a flat-map (`par_flat_map_chunks_ctx`),
    /// and a one-to-one operator returns a single output.
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
// Model 2: single-flight LRU (storage::lru::SingleFlightLru)
// ---------------------------------------------------------------------------

/// One shard of the cache: everything its one mutex covers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LruShard {
    /// Resident `(key, weight)` pairs in recency order, most recently
    /// used first — the index-linked list; eviction pops the back.
    entries: Vec<(u8, usize)>,
    bytes: usize,
    budget: usize,
    /// key → flight id with a computation in progress.
    flights: BTreeMap<u8, usize>,
}

/// Shared state of a `SingleFlightLru` — the cache behind
/// `exec::tilecache::TileCache` (sharded), and the buffer pool,
/// `exec::sharedscan::SharedDecode` and the plan cache (one shard
/// each). Key `k` lives in shard `k % shards`; each shard owns
/// `budget / shards` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruState {
    shards: Vec<LruShard>,
    /// flight id → retired (`Flight::finish`).
    flights_done: Vec<bool>,
    hits: u64,
    coalesced: u64,
    misses: u64,
    evictions: u64,
    /// Publications by warms — counted nowhere in the real cache.
    warmed: u64,
    /// Computations started — the work the cache exists to avoid.
    computes: u64,
    /// When set, the Nth computation (1-based) fails — a corrupt GOP
    /// surfacing in the leader.
    failing_compute: Option<u64>,
}

impl LruState {
    pub fn new(budget: usize, shards: usize) -> LruState {
        let shard = LruShard {
            entries: Vec::new(),
            bytes: 0,
            budget: budget / shards,
            flights: BTreeMap::new(),
        };
        LruState {
            shards: vec![shard; shards],
            flights_done: Vec::new(),
            hits: 0,
            coalesced: 0,
            misses: 0,
            evictions: 0,
            warmed: 0,
            computes: 0,
            failing_compute: None,
        }
    }

    pub fn failing_compute(mut self, nth: u64) -> LruState {
        self.failing_compute = Some(nth);
        self
    }

    fn shard_of(&mut self, key: u8) -> &mut LruShard {
        let n = self.shards.len();
        &mut self.shards[key as usize % n]
    }

    fn resident(&self) -> impl Iterator<Item = &(u8, usize)> {
        self.shards.iter().flat_map(|s| s.entries.iter())
    }

    fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes).sum()
    }
}

/// Program counter of one `get_or_compute(key)` or `warm(key)` call.
/// Two critical sections and no more: lookup-or-lead, and publish +
/// evict + wake.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LruPc {
    /// Locked: serve a hit, or join the key's flight, or register one
    /// and lead — one atomic step (lru.rs, the loop's locked block). A
    /// warm leaves a resident or in-flight key alone instead.
    LookupOrLead,
    /// Out-of-lock computation by the leader; whether it fails is
    /// decided here so `Publish` stays atomic.
    Compute { flight: usize },
    /// Locked: count the miss, file the entry most recently used, pop
    /// the list's tail down to the shard's budget, retire the flight
    /// and wake its waiters — or, for a failed computation, only
    /// retire and wake (`Lead`'s drop).
    Publish { flight: usize, ok: bool },
    /// Parked outside the lock on `Flight::wait_done`; wakes when the
    /// flight retires or the abort condition fires.
    WaitFlight { flight: usize },
    Done,
}

/// One model request for `key` (`len` bytes once computed). An
/// `aborted` thread models a cancelled query: its waits return at once
/// and it must exit with an error rather than park. A `warm` thread is
/// the buffer pool's readahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruThread {
    key: u8,
    len: usize,
    pc: LruPc,
    warm: bool,
    /// Parked behind a foreign flight at least once — decides hit vs
    /// coalesced attribution.
    waited: bool,
    aborted: bool,
    /// What the call returned: served length, or error (own
    /// computation failed / cancelled). A warm returns the length it
    /// published, or 0 when it left the key alone.
    pub result: Option<Result<usize, ()>>,
}

impl LruThread {
    pub fn get(key: u8, len: usize) -> LruThread {
        LruThread {
            key,
            len,
            pc: LruPc::LookupOrLead,
            warm: false,
            waited: false,
            aborted: false,
            result: None,
        }
    }

    pub fn aborted(mut self) -> LruThread {
        self.aborted = true;
        self
    }

    /// A `warm(key)` call.
    pub fn warm(key: u8, len: usize) -> LruThread {
        LruThread {
            warm: true,
            ..LruThread::get(key, len)
        }
    }
}

impl ModelThread<LruState> for LruThread {
    fn done(&self) -> bool {
        self.pc == LruPc::Done
    }

    fn runnable(&self, shared: &LruState) -> bool {
        match &self.pc {
            // The real wait is the sanctioned timed-condvar loop that
            // polls the abort condition, so an aborted waiter always
            // runs.
            LruPc::WaitFlight { flight } => self.aborted || shared.flights_done[*flight],
            LruPc::Done => false,
            _ => true,
        }
    }

    fn step(&mut self, s: &mut LruState) {
        match self.pc.clone() {
            LruPc::LookupOrLead => {
                let key = self.key;
                let shard = s.shard_of(key);
                let resident = shard.entries.iter().position(|&(k, _)| k == key);
                if self.warm && (resident.is_some() || shard.flights.contains_key(&key)) {
                    // No recency touch, no counter, no wait.
                    self.result = Some(Ok(0));
                    self.pc = LruPc::Done;
                    return;
                }
                if let Some(at) = resident {
                    let entry = shard.entries.remove(at);
                    shard.entries.insert(0, entry); // move to front
                    if self.waited {
                        s.coalesced += 1;
                    } else {
                        s.hits += 1;
                    }
                    self.result = Some(Ok(entry.1));
                    self.pc = LruPc::Done;
                    return;
                }
                if let Some(&flight) = shard.flights.get(&key) {
                    self.pc = LruPc::WaitFlight { flight };
                    return;
                }
                let flight = s.flights_done.len();
                s.shard_of(key).flights.insert(key, flight);
                s.flights_done.push(false);
                self.pc = LruPc::Compute { flight };
            }
            LruPc::Compute { flight } => {
                s.computes += 1;
                let ok = s.failing_compute != Some(s.computes);
                self.pc = LruPc::Publish { flight, ok };
            }
            LruPc::Publish { flight, ok } => {
                let (key, len) = (self.key, self.len);
                let shard = s.shard_of(key);
                shard.flights.remove(&key);
                let mut evicted = 0;
                if ok {
                    shard.entries.insert(0, (key, len));
                    shard.bytes += len;
                    // The new entry is the head, so it goes last, and
                    // only if it alone exceeds the shard's budget.
                    while shard.bytes > shard.budget {
                        let Some((_, victim)) = shard.entries.pop() else { break };
                        shard.bytes -= victim;
                        evicted += 1;
                    }
                    if self.warm {
                        s.warmed += 1;
                    } else {
                        s.misses += 1;
                    }
                    self.result = Some(Ok(len));
                } else {
                    // The error is this caller's alone: nothing
                    // published, no miss counted; a waiter will lead.
                    self.result = Some(Err(()));
                }
                s.evictions += evicted;
                s.flights_done[flight] = true;
                self.pc = LruPc::Done;
            }
            LruPc::WaitFlight { flight } => {
                if self.aborted && !s.flights_done[flight] {
                    self.result = Some(Err(()));
                    self.pc = LruPc::Done;
                    return;
                }
                // The flight retired: look again; after a failed (or
                // already evicted, or oversized) leader we may lead.
                self.waited = true;
                self.pc = LruPc::LookupOrLead;
            }
            LruPc::Done => {}
        }
    }
}

/// Terminal invariants for every cache schedule: per-shard byte
/// accounting exact and within the shard's share (so the total is
/// within the budget), flight tables drained, every successful demand
/// call exactly one of hit / coalesced / miss and no warm any of them,
/// every successful computation a miss or a warm's publication, every
/// demand caller answered with its own key's bytes.
pub fn lru_invariants(s: &LruState, threads: &[LruThread]) -> Result<(), String> {
    for (i, shard) in s.shards.iter().enumerate() {
        let resident: usize = shard.entries.iter().map(|&(_, len)| len).sum();
        if shard.bytes != resident {
            return Err(format!("shard {i}: bytes {} != resident {resident}", shard.bytes));
        }
        if shard.bytes > shard.budget {
            return Err(format!("shard {i}: bytes {} exceed its share {}", shard.bytes, shard.budget));
        }
        if !shard.flights.is_empty() {
            return Err(format!("shard {i}: flight table not drained: {:?}", shard.flights));
        }
        if let Some((k, _)) = shard.entries.iter().find(|(k, _)| *k as usize % s.shards.len() != i) {
            return Err(format!("key {k} resident in shard {i}"));
        }
    }
    let oks = threads
        .iter()
        .filter(|t| !t.warm && matches!(t.result, Some(Ok(_))))
        .count() as u64;
    if s.hits + s.coalesced + s.misses != oks {
        return Err(format!(
            "hits {} + coalesced {} + misses {} != {} successful calls",
            s.hits, s.coalesced, s.misses, oks
        ));
    }
    let failed = u64::from(s.failing_compute.is_some_and(|n| n <= s.computes));
    if s.misses + s.warmed + failed != s.computes {
        return Err(format!(
            "{} misses and {} warms for {} computations ({failed} failed)",
            s.misses, s.warmed, s.computes
        ));
    }
    for (i, t) in threads.iter().enumerate() {
        match t.result {
            None => return Err(format!("thread {i} finished without a result")),
            Some(Ok(len)) if len != t.len && !(t.warm && len == 0) => {
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

    // The cache behind the tile cache and the shared-decode cache:
    // 2, 3, then 4 concurrent requests for one key must compute it
    // exactly once, with exact counter attribution — one miss,
    // everyone else a hit or a coalesced wait.
    for (n, name) in [
        (2usize, "lru/exactly-once-2"),
        (3, "lru/exactly-once-3"),
        (4, "lru/exactly-once-4"),
    ] {
        let state = LruState::new(1 << 20, 1);
        let threads: Vec<LruThread> = (0..n).map(|_| LruThread::get(7, 900)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if s.computes != 1 {
                return Err(format!(
                    "{} computations; requests for one key must coalesce",
                    s.computes
                ));
            }
            if s.misses != 1 || s.hits + s.coalesced != n as u64 - 1 {
                return Err(format!(
                    "attribution drifted: {} misses, {} hits, {} coalesced for {n} calls",
                    s.misses, s.hits, s.coalesced
                ));
            }
            if t.iter().any(|t| t.result != Some(Ok(900))) {
                return Err("a request finished without the value".into());
            }
            Ok(())
        });
        out.push(Scenario { name, outcome });
    }

    // Concurrent distinct keys never coalesce: one computation per
    // key, all resident, exact byte accounting — two requests on each
    // of two keys.
    {
        let state = LruState::new(1 << 20, 1);
        let threads = vec![
            LruThread::get(1, 100),
            LruThread::get(1, 100),
            LruThread::get(2, 200),
            LruThread::get(2, 200),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if s.computes != 2 {
                return Err(format!("{} computations for 2 distinct keys", s.computes));
            }
            if s.bytes() != 300 {
                return Err(format!("bytes {} != 300", s.bytes()));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/distinct-keys",
            outcome,
        });
    }

    // Failed leader: the first computation errors; a waiter must be
    // woken, take over as leader, compute, and succeed — exactly one
    // error, two successes, one counted miss, converged cache.
    {
        let state = LruState::new(1 << 20, 1).failing_compute(1);
        let threads: Vec<LruThread> = (0..3).map(|_| LruThread::get(3, 256)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            let errs = t.iter().filter(|t| t.result == Some(Err(()))).count();
            let oks = t.iter().filter(|t| t.result == Some(Ok(256))).count();
            if errs != 1 || oks != 2 {
                return Err(format!("{errs} errors / {oks} successes; want 1 / 2"));
            }
            if s.computes != 2 {
                return Err(format!(
                    "{} computations; handover must retry exactly once",
                    s.computes
                ));
            }
            if s.misses != 1 {
                return Err(format!(
                    "{} misses; failed computations must not count",
                    s.misses
                ));
            }
            if s.bytes() != 256 {
                return Err(format!("bytes {} != 256 after recovery", s.bytes()));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/failed-leader-handover",
            outcome,
        });
    }

    // Cancelled waiter: a request whose abort fires must exit instead
    // of parking on a foreign flight; the two live requests still
    // compute once between them and both get the value.
    {
        let state = LruState::new(1 << 20, 1);
        let threads = vec![
            LruThread::get(5, 512),
            LruThread::get(5, 512),
            LruThread::get(5, 512).aborted(),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if t[..2].iter().any(|t| t.result != Some(Ok(512))) {
                return Err(format!("a live request failed: {:?}", t));
            }
            if t[2].result.is_none() {
                return Err("cancelled waiter never returned".into());
            }
            if s.computes > 1 {
                return Err(format!("{} computations for one key", s.computes));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/cancelled-waiter-unparks",
            outcome,
        });
    }

    // Readahead beside demand (the buffer pool's `prefetch_gop`): a
    // warm and one, then two, demand requests for one key. Whoever
    // registers the flight first computes it, the rest join it or find
    // it: one computation, no double load, and the warm never counted —
    // hits + coalesced + misses is the demand requests alone.
    for (demand, name) in [
        (1usize, "lru/warm-beside-demand-2"),
        (2, "lru/warm-beside-demand-3"),
    ] {
        let state = LruState::new(1 << 20, 1);
        let mut threads = vec![LruThread::warm(7, 900)];
        threads.extend((0..demand).map(|_| LruThread::get(7, 900)));
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if s.computes != 1 {
                return Err(format!(
                    "{} computations; a warm must not double a load",
                    s.computes
                ));
            }
            if s.hits + s.coalesced + s.misses != demand as u64 {
                return Err(format!(
                    "{} hits, {} coalesced, {} misses for {demand} demand requests",
                    s.hits, s.coalesced, s.misses
                ));
            }
            if t[1..].iter().any(|t| t.result != Some(Ok(900))) || s.bytes() != 900 {
                return Err(format!("a demand request went without the value: {t:?}"));
            }
            Ok(())
        });
        out.push(Scenario { name, outcome });
    }

    // Budget pressure: the budget holds only one of three entries;
    // every publication order must evict down to budget with exact
    // accounting (and every caller still gets its bytes).
    {
        let state = LruState::new(150, 1);
        let threads = vec![
            LruThread::get(1, 100),
            LruThread::get(2, 100),
            LruThread::get(3, 100),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if s.resident().count() != 1 || s.bytes() != 100 {
                return Err(format!(
                    "want exactly one 100-byte entry resident, got {:?}",
                    s.shards
                ));
            }
            if s.evictions != 2 {
                return Err(format!("{} evictions; want 2", s.evictions));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/budget-eviction",
            outcome,
        });
    }

    // Oversized value: bigger than the whole budget — served to all
    // three callers (a woken waiter finds nothing and leads in turn),
    // never retained.
    {
        let state = LruState::new(100, 1);
        let threads: Vec<LruThread> = (0..3).map(|_| LruThread::get(1, 150)).collect();
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            if s.resident().count() != 0 {
                return Err(format!(
                    "oversized value must not stay resident: {:?}",
                    s.shards
                ));
            }
            if t.iter().any(|t| t.result != Some(Ok(150))) {
                return Err("a request finished without the value".into());
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/oversized-never-resident",
            outcome,
        });
    }

    // Two shards, one budget: keys 0 and 2 share shard 0, key 1 has
    // shard 1 to itself, each shard owns half of 300 bytes. Whatever
    // the order, the shards' bytes sum to the resident set, within the
    // budget: shard 0 keeps one of its two 100-byte entries (its share
    // is 150 however empty shard 1 is), shard 1 keeps its one.
    {
        let state = LruState::new(300, 2);
        let threads = vec![
            LruThread::get(0, 100),
            LruThread::get(2, 100),
            LruThread::get(1, 100),
        ];
        let outcome = explore(&state, &threads, &|s, t| {
            lru_invariants(s, t)?;
            let per_shard: Vec<usize> = s.shards.iter().map(|sh| sh.bytes).collect();
            if per_shard != [100, 100] || s.bytes() > 300 {
                return Err(format!("shard bytes {per_shard:?}; want [100, 100]"));
            }
            if s.evictions != 1 {
                return Err(format!("{} evictions; want 1", s.evictions));
            }
            Ok(())
        });
        out.push(Scenario {
            name: "lru/two-shards-global-budget",
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
        let state = LruState::new(1 << 20, 1);
        let threads = vec![LruThread::get(0, 64), LruThread::get(0, 64)];
        let o = explore(&state, &threads, &lru_invariants_check);
        assert!(o.ok());
        assert!(o.schedules >= 4, "{} schedules", o.schedules);
    }

    fn lru_invariants_check(s: &LruState, t: &[LruThread]) -> Result<(), String> {
        lru_invariants(s, t)
    }

    /// A deliberately broken model — no single flight, and a publication
    /// that replaces an entry without releasing its bytes, a bug the
    /// buffer pool once had — must be caught by the explorer.
    #[test]
    fn explorer_catches_seeded_accounting_bug() {
        #[derive(Clone)]
        struct Buggy(LruThread);
        impl ModelThread<LruState> for Buggy {
            fn done(&self) -> bool {
                self.0.done()
            }
            fn runnable(&self, s: &LruState) -> bool {
                self.0.runnable(s)
            }
            fn step(&mut self, s: &mut LruState) {
                let (key, len) = (self.0.key, self.0.len);
                match self.0.pc {
                    // Always compute; never look, never wait.
                    LruPc::LookupOrLead => self.0.pc = LruPc::Compute { flight: usize::MAX },
                    LruPc::Compute { flight } => self.0.pc = LruPc::Publish { flight, ok: true },
                    LruPc::Publish { .. } => {
                        let shard = s.shard_of(key);
                        shard.entries.retain(|&(k, _)| k != key);
                        shard.entries.insert(0, (key, len));
                        shard.bytes += len; // BUG: the replaced entry's bytes stay counted
                        self.0.result = Some(Ok(len));
                        self.0.pc = LruPc::Done;
                    }
                    _ => {}
                }
            }
        }
        let state = LruState::new(1 << 20, 1);
        let threads = vec![Buggy(LruThread::get(0, 64)), Buggy(LruThread::get(0, 64))];
        let o = explore(&state, &threads, &|s, _| {
            let sh = &s.shards[0];
            if sh.bytes != sh.entries.iter().map(|&(_, len)| len).sum::<usize>() {
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
