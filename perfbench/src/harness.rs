//! What every workload shares: the workload interface, the closed-loop
//! driver, the untraced (end-to-end) run and the traced (per-layer) run.

use crate::inputs::Rng;
use crate::json::J;
use crate::stats::{median, tail_percentile, Samples};
use crate::trace::{self, Breakdown, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Everything the benchmark writes lives under this directory of the
/// checkout it was started in (temp roots and trace files).
pub(crate) const WORK_DIR: &str = ".perfbench";

/// Latency samples kept per lane (see [`Samples`] for the decimation).
const SAMPLE_CAP: usize = 1 << 18;
/// At most this many spans of the traced segment reach the trace file;
/// replayed operations are always written in full.
const TRACE_FILE_SEGMENT_SPANS: usize = 5_000;
/// Operation ids of the replay phase start here, clear of the ids the
/// timed segments use, so a replay pairs with its own real operation.
const REPLAY_BASE: u64 = 1 << 40;
/// True for the operation ids the replay phase uses: a workload that
/// paces its operations runs these at once.
pub(crate) fn is_replay(op_id: u64) -> bool {
    op_id >= REPLAY_BASE
}

/// Operations replayed per kind at most: a replay records tens to
/// hundreds of spans, and medians over five hundred operations are
/// settled.
const REPLAY_SAMPLE: u64 = 500;

#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub(crate) workload: &'static str,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Smoke scale: tiny inputs, one set-up, numbers not for gating.
    pub(crate) quick: bool,
}

/// A completed operation: the time of its end-to-end call alone and
/// the work units it covered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Done {
    pub(crate) elapsed: Duration,
    pub(crate) units: u64,
}

/// Result of the fixed verification pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Verified {
    pub(crate) attempted: u64,
    pub(crate) errors: Vec<String>,
    pub(crate) digest: String,
}

impl Verified {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Program-exposed counters by name (`plan_cache.hits`, `pool.loads`…),
/// cumulative; the harness takes differences.
pub(crate) type Counters = BTreeMap<&'static str, u64>;

pub(crate) trait Workload: Sized + Sync {
    type Inputs: Sync;

    /// Everything the engine will see, as a pure function of the seed.
    fn generate(args: &Args) -> Self::Inputs;
    /// Ingest/encode/store of the inputs into the fresh `root`; this is
    /// what `setup_s` times.
    fn setup(inputs: &Self::Inputs, root: &Path) -> Result<Self, String>;
    /// One entry per client thread, naming its operation kind. The
    /// first kind is the primary one the end-to-end metrics describe.
    fn lanes(&self) -> Vec<&'static str>;
    /// What [`Done::units`] counts for the primary kind.
    fn unit(&self) -> &'static str;
    /// Length of one pass over the op list. A client stops at the first
    /// pass boundary after its time is up, so every run (and every seed)
    /// executes the same mix of operations: a median over a mix whose
    /// proportions drift lands in another mode of the latency
    /// distribution. `1` for a workload whose operations are alike.
    fn pass_len(&self) -> u64 {
        1
    }
    /// Operation `i` of `lane`. Inputs come from a fixed seed-determined
    /// list indexed by `i` modulo its length.
    fn op(&self, lane: usize, i: u64, tr: &Tracer) -> Result<Done, String>;
    /// The same operation stage by stage through the layers' public
    /// functions, each stage a child span of a `replay` root.
    fn replay(&self, lane: usize, i: u64, tr: &Tracer) -> Result<(), String>;
    /// A fixed list of operations whose outputs are checked against an
    /// independent computation and folded into the digest. Doubles as
    /// the warm-up pass.
    fn verify(&self) -> Verified;
    fn counters(&self) -> Counters;
    /// Dataset and cache sizes, op-list lengths, policies.
    fn sizes(&self) -> J;
    /// Layer numbers only this workload can give (named in
    /// `BENCHMARK.json`'s `per_layer`).
    fn layer_extras(&self, _breakdown: &Breakdown) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Post-run audit that needs the engine closed (reopen checks), plus
    /// extra detail to print.
    fn finish(self) -> Result<J, String> {
        Ok(J::Null)
    }
}

/// Times `f` as the real end-to-end call of operation `op_id`, under a
/// root span named `name` (which starts with `op:`) when tracing.
pub(crate) fn timed<T>(
    tr: &Tracer,
    op_id: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    debug_assert!(name.starts_with(trace::ROOT_OP));
    tr.span(None, op_id, name, |_| {
        let start = Instant::now();
        let out = f();
        ((out, start.elapsed()), 1)
    })
}

#[derive(Debug)]
pub(crate) struct LaneRun {
    pub(crate) kind: &'static str,
    pub(crate) samples: Samples,
    pub(crate) wall: Duration,
}

/// Closed loop: every lane is one client that issues its next operation
/// when the previous one has returned, until `seconds` have passed and
/// the pass it is in is complete.
pub(crate) fn drive<W: Workload>(w: &W, seconds: f64, tr: &Tracer) -> Vec<LaneRun> {
    let kinds = w.lanes();
    let pass = w.pass_len().max(1);
    let barrier = Barrier::new(kinds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(lane, &kind)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Samples::with_capacity(SAMPLE_CAP);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut i = 0u64;
                    loop {
                        match w.op(lane, i, tr) {
                            Ok(done) => samples.ok(done.elapsed, done.units),
                            Err(e) => samples.fail(e),
                        }
                        i += 1;
                        if i.is_multiple_of(pass) && Instant::now() >= deadline {
                            break;
                        }
                    }
                    LaneRun {
                        kind,
                        samples,
                        wall: start.elapsed(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The lanes of one kind, merged.
#[derive(Debug)]
pub(crate) struct KindRun {
    pub(crate) kind: &'static str,
    pub(crate) clients: u64,
    pub(crate) samples: Samples,
    pub(crate) wall_s: f64,
}

impl KindRun {
    pub(crate) fn p50_ns(&self) -> f64 {
        self.samples.percentile_ns(0.5).unwrap_or(f64::INFINITY)
    }

    pub(crate) fn per_s(&self, n: u64) -> f64 {
        n as f64 / self.wall_s
    }

    fn to_json(&self, unit: Option<&str>) -> J {
        let s = &self.samples;
        let mut pairs = vec![
            ("clients".to_string(), J::Int(self.clients)),
            ("attempted".to_string(), J::Int(s.attempted)),
            ("failed".to_string(), J::Int(s.failed)),
            ("fail_share".to_string(), J::Num(s.fail_share())),
            ("wall_s".to_string(), J::Num(self.wall_s)),
            (
                "ops_per_s".to_string(),
                J::Num(self.per_s(s.attempted - s.failed)),
            ),
            ("p50_ms".to_string(), J::Num(self.p50_ns() / 1e6)),
        ];
        // Reported, never gated: tails move by tens of percent between
        // identical runs on a two-core sandbox.
        if let Some((label, p)) = tail_percentile(s.attempted) {
            pairs.push((
                format!("{label}_ms"),
                J::Num(s.percentile_ns(p).unwrap_or(f64::INFINITY) / 1e6),
            ));
        }
        if let Some(unit) = unit {
            pairs.push((format!("{unit}_per_s"), J::Num(self.per_s(s.units))));
        }
        if let Some(e) = &s.first_error {
            pairs.push(("first_error".to_string(), J::str(e.clone())));
        }
        J::Obj(pairs)
    }
}

pub(crate) fn by_kind(runs: Vec<LaneRun>) -> Vec<KindRun> {
    let mut out: Vec<KindRun> = Vec::new();
    for run in runs {
        match out.iter_mut().find(|k| k.kind == run.kind) {
            Some(k) => {
                k.clients += 1;
                k.samples.merge(run.samples);
                k.wall_s = k.wall_s.max(run.wall.as_secs_f64());
            }
            None => out.push(KindRun {
                kind: run.kind,
                clients: 1,
                samples: run.samples,
                wall_s: run.wall.as_secs_f64(),
            }),
        }
    }
    out
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory for one run, removed again when dropped.
#[derive(Debug)]
pub(crate) struct TempRoot(PathBuf);

impl TempRoot {
    pub(crate) fn new(args: &Args) -> std::io::Result<TempRoot> {
        let dir = Path::new(WORK_DIR).join("tmp").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempRoot(dir))
    }

    pub(crate) fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One named number of the result, with the unit `BENCHMARK.json` gives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run hands back to `main`.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) correct: bool,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub(crate) metrics: Vec<Metric>,
    /// Everything else worth printing, by the names the README uses.
    pub(crate) detail: J,
    /// Digest of the verification pass's outputs: the same seed must
    /// give the same one.
    pub(crate) digest: String,
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(&k, &v)| (k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The hit rates that show a workload exercises (or bypasses) a cache.
pub(crate) fn hit_rates(c: &Counters) -> Vec<(&'static str, f64)> {
    let g = |k: &str| c.get(k).copied().unwrap_or(0);
    let tile_avoided = g("tile_cache.hits") + g("tile_cache.coalesced");
    vec![
        (
            "plan_cache_hit_rate",
            rate(
                g("plan_cache.hits"),
                g("plan_cache.hits") + g("plan_cache.misses"),
            ),
        ),
        (
            "shared_decode_hit_rate",
            rate(
                g("shared_scan.hits"),
                g("shared_scan.hits") + g("shared_scan.decodes"),
            ),
        ),
        (
            "tile_cache_hit_rate",
            rate(tile_avoided, tile_avoided + g("tile_cache.misses")),
        ),
        (
            "pool_hit_rate",
            rate(g("pool.hits"), g("pool.hits") + g("pool.misses")),
        ),
    ]
}

fn counters_json(c: &Counters) -> J {
    J::obj(c.iter().map(|(&k, &v)| (k, J::Int(v))))
}

fn summarise(v: &Verified, kinds: &[KindRun], audit: &Result<J, String>) -> (bool, u64, u64) {
    let attempted = v.attempted + kinds.iter().map(|k| k.samples.attempted).sum::<u64>();
    let failed = v.errors.len() as u64 + kinds.iter().map(|k| k.samples.failed).sum::<u64>();
    (
        failed == 0 && audit.is_ok(),
        attempted,
        failed + u64::from(audit.is_err()),
    )
}

fn audit_json(audit: &Result<J, String>) -> J {
    match audit {
        Ok(j) => j.clone(),
        Err(e) => J::str(format!("FAILED: {e}")),
    }
}

fn verified_json(v: &Verified) -> J {
    J::obj([
        ("checked", J::Int(v.attempted)),
        ("failed", J::Int(v.errors.len() as u64)),
        ("digest", J::str(v.digest.clone())),
        (
            "errors",
            J::Arr(v.errors.iter().take(5).map(|e| J::str(e.clone())).collect()),
        ),
    ])
}

/// The untraced run: set-up (several times, median reported), the
/// verification pass, then `seconds` of closed-loop load.
pub(crate) fn run_end_to_end<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let tmp = TempRoot::new(args).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let gen_start = Instant::now();
    let inputs = W::generate(args);
    let generate_s = gen_start.elapsed().as_secs_f64();

    // Set-up runs into a fresh root every time (never a cross-run
    // cache); the last one is kept and measured against.
    let repeats = if args.quick { 1 } else { 3 };
    let mut setups = Vec::with_capacity(repeats);
    let w = loop {
        let root = tmp.sub(&format!("setup{}", setups.len()));
        let start = Instant::now();
        let w = W::setup(&inputs, &root)?;
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() == repeats {
            break w;
        }
        drop(w);
        let _ = std::fs::remove_dir_all(&root);
    };
    let setup_all = setups.clone();
    let setup_s = median(&mut setups).expect("at least one set-up");

    let verified = w.verify();
    let before = w.counters();
    let kinds = by_kind(drive(&w, args.seconds, &Tracer::off()));
    let counters = delta(&w.counters(), &before);
    let sizes = w.sizes();
    let unit = w.unit();
    let audit = w.finish();
    let peak_rss_mb = peak_rss_mb();

    let primary = &kinds[0];
    let ok_ops = primary.samples.attempted - primary.samples.failed;
    let metrics = vec![
        metric("op_ms_p50", "ms", primary.p50_ns() / 1e6),
        metric("ops_per_s", "1/s", primary.per_s(ok_ops)),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    let (correct, attempted, failed) = summarise(&verified, &kinds, &audit);
    let detail = J::obj([
        ("generate_inputs_s", J::Num(generate_s)),
        (
            "setup_s_each",
            J::Arr(setup_all.into_iter().map(J::Num).collect()),
        ),
        ("sizes", sizes),
        ("verify", verified_json(&verified)),
        (
            "ops",
            J::Obj(
                kinds
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (k.kind.to_string(), k.to_json((i == 0).then_some(unit))))
                    .collect(),
            ),
        ),
        ("fail_share", J::Num(rate(failed, attempted))),
        ("counters", counters_json(&counters)),
        (
            "hit_rates",
            J::obj(
                hit_rates(&counters)
                    .into_iter()
                    .map(|(k, v)| (k, J::Num(v))),
            ),
        ),
        ("audit", audit_json(&audit)),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail,
        digest: verified.digest,
    })
}

/// The names and ns-scales of the per-call layer metrics: each is the
/// median self time per unit of the spans of one name.
const SPAN_METRICS: [(&str, &str, f64); 25] = [
    ("plan_us", "optimizer.plan", 1e3),
    ("catalog_read_us", "storage.catalog_read", 1e3),
    ("catalog_store_us", "storage.catalog_store", 1e3),
    ("wal_commit_us", "storage.wal_commit", 1e3),
    ("pool_get_gop_us", "storage.pool_get_gop", 1e3),
    ("media_read_gop_us", "storage.media_read_gop", 1e3),
    ("media_write_us", "storage.media_write", 1e3),
    ("metadata_parse_us", "container.metadata_parse", 1e3),
    ("metadata_write_us", "container.metadata_write", 1e3),
    ("gop_parse_us", "codec.gop_parse", 1e3),
    ("decode_gop_ms", "codec.decode_gop", 1e6),
    ("encode_gop_ms", "codec.encode_gop", 1e6),
    ("map_blur_ms", "frame.blur", 1e6),
    ("map_gray_ms", "frame.gray", 1e6),
    ("crop_ms", "frame.crop", 1e6),
    ("union_ms", "frame.union", 1e6),
    ("extract_tile_us", "hops.extract_tile", 1e3),
    ("gop_select_us", "hops.gop_select", 1e3),
    ("stitch_us", "hops.stitch", 1e3),
    ("serve_us", "op:tileserver.serve", 1e3),
    ("prefetch_us", "tileserver.prefetch", 1e3),
    ("connect_us", "cluster.connect", 1e3),
    ("plan_serialise_us", "cluster.plan_serialise", 1e3),
    ("worker_execute_ms", "cluster.worker_execute", 1e6),
    ("reassemble_ms", "cluster.reassemble", 1e6),
];

/// Layer groups whose share of the replayed time is reported.
const SHARE_METRICS: [(&str, &str); 8] = [
    ("share_plan", "optimizer."),
    ("share_storage", "storage."),
    ("share_container", "container."),
    ("share_decoder", "codec.decode"),
    ("share_encoder", "codec.encode"),
    ("share_frame", "frame."),
    ("share_hops", "hops."),
    ("share_cluster", "cluster."),
];

/// Layer numbers only one workload can give (see
/// [`Workload::layer_extras`]), with their units; zero elsewhere.
const EXTRA_METRICS: [(&str, &str); 7] = [
    ("frame_codec_us_per_mb", "us/MB"),
    ("cluster_overhead_ms", "ms"),
    ("cluster_retries", "count"),
    ("tiles_warmed_per_serve", "count"),
    ("wal_bytes_per_publish", "bytes"),
    ("checkpoints_crossed", "count"),
    ("stored_bytes_per_user_byte", "ratio"),
];

/// The traced run: a quarter of the time untraced, a quarter with a
/// root span on every operation (the difference is the tracing
/// overhead), then half replaying a seeded sample of operations stage
/// by stage.
pub(crate) fn run_traced<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let tmp = TempRoot::new(args).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let inputs = W::generate(args);
    let w = W::setup(&inputs, &tmp.sub("root"))?;
    let verified = w.verify();

    let segment = args.seconds / 4.0;
    let before = w.counters();
    let untraced = by_kind(drive(&w, segment, &Tracer::off()));
    let tracer = Tracer::on();
    let traced = by_kind(drive(&w, segment, &tracer));
    let counters = delta(&w.counters(), &before);
    let segment_spans = tracer.take();

    // Replay: one lane per distinct kind, a seeded sample of the op list.
    let kinds = w.lanes();
    let replay_lanes: Vec<usize> = (0..kinds.len())
        .filter(|&l| kinds[..l].iter().all(|k| *k != kinds[l]))
        .collect();
    let mut rng = Rng::new(args.seed, 0x7ace);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let mut replay_errors: Vec<String> = Vec::new();
    let mut replayed = 0u64;
    while Instant::now() < deadline && replayed < REPLAY_SAMPLE * replay_lanes.len() as u64 {
        for &lane in &replay_lanes {
            let i = REPLAY_BASE + rng.below(1 << 20);
            let real = w.op(lane, i, &tracer).map(|_| ());
            if let Err(e) = real.and_then(|()| w.replay(lane, i, &tracer)) {
                replay_errors.push(e);
            }
            replayed += 1;
        }
    }
    let replay_spans = tracer.take();
    let breakdown = trace::breakdown(&replay_spans);
    let segment_breakdown = trace::breakdown(&segment_spans);

    let (untraced_p50, traced_p50) = (untraced[0].p50_ns(), traced[0].p50_ns());
    let mut metrics: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span, scale)| {
            // Root spans of real operations are most numerous in the
            // traced segment; stage spans exist only in the replay.
            let from = if span.starts_with(trace::ROOT_OP) {
                &segment_breakdown
            } else {
                &breakdown
            };
            metric(
                name,
                if scale == 1e6 { "ms" } else { "us" },
                from.per_unit(span, scale),
            )
        })
        .collect();
    metrics.extend(
        SHARE_METRICS
            .iter()
            .map(|&(name, prefix)| metric(name, "ratio", breakdown.share_of(prefix))),
    );
    metrics.push(metric(
        "exec_residual_ms",
        "ms",
        breakdown.residual_ns / 1e6,
    ));
    metrics.push(metric("residual_share", "ratio", breakdown.residual_share));
    metrics.push(metric(
        "trace_overhead_share",
        "ratio",
        traced_p50 / untraced_p50 - 1.0,
    ));
    metrics.extend(
        hit_rates(&counters)
            .into_iter()
            .map(|(name, v)| metric(name, "ratio", v)),
    );
    for (name, counter) in [
        ("tile_cache_evictions", "tile_cache.evictions"),
        ("pool_loads", "pool.loads"),
    ] {
        metrics.push(metric(
            name,
            "count",
            counters.get(counter).copied().unwrap_or(0) as f64,
        ));
    }
    let extras = w.layer_extras(&breakdown);
    metrics.extend(EXTRA_METRICS.iter().map(|&(name, unit)| {
        metric(
            name,
            unit,
            extras
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        )
    }));

    // Spans go to one file when the run ends.
    let trace_dir = Path::new(WORK_DIR).join("trace");
    let trace_file = trace_dir.join(format!("{}-{}.json", args.workload, args.seed));
    let kept = segment_spans.len().min(TRACE_FILE_SEGMENT_SPANS);
    let file = J::obj([
        ("workload", J::str(args.workload)),
        ("seed", J::Int(args.seed)),
        ("counters", counters_json(&counters)),
        ("segment_spans_total", J::Int(segment_spans.len() as u64)),
        (
            "segment_spans",
            trace::spans_json(args.workload, &segment_spans[..kept]),
        ),
        (
            "replay_spans",
            trace::spans_json(args.workload, &replay_spans),
        ),
    ]);
    std::fs::create_dir_all(&trace_dir)
        .and_then(|()| std::fs::write(&trace_file, format!("{file}\n")))
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let sizes = w.sizes();
    let audit = w.finish();
    let mut all_kinds = untraced;
    all_kinds.extend(traced);
    let (mut correct, attempted, mut failed) = summarise(&verified, &all_kinds, &audit);
    failed += replay_errors.len() as u64;
    correct &= replay_errors.is_empty();
    let detail = J::obj([
        ("sizes", sizes),
        ("verify", verified_json(&verified)),
        ("untraced_p50_ms", J::Num(untraced_p50 / 1e6)),
        ("traced_p50_ms", J::Num(traced_p50 / 1e6)),
        ("replayed_ops", J::Int(replayed)),
        (
            "replay_errors",
            J::Arr(
                replay_errors
                    .iter()
                    .take(5)
                    .map(|e| J::str(e.clone()))
                    .collect(),
            ),
        ),
        ("breakdown", breakdown.to_json()),
        ("counters", counters_json(&counters)),
        ("trace_file", J::str(trace_file.display().to_string())),
        ("audit", audit_json(&audit)),
    ]);
    Ok(Outcome {
        correct,
        attempted: attempted + replayed,
        failed,
        metrics,
        detail,
        digest: verified.digest,
    })
}
