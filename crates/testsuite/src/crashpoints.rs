//! Exhaustive crash-point recovery harness.
//!
//! The durability contract of the write-ahead-logged catalog is:
//!
//! 1. **Acked means durable** — every operation that returned `Ok`
//!    before the crash is fully visible after recovery, and every
//!    version it committed is completely readable (metadata parses,
//!    every GOP passes its CRC).
//! 2. **Unacked means all-or-nothing** — an operation in flight at
//!    the crash is either fully applied or fully absent, never a
//!    half-state.
//! 3. **Recovery is idempotent** — reopening twice yields identical
//!    state, and no temp debris survives.
//!
//! The harness proves this *at every crash point*: a trace pass runs
//! a seeded workload once with hit-counting enabled and enumerates
//! every `(failpoint site, nth hit)` pair the workload reaches; then,
//! for each pair, a fresh run is killed exactly there with
//! [`Fault::Crash`] (fail-stop: all subsequent I/O failpoints error)
//! — or, for byte-mangling sites, [`Fault::Torn`], which lands a
//! truncated write *and then* crashes — and recovery is audited
//! against the contract.
//!
//! Everything is deterministic: the workload derives from a seed, the
//! trace pass and every crash run execute the same op prefix, so the
//! nth hit of a site is the same I/O operation in every run.

use crate::chaos::Rng;
use lightdb_storage::faults::{self, Fault};
use lightdb_storage::{Catalog, MediaStore};
use lightdb_codec::{Encoder, EncoderConfig, VideoStream};
use lightdb_container::{TlfDescriptor, TrackRole};
use lightdb_frame::{Frame, Yuv};
use lightdb_geom::projection::ProjectionKind;
use lightdb_geom::{Interval, Point3};
use lightdb_storage::catalog::TrackWrite;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// TLF names the workload mutates.
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Operations per workload run.
const STEPS: usize = 14;

/// A logical catalog mutation the workload acknowledged (or had in
/// flight when the crash hit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    Publish { name: &'static str, version: u64 },
    Drop { name: &'static str },
}

/// What one (possibly crashed) workload run observed.
#[derive(Debug)]
pub struct Outcome {
    /// Mutations acknowledged (`Ok`) before the run stopped.
    pub acked: Vec<Event>,
    /// The mutation in flight when the first failure surfaced, if
    /// that failure interrupted a logical mutation (checkpoints and
    /// opens carry no logical event).
    pub inflight: Option<Event>,
}

/// Summary of a full enumeration sweep.
#[derive(Debug)]
pub struct CrashReport {
    /// Distinct `(site, nth-hit)` crash points exercised.
    pub points: usize,
    /// Distinct failpoint sites among them.
    pub sites: usize,
}

fn tiny_stream(tag: u64) -> VideoStream {
    let frames: Vec<Frame> =
        (0..4).map(|i| Frame::filled(32, 32, Yuv::new((tag as u8).wrapping_mul(31).wrapping_add(i * 40), 128, 128))).collect();
    #[allow(clippy::unwrap_used)]
    Encoder::new(EncoderConfig { gop_length: 2, fps: 2, qp: 30, ..Default::default() })
        .unwrap()
        .encode(&frames)
        .unwrap()
}

fn sphere_tlfd() -> TlfDescriptor {
    TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 2.0), 0)
}

/// Descriptor for metadata-only versions (references no tracks).
fn empty_tlfd() -> TlfDescriptor {
    TlfDescriptor {
        body: lightdb_container::TlfBody::Sphere360 { points: vec![] },
        ..sphere_tlfd()
    }
}

/// Runs the seeded workload against `root`, stopping at the first
/// failure (under an armed crash every failpoint errors once the
/// crash fires). The op sequence is a pure function of `seed` and the
/// acked prefix, so every run with the same seed replays the same
/// prefix regardless of where (or whether) it crashes.
pub fn run_workload(root: &Path, seed: u64) -> Outcome {
    let mut rng = Rng::new(seed);
    let mut acked: Vec<Event> = Vec::new();
    // Mirror of the committed state, used only to choose ops.
    let mut model: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    // Highest version each name reached, kept past DROP: the catalog
    // never hands a `(name, version)` pair out twice.
    let mut high: BTreeMap<&'static str, u64> = BTreeMap::new();
    let Ok(cat) = Catalog::open(root) else {
        return Outcome { acked, inflight: None };
    };
    for step in 0..STEPS {
        let roll = rng.below(100);
        let pick = NAMES[rng.below(NAMES.len() as u64) as usize];
        if roll < 60 {
            // STORE — every third step carries a real media track so
            // the media publish protocol's failpoints are enumerated
            // too; the rest are metadata-only (fast).
            let version = high.get(pick).copied().unwrap_or(0) + 1;
            let (tracks, tlfd) = if step % 3 == 0 {
                (
                    vec![TrackWrite::New {
                        role: TrackRole::Video,
                        projection: ProjectionKind::Equirectangular,
                        stream: tiny_stream(seed.wrapping_add(step as u64)),
                    }],
                    sphere_tlfd(),
                )
            } else {
                (Vec::new(), empty_tlfd())
            };
            match cat.store(pick, tracks, tlfd) {
                Ok(v) => {
                    debug_assert_eq!(v, version, "model out of sync at step {step}");
                    acked.push(Event::Publish { name: pick, version: v });
                    model.entry(pick).or_default().push(v);
                    high.insert(pick, v);
                }
                Err(_) => {
                    return Outcome { acked, inflight: Some(Event::Publish { name: pick, version }) }
                }
            }
        } else if roll < 75 {
            // DROP the picked name if it exists; otherwise fall back
            // to a checkpoint so the rng stream stays aligned.
            if model.contains_key(pick) {
                match cat.drop_tlf(pick) {
                    Ok(()) => {
                        acked.push(Event::Drop { name: pick });
                        model.remove(pick);
                    }
                    Err(_) => return Outcome { acked, inflight: Some(Event::Drop { name: pick }) },
                }
            } else if cat.checkpoint().is_err() {
                return Outcome { acked, inflight: None };
            }
        } else if cat.checkpoint().is_err() {
            return Outcome { acked, inflight: None };
        }
    }
    Outcome { acked, inflight: None }
}

/// Folds the acked events into the state recovery must reproduce.
fn expected_state(acked: &[Event]) -> BTreeMap<String, Vec<u64>> {
    let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for e in acked {
        match e {
            Event::Publish { name, version } => m.entry(name.to_string()).or_default().push(*version),
            Event::Drop { name } => {
                m.remove(*name);
            }
        }
    }
    m
}

/// Opens the catalog post-crash and audits the durability contract;
/// returns the recovered `name → versions` map for the idempotence
/// comparison. Panics (failing the test) on any violation.
fn recover_and_audit(root: &Path, outcome: &Outcome, label: &str) -> BTreeMap<String, Vec<u64>> {
    let cat = Catalog::open(root)
        .unwrap_or_else(|e| panic!("[{label}] recovery itself failed: {e}"));
    let expected = expected_state(&outcome.acked);
    let mut observed: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for name in cat.names() {
        let vs = cat
            .all_versions(&name)
            .unwrap_or_else(|e| panic!("[{label}] listed TLF {name} has no versions: {e}"));
        observed.insert(name, vs);
    }
    // 1. Acked means durable: every acknowledged version is listed —
    //    except a TLF whose *drop* was in flight, which may have
    //    legitimately committed (its record reached the log before
    //    the crash); the inflight-drop check below audits that case.
    for (name, versions) in &expected {
        if matches!(&outcome.inflight, Some(Event::Drop { name: n }) if n == name) {
            continue;
        }
        let got = observed
            .get(name)
            .unwrap_or_else(|| panic!("[{label}] acked TLF {name} lost by recovery"));
        for v in versions {
            assert!(got.contains(v), "[{label}] acked {name} v{v} lost; recovered {got:?}");
        }
    }
    // 2. Unacked means all-or-nothing: anything beyond the acked
    //    state must be exactly the in-flight mutation, fully applied.
    for (name, got) in &observed {
        let exp = expected.get(name).cloned().unwrap_or_default();
        for v in got {
            if exp.contains(v) {
                continue;
            }
            let allowed = matches!(
                &outcome.inflight,
                Some(Event::Publish { name: n, version }) if n == name && version == v
            );
            assert!(allowed, "[{label}] phantom version {name} v{v} (acked only {exp:?})");
        }
    }
    if let Some(Event::Drop { name }) = &outcome.inflight {
        match observed.get(*name) {
            // Not applied: the name must be exactly as acked.
            Some(got) => assert_eq!(
                Some(got),
                expected.get(*name),
                "[{label}] half-applied drop of {name}"
            ),
            // Applied: the directory must be gone too.
            None => assert!(
                !root.join(name).exists(),
                "[{label}] dropped TLF {name} unlisted but its directory survived"
            ),
        }
    }
    // Everything listed is fully readable: metadata parses and claims
    // the right version, every GOP passes its checksum.
    for (name, versions) in &observed {
        for v in versions {
            let stored = cat
                .read(name, Some(*v))
                .unwrap_or_else(|e| panic!("[{label}] listed {name} v{v} unreadable: {e}"));
            assert_eq!(stored.metadata.version, *v, "[{label}] {name} v{v} claims wrong version");
            let media: MediaStore = stored.media();
            for t in &stored.metadata.tracks {
                for e in &t.gop_index {
                    media.read_gop_bytes(&t.media_path, e).unwrap_or_else(|err| {
                        panic!("[{label}] {name} v{v} GOP at {} corrupt: {err}", e.byte_offset)
                    });
                }
            }
        }
    }
    // 3. No temp debris anywhere after recovery.
    for entry in fs::read_dir(root).unwrap_or_else(|e| panic!("[{label}] root unreadable: {e}")) {
        let Ok(entry) = entry else { continue };
        if !entry.path().is_dir() || entry.file_name().to_string_lossy().starts_with('.') {
            continue;
        }
        for f in fs::read_dir(entry.path()).into_iter().flatten().flatten() {
            let n = f.file_name().to_string_lossy().to_string();
            assert!(!n.ends_with(".tmp"), "[{label}] temp debris survived recovery: {n}");
        }
    }
    observed
}

/// Audits one crashed run: recovery satisfies the contract and is
/// idempotent (a second open reproduces the identical state).
pub fn verify_contract(root: &Path, outcome: &Outcome, label: &str) {
    let first = recover_and_audit(root, outcome, label);
    let second = recover_and_audit(root, outcome, label);
    assert_eq!(first, second, "[{label}] recovery is not idempotent");
}

fn fresh_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightdb-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Trace pass: runs the workload once, fault-free but with hit
/// counting enabled, and returns every `(site, hits)` it reached.
pub fn trace_sites(seed: u64) -> Vec<(String, u64)> {
    faults::reset();
    // Hit counters only tick while something is armed; a dummy site
    // the storage layer never names turns counting on without firing.
    faults::arm_at("crashpoints.trace.dummy", Fault::Crash, u64::MAX);
    let root = fresh_root("trace");
    let outcome = run_workload(&root, seed);
    let sites = faults::hit_sites();
    faults::reset();
    assert!(outcome.inflight.is_none(), "trace pass must run fault-free: {outcome:?}");
    let _ = fs::remove_dir_all(&root);
    sites.into_iter().filter(|(s, _)| !s.starts_with("crashpoints.")).collect()
}

/// The full sweep: enumerate every crash point the seeded workload
/// reaches, kill a fresh run at each, and audit recovery. Panics on
/// the first contract violation.
pub fn run_all_crash_points(seed: u64) -> CrashReport {
    let sites = trace_sites(seed);
    let mut points = 0usize;
    for (site, count) in &sites {
        for nth in 1..=*count {
            let label = format!("{site}#{nth}");
            let root = fresh_root("pt");
            faults::reset();
            // Byte-mangling sites cannot "crash" (they only rewrite a
            // buffer) — there a torn write lands and the crash fires
            // at the next guarded operation, modelling a torn sector
            // on the way down.
            let fault = if site.ends_with(".bytes") {
                Fault::Torn { keep: (nth as usize).wrapping_mul(13) % 37 }
            } else {
                Fault::Crash
            };
            faults::arm_at(site, fault, nth);
            let outcome = run_workload(&root, seed);
            faults::reset(); // also clears the crashed flag
            verify_contract(&root, &outcome, &label);
            points += 1;
            let _ = fs::remove_dir_all(&root);
        }
    }
    CrashReport { points, sites: sites.len() }
}
