//! Fault injection for storage and I/O paths.
//!
//! A test-controllable registry of named *failpoints*. Production
//! code threads calls to [`fail_point`] (typed I/O errors) and
//! [`mangle`] (data corruption: truncation, bit flips) through its
//! I/O sites; when nothing is armed both are a single thread-local
//! flag check, so the hooks are free in normal operation.
//!
//! Arming via the API ([`arm`], [`arm_n`]) is **thread-local**: each
//! test thread gets an isolated registry, so parallel tests cannot
//! contaminate each other and injection stays deterministic. Arming
//! via the environment applies to *every* thread — `LIGHTDB_FAULTS`
//! holds a `;`-separated list of `site=spec` pairs parsed at each
//! thread's first failpoint check:
//!
//! ```text
//! LIGHTDB_FAULTS="media.tmp.write=enospc;catalog.publish.rename=err:notfound:1;\
//! media.read=transient:interrupted:2;media.write.bytes=trunc:7"
//! ```
//!
//! Specs: `err:<kind>[:n]`, `transient:<kind>:<n>`, `enospc[:n]`,
//! `trunc:<keep>[:n]`, `flip:<offset>[:n]`, `delay:<ms>[:n]` — `n` is
//! how many hits fire before the site auto-disarms (default: every
//! hit). `delay` stalls the hitting thread for `<ms>` milliseconds and
//! then lets the operation proceed, modelling slow devices rather
//! than broken ones.
//!
//! Two network-shaped specs serve the cluster layer's `cluster.*`
//! sites: `drop[:n]` severs the link mid-conversation (the operation
//! fails `ConnectionReset`-shaped), and `partition[:n]` makes the
//! peer unreachable (`ConnectionRefused`-shaped). Both classify as
//! [`ErrorClass::Unavailable`](lightdb_core::ErrorClass), driving the
//! coordinator's failover rather than its same-target retry path.
//!
//! Two crash-shaped specs complete the grammar: `crash[:n]` simulates
//! a fail-stop crash on the site's `n`-th hit (default: first) — the
//! whole process is marked crashed and **every** failpoint errors from
//! then on until [`clear_crash`] — and `torn:<keep>[:n]` models a
//! torn write followed by a crash: on the `n`-th hit of a mangle site
//! it truncates the buffer to `keep` bytes, lets the write itself land
//! on disk, and then crashes at the next failpoint (the fsync that
//! would have made the full write durable). For `crash`/`torn`, `n`
//! selects *which* hit fires (a crash is terminal, so "fire n times"
//! would be meaningless).
//!
//! A third arming mode, [`arm_global`] / [`arm_global_n`] /
//! [`reset_global`], applies to **every thread in the process**. The
//! chaos harness uses it to reach the executor's scoped worker
//! threads (which are born after the test starts and never see its
//! thread-local registry). Global faults are consulted only after the
//! thread-local registry declined, so a test can still pin a site
//! locally. Callers of the global API must serialise themselves
//! (e.g. a test-level mutex) — the registry is process-wide state.
//!
//! Site names used by the storage layer are listed in [`sites`];
//! higher layers add their own (the executor's `exec.*` sites live
//! there too so the full set is documented in one place). Hit
//! counters ([`hits`]) are maintained only while at least one fault
//! is armed on the thread; [`global_hits`] counts hits against the
//! global registry.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Failpoint site names the storage crate hooks. Kill-point tests
/// iterate [`sites::PUBLISH_SEQUENCE`] to cover every step of the
/// `STORE` publish protocol.
pub mod sites {
    /// Writing the bytes of a media temp file.
    pub const MEDIA_TMP_WRITE: &str = "media.tmp.write";
    /// `sync_all` on a media temp file.
    pub const MEDIA_TMP_SYNC: &str = "media.tmp.sync";
    /// Renaming a media temp file into place.
    pub const MEDIA_PUBLISH_RENAME: &str = "media.publish.rename";
    /// Fsync of the TLF directory after a media rename.
    pub const MEDIA_DIR_SYNC: &str = "media.dir.sync";
    /// Corruption hook over media bytes about to be written.
    pub const MEDIA_WRITE_BYTES: &str = "media.write.bytes";
    /// Reading media bytes (full stream or one GOP range).
    pub const MEDIA_READ: &str = "media.read";
    /// Reading the stream header at the front of a media file. A site
    /// of its own, so arming [`MEDIA_READ`] counts GOP reads only.
    pub const MEDIA_READ_HEADER: &str = "media.read.header";
    /// Writing the bytes of a metadata temp file.
    pub const CATALOG_TMP_WRITE: &str = "catalog.tmp.write";
    /// `sync_all` on a metadata temp file.
    pub const CATALOG_TMP_SYNC: &str = "catalog.tmp.sync";
    /// Corruption hook over metadata bytes about to be written.
    pub const CATALOG_WRITE_BYTES: &str = "catalog.write.bytes";
    /// Renaming a metadata temp file into place (the commit point).
    pub const CATALOG_PUBLISH_RENAME: &str = "catalog.publish.rename";
    /// Fsync of the TLF directory after a metadata rename.
    pub const CATALOG_DIR_SYNC: &str = "catalog.dir.sync";
    /// Buffer-pool cache-miss load (fires before the loader runs).
    pub const BUFFERPOOL_LOAD: &str = "bufferpool.load";
    /// Executor: decoding one GOP (fires before the decode runs).
    pub const EXEC_DECODE_GOP: &str = "exec.decode.gop";
    /// Executor: applying a MAP transform to one chunk.
    pub const EXEC_CHUNK_MAP: &str = "exec.chunk.map";
    /// Executor: replaying scattered chunk results in submission
    /// order (fires once per reassembled batch).
    pub const EXEC_REASSEMBLE: &str = "exec.reassemble";
    /// WAL: appending a record frame to the active segment.
    pub const WAL_APPEND_WRITE: &str = "wal.append.write";
    /// Corruption hook over a WAL record frame about to be appended.
    pub const WAL_WRITE_BYTES: &str = "wal.write.bytes";
    /// `sync_data` on the active WAL segment (the group-commit fsync).
    pub const WAL_SYNC: &str = "wal.sync";
    /// Sealing the active WAL segment / creating the next one.
    pub const WAL_ROTATE: &str = "wal.rotate";
    /// Fsync of the WAL directory after segment create/delete.
    pub const WAL_DIR_SYNC: &str = "wal.dir.sync";
    /// Deleting a checkpointed WAL segment or healing a torn tail.
    pub const WAL_TRUNCATE: &str = "wal.truncate";
    /// Applying a committed `DROP`: removing the TLF directory.
    pub const CATALOG_DROP_APPLY: &str = "catalog.drop.apply";
    /// Cluster RPC: establishing a connection to a worker. Per-worker
    /// targeting appends the worker tag: `cluster.connect.w0`.
    pub const CLUSTER_CONNECT: &str = "cluster.connect";
    /// Cluster RPC: sending one framed message. Tagged per worker:
    /// `cluster.rpc.send.w0`.
    pub const CLUSTER_SEND: &str = "cluster.rpc.send";
    /// Cluster RPC: receiving one framed message. Tagged per worker:
    /// `cluster.rpc.recv.w0`.
    pub const CLUSTER_RECV: &str = "cluster.rpc.recv";
    /// Worker serve loop, hit once per request before it executes —
    /// `crash` here models a fail-stop worker death mid-service.
    pub const CLUSTER_WORKER_SERVE: &str = "cluster.worker.serve";

    /// Every error-kind failpoint a write-ahead-logged `STORE` passes
    /// through, in execution order: media materialisation, then the
    /// WAL append + group-commit fsync that acknowledges the publish.
    /// A fault at any of these must fail the store. Kill-point tests
    /// iterate this sequence. (The metadata file itself is only
    /// written at checkpoint, so the `catalog.*` sites are no longer
    /// part of the acknowledged path.)
    pub const PUBLISH_SEQUENCE: &[&str] = &[
        MEDIA_TMP_WRITE,
        MEDIA_TMP_SYNC,
        MEDIA_PUBLISH_RENAME,
        MEDIA_DIR_SYNC,
        WAL_APPEND_WRITE,
        WAL_SYNC,
    ];
}

/// What an armed failpoint does when hit.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Return an `io::Error` of this kind.
    Error(io::ErrorKind),
    /// Return an out-of-space error (`ENOSPC`-shaped).
    Enospc,
    /// Return a retryable error of this kind — pair with a hit limit
    /// via [`arm_n`] so retries eventually succeed.
    Transient(io::ErrorKind),
    /// Corrupt written data: keep only the first `keep` bytes (a torn
    /// write). Applied by [`mangle`]; the write itself "succeeds".
    TruncateWrite { keep: usize },
    /// Corrupt written data: XOR the byte at `offset % len` with 0xFF.
    FlipByte { offset: usize },
    /// Stall the hitting thread for this many milliseconds, then let
    /// the operation proceed — a slow device, not a broken one.
    Delay { ms: u64 },
    /// Sever the link mid-conversation: the operation fails with a
    /// `ConnectionReset`-shaped error, as if the peer (or the network)
    /// dropped the connection under us.
    Drop,
    /// Network partition: the peer is unreachable and the operation
    /// fails `ConnectionRefused`-shaped. Arm without a hit limit to
    /// model a partition that persists until healed ([`disarm`]).
    Partition,
    /// Simulated fail-stop crash: the hit marks the whole process
    /// crashed ([`crashed`] turns true) and this failpoint plus every
    /// later one — on any thread — return errors until
    /// [`clear_crash`]. Models the kernel never seeing the I/O.
    Crash,
    /// Torn write, then crash: truncates the mangled buffer to `keep`
    /// bytes, lets the write itself reach the file (the next failpoint
    /// passes), and crashes at the failpoint after it — the prefix is
    /// on disk but the fsync that would have made it durable never
    /// happened.
    Torn { keep: usize },
}

#[derive(Debug)]
struct Armed {
    fault: Fault,
    /// Hits left before auto-disarm; `None` = fire on every hit.
    remaining: Option<u64>,
    /// Hits to let pass before the fault starts firing (so a fault can
    /// target the n-th hit of a site, not just the first).
    skip: u64,
}

#[derive(Default)]
struct Registry {
    armed: HashMap<String, Armed>,
    hits: HashMap<String, u64>,
    any_armed: bool,
}

impl Registry {
    fn from_env() -> Registry {
        let mut reg = Registry::default();
        if let Ok(spec) = std::env::var("LIGHTDB_FAULTS") {
            for (site, armed) in parse_env(&spec) {
                reg.armed.insert(site, armed);
            }
            reg.any_armed = !reg.armed.is_empty();
        }
        reg
    }

    /// Counts a hit at `site` and, if a fault of the requested
    /// flavour (mangle vs. error/delay) is armed there, consumes one
    /// charge and returns it.
    fn take_fault(&mut self, site: &str, want_mangle: bool) -> Option<Fault> {
        *self.hits.entry(site.to_string()).or_insert(0) += 1;
        let armed = self.armed.get_mut(site)?;
        let is_mangle = matches!(
            armed.fault,
            Fault::TruncateWrite { .. } | Fault::FlipByte { .. } | Fault::Torn { .. }
        );
        if is_mangle != want_mangle {
            return None;
        }
        if armed.skip > 0 {
            armed.skip -= 1;
            return None;
        }
        let fault = armed.fault.clone();
        if let Some(rem) = &mut armed.remaining {
            *rem -= 1;
            if *rem == 0 {
                self.armed.remove(site);
                self.any_armed = !self.armed.is_empty();
            }
        }
        Some(fault)
    }
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::from_env());
}

/// Process-wide "the process has crashed" flag set by [`Fault::Crash`]
/// / [`Fault::Torn`]. While set, every failpoint on every thread
/// errors, simulating a fail-stop process whose remaining I/O never
/// reaches the kernel.
static CRASHED: AtomicBool = AtomicBool::new(false);
/// Countdown of failpoint passes before a pending torn-write crash
/// lands (0 = no crash pending). `Torn` sets it to 2: the failpoint
/// guarding the torn write passes, the one after it crashes.
static CRASH_AFTER: AtomicU64 = AtomicU64::new(0);

/// True once a [`Fault::Crash`] or [`Fault::Torn`] fault has fired.
pub fn crashed() -> bool {
    CRASHED.load(Ordering::Relaxed)
}

/// "Reboots" the simulated process: clears the crashed flag and any
/// pending torn-write crash. [`reset_global`] calls this too.
pub fn clear_crash() {
    CRASHED.store(false, Ordering::Relaxed);
    CRASH_AFTER.store(0, Ordering::Relaxed);
}

/// Decrements the pending-crash countdown (if any); the hit that
/// brings it to zero marks the process crashed.
fn tick_crash_countdown() {
    let mut cur = CRASH_AFTER.load(Ordering::Relaxed);
    while cur > 0 {
        match CRASH_AFTER.compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                if cur == 1 {
                    CRASHED.store(true, Ordering::Relaxed);
                }
                break;
            }
            Err(actual) => cur = actual,
        }
    }
}

fn crash_error(site: &str) -> io::Error {
    io::Error::other(format!("simulated process crash (at {site})"))
}

/// Cheap "is the process-global registry possibly armed?" hint so the
/// unarmed fast path stays a flag check and never takes the lock.
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Registry>> = Mutex::new(None);

fn with_global<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let reg = guard.get_or_insert_with(Registry::default);
    let out = f(reg);
    GLOBAL_ARMED.store(reg.any_armed, Ordering::Relaxed);
    out
}

fn parse_kind(s: &str) -> io::ErrorKind {
    match s {
        "notfound" => io::ErrorKind::NotFound,
        "denied" => io::ErrorKind::PermissionDenied,
        "interrupted" => io::ErrorKind::Interrupted,
        "wouldblock" => io::ErrorKind::WouldBlock,
        "timedout" => io::ErrorKind::TimedOut,
        "unexpectedeof" => io::ErrorKind::UnexpectedEof,
        _ => io::ErrorKind::Other,
    }
}

fn parse_env(spec: &str) -> Vec<(String, Armed)> {
    let mut out = Vec::new();
    for pair in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let Some((site, fspec)) = pair.split_once('=') else { continue };
        let parts: Vec<&str> = fspec.split(':').collect();
        let (fault, n) = match parts.as_slice() {
            ["err", kind] => (Fault::Error(parse_kind(kind)), None),
            ["err", kind, n] => (Fault::Error(parse_kind(kind)), n.parse().ok()),
            ["transient", kind, n] => (Fault::Transient(parse_kind(kind)), n.parse().ok()),
            ["enospc"] => (Fault::Enospc, None),
            ["enospc", n] => (Fault::Enospc, n.parse().ok()),
            ["trunc", keep] => {
                (Fault::TruncateWrite { keep: keep.parse().unwrap_or(0) }, None)
            }
            ["trunc", keep, n] => {
                (Fault::TruncateWrite { keep: keep.parse().unwrap_or(0) }, n.parse().ok())
            }
            ["flip", off] => (Fault::FlipByte { offset: off.parse().unwrap_or(0) }, None),
            ["flip", off, n] => {
                (Fault::FlipByte { offset: off.parse().unwrap_or(0) }, n.parse().ok())
            }
            ["delay", ms] => (Fault::Delay { ms: ms.parse().unwrap_or(0) }, None),
            ["delay", ms, n] => {
                (Fault::Delay { ms: ms.parse().unwrap_or(0) }, n.parse().ok())
            }
            ["drop"] => (Fault::Drop, None),
            ["drop", n] => (Fault::Drop, n.parse().ok()),
            ["partition"] => (Fault::Partition, None),
            ["partition", n] => (Fault::Partition, n.parse().ok()),
            // For crash-shaped faults, `n` selects *which* hit fires
            // (1-based) — encoded below as a skip count.
            ["crash"] => (Fault::Crash, Some(1)),
            ["crash", n] => (Fault::Crash, Some(n.parse().unwrap_or(1))),
            ["torn", keep] => (Fault::Torn { keep: keep.parse().unwrap_or(0) }, Some(1)),
            ["torn", keep, n] => (
                Fault::Torn { keep: keep.parse().unwrap_or(0) },
                Some(n.parse().unwrap_or(1)),
            ),
            _ => continue,
        };
        let (remaining, skip) = match &fault {
            Fault::Crash | Fault::Torn { .. } => {
                (Some(1), n.unwrap_or(1u64).saturating_sub(1))
            }
            _ => (n, 0),
        };
        out.push((site.trim().to_string(), Armed { fault, remaining, skip }));
    }
    out
}

/// Arms `site` with `fault` on this thread for every future hit
/// (until [`disarm`]).
pub fn arm(site: &str, fault: Fault) {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.armed.insert(site.to_string(), Armed { fault, remaining: None, skip: 0 });
        reg.any_armed = true;
    });
}

/// Arms `site` on this thread to fire on the next `n` hits, then
/// auto-disarm.
pub fn arm_n(site: &str, fault: Fault, n: u64) {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.armed.insert(site.to_string(), Armed { fault, remaining: Some(n), skip: 0 });
        reg.any_armed = true;
    });
}

/// Disarms one site on this thread.
pub fn disarm(site: &str) {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.armed.remove(site);
        reg.any_armed = !reg.armed.is_empty();
    });
}

/// Disarms every site and clears hit counters on this thread.
pub fn reset() {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.armed.clear();
        reg.hits.clear();
        reg.any_armed = false;
    });
}

/// Number of times `site` was reached on this thread while any fault
/// was armed.
pub fn hits(site: &str) -> u64 {
    REGISTRY.with(|r| r.borrow().hits.get(site).copied().unwrap_or(0))
}

/// Arms `site` with `fault` **process-wide** for every future hit
/// (until [`reset_global`]). Only the chaos harness and tests that
/// must reach worker threads should use this; callers serialise
/// themselves.
pub fn arm_global(site: &str, fault: Fault) {
    with_global(|reg| {
        reg.armed.insert(site.to_string(), Armed { fault, remaining: None, skip: 0 });
        reg.any_armed = true;
    });
}

/// Arms `site` process-wide to fire on the next `n` hits (across all
/// threads combined), then auto-disarm.
pub fn arm_global_n(site: &str, fault: Fault, n: u64) {
    with_global(|reg| {
        reg.armed.insert(site.to_string(), Armed { fault, remaining: Some(n), skip: 0 });
        reg.any_armed = true;
    });
}

/// Arms `site` process-wide to fire exactly once, on the `nth` hit
/// (1-based) of the matching flavour across all threads. The crash
/// harness uses this to enumerate every distinct crash point a
/// workload reaches.
pub fn arm_global_at(site: &str, fault: Fault, nth: u64) {
    with_global(|reg| {
        reg.armed.insert(
            site.to_string(),
            Armed { fault, remaining: Some(1), skip: nth.saturating_sub(1) },
        );
        reg.any_armed = true;
    });
}

/// Disarms every global site, clears global hit counters, and clears
/// any simulated-crash state ([`clear_crash`]).
pub fn reset_global() {
    clear_crash();
    with_global(|reg| {
        reg.armed.clear();
        reg.hits.clear();
        reg.any_armed = false;
    });
}

/// Every site hit (by any thread) since the last [`reset_global`],
/// with its hit count, sorted by name. Hits are only counted while
/// the global registry has something armed — trace passes arm a
/// never-hit dummy site to turn counting on.
pub fn global_hit_sites() -> Vec<(String, u64)> {
    let mut v = with_global(|reg| {
        reg.hits.iter().map(|(k, n)| (k.clone(), *n)).collect::<Vec<_>>()
    });
    v.sort();
    v
}

/// Number of times `site` was reached (by any thread) while the
/// global registry was armed.
pub fn global_hits(site: &str) -> u64 {
    if !GLOBAL_ARMED.load(Ordering::Relaxed) {
        // The counter survives disarming until `reset_global`, so
        // still read it — just without arming anything.
        return GLOBAL
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |reg| reg.hits.get(site).copied().unwrap_or(0));
    }
    with_global(|reg| reg.hits.get(site).copied().unwrap_or(0))
}

fn take(site: &str, want_mangle: bool) -> Option<Fault> {
    let local = if REGISTRY.with(|r| r.borrow().any_armed) {
        REGISTRY.with(|r| r.borrow_mut().take_fault(site, want_mangle))
    } else {
        None
    };
    match local {
        Some(f) => Some(f),
        None if GLOBAL_ARMED.load(Ordering::Relaxed) => {
            with_global(|reg| reg.take_fault(site, want_mangle))
        }
        None => None,
    }
}

#[inline]
fn nothing_armed() -> bool {
    REGISTRY.with(|r| !r.borrow().any_armed) && !GLOBAL_ARMED.load(Ordering::Relaxed)
}

/// Error-kind failpoint: returns `Err` when an error fault is armed
/// at `site`, and stalls the thread when a delay fault is. Call at
/// the top of an I/O operation.
#[inline]
pub fn fail_point(site: &str) -> io::Result<()> {
    tick_crash_countdown();
    if CRASHED.load(Ordering::Relaxed) {
        return Err(crash_error(site));
    }
    if nothing_armed() {
        return Ok(());
    }
    match take(site, false) {
        None => Ok(()),
        Some(Fault::Error(kind)) => {
            Err(io::Error::new(kind, format!("injected fault at {site}")))
        }
        Some(Fault::Transient(kind)) => {
            Err(io::Error::new(kind, format!("injected transient fault at {site}")))
        }
        Some(Fault::Enospc) => Err(io::Error::other(format!(
            "injected ENOSPC (no space left on device) at {site}"
        ))),
        Some(Fault::Delay { ms }) => {
            // Sleep with no registry lock held.
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Fault::Drop) => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected connection drop at {site}"),
        )),
        Some(Fault::Partition) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("injected network partition at {site}"),
        )),
        Some(Fault::Crash) => {
            CRASHED.store(true, Ordering::Relaxed);
            Err(crash_error(site))
        }
        Some(Fault::TruncateWrite { .. })
        | Some(Fault::FlipByte { .. })
        | Some(Fault::Torn { .. }) => Ok(()),
    }
}

/// Data-corruption failpoint: mutates `bytes` in place when a
/// truncate/flip fault is armed at `site`. Call just before writing.
#[inline]
pub fn mangle(site: &str, bytes: &mut Vec<u8>) {
    if nothing_armed() {
        return;
    }
    match take(site, true) {
        Some(Fault::TruncateWrite { keep }) => bytes.truncate(keep),
        Some(Fault::FlipByte { offset }) if !bytes.is_empty() => {
            let i = offset % bytes.len();
            bytes[i] ^= 0xFF;
        }
        Some(Fault::Torn { keep }) => {
            // Torn write, then crash: the truncated buffer is allowed
            // to land on disk (mangle sites precede the guarded write),
            // and the process "dies" at the *second* failpoint it hits
            // after this one — the first is the failpoint guarding this
            // very write, which must pass for the torn bytes to land.
            bytes.truncate(keep);
            CRASH_AFTER.store(2, Ordering::Relaxed);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_noops() {
        reset();
        assert!(fail_point("nowhere").is_ok());
        let mut b = vec![1, 2, 3];
        mangle("nowhere", &mut b);
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn armed_error_fires_until_disarmed() {
        reset();
        arm("t.err", Fault::Error(io::ErrorKind::PermissionDenied));
        assert_eq!(
            fail_point("t.err").unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );
        assert!(fail_point("t.err").is_err());
        assert_eq!(hits("t.err"), 2);
        disarm("t.err");
        assert!(fail_point("t.err").is_ok());
        reset();
    }

    #[test]
    fn arm_n_auto_disarms() {
        reset();
        arm_n("t.once", Fault::Error(io::ErrorKind::Interrupted), 2);
        assert!(fail_point("t.once").is_err());
        assert!(fail_point("t.once").is_err());
        assert!(fail_point("t.once").is_ok());
    }

    #[test]
    fn arming_is_thread_local() {
        reset();
        arm("t.tl", Fault::Error(io::ErrorKind::Other));
        let other = std::thread::spawn(|| fail_point("t.tl").is_ok())
            .join()
            .expect("thread panicked");
        assert!(other, "faults armed via the API must not leak across threads");
        assert!(fail_point("t.tl").is_err(), "the arming thread still sees the fault");
        reset();
    }

    #[test]
    fn mangle_truncates_and_flips() {
        reset();
        arm_n("t.trunc", Fault::TruncateWrite { keep: 2 }, 1);
        let mut b = vec![1u8, 2, 3, 4];
        mangle("t.trunc", &mut b);
        assert_eq!(b, vec![1, 2]);
        arm_n("t.flip", Fault::FlipByte { offset: 1 }, 1);
        let mut b = vec![0u8, 0, 0];
        mangle("t.flip", &mut b);
        assert_eq!(b, vec![0, 0xFF, 0]);
    }

    #[test]
    fn mangle_faults_do_not_fire_as_errors() {
        reset();
        arm("t.mixed", Fault::TruncateWrite { keep: 0 });
        assert!(fail_point("t.mixed").is_ok());
        reset();
    }

    #[test]
    fn delay_fault_stalls_then_succeeds() {
        reset();
        arm_n("t.delay", Fault::Delay { ms: 15 }, 1);
        let t0 = std::time::Instant::now();
        assert!(fail_point("t.delay").is_ok());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        // Charge consumed: the next hit is instant.
        let t1 = std::time::Instant::now();
        assert!(fail_point("t.delay").is_ok());
        assert!(t1.elapsed() < std::time::Duration::from_millis(10));
        reset();
    }

    /// Serialises the tests that touch the process-global registry.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn global_arming_reaches_other_threads() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_global();
        arm_global_n("t.global", Fault::Error(io::ErrorKind::Interrupted), 1);
        let seen = std::thread::spawn(|| fail_point("t.global").is_err())
            .join()
            .expect("thread panicked");
        assert!(seen, "global faults must fire on threads that never armed anything");
        assert!(global_hits("t.global") >= 1);
        // Exhausted after one hit; local thread sees nothing.
        assert!(fail_point("t.global").is_ok());
        reset_global();
        assert!(fail_point("t.global").is_ok());
    }

    #[test]
    fn local_arming_wins_over_global() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        reset_global();
        arm_global("t.both", Fault::Error(io::ErrorKind::NotFound));
        arm("t.both", Fault::Error(io::ErrorKind::PermissionDenied));
        assert_eq!(
            fail_point("t.both").unwrap_err().kind(),
            io::ErrorKind::PermissionDenied,
            "the thread-local registry is consulted first"
        );
        reset();
        reset_global();
    }

    #[test]
    fn env_spec_parses() {
        let parsed = parse_env(
            "a=err:notfound;b=transient:interrupted:2;c=enospc;d=trunc:7:1;e=flip:3;\
             f=delay:25:2; ;bad",
        );
        assert_eq!(parsed.len(), 6);
        assert!(matches!(parsed[5].1.fault, Fault::Delay { ms: 25 }));
        assert_eq!(parsed[5].1.remaining, Some(2));
        assert!(matches!(parsed[0].1.fault, Fault::Error(io::ErrorKind::NotFound)));
        assert!(matches!(
            parsed[1].1.fault,
            Fault::Transient(io::ErrorKind::Interrupted)
        ));
        assert_eq!(parsed[1].1.remaining, Some(2));
        assert!(matches!(parsed[2].1.fault, Fault::Enospc));
        assert!(matches!(parsed[3].1.fault, Fault::TruncateWrite { keep: 7 }));
        assert!(matches!(parsed[4].1.fault, Fault::FlipByte { offset: 3 }));
    }

    #[test]
    fn network_faults_fire_with_connection_kinds() {
        reset();
        arm_n("t.net.drop", Fault::Drop, 1);
        let e = fail_point("t.net.drop").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert!(fail_point("t.net.drop").is_ok(), "drop charge consumed");
        arm("t.net.part", Fault::Partition);
        let e = fail_point("t.net.part").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
        assert!(
            fail_point("t.net.part").is_err(),
            "a partition persists until healed"
        );
        // Both classify as Unavailable — the failover class.
        assert_eq!(
            lightdb_core::ErrorClass::of_io_kind(io::ErrorKind::ConnectionReset),
            lightdb_core::ErrorClass::Unavailable
        );
        reset();
    }

    #[test]
    fn env_spec_parses_drop_and_partition() {
        let parsed = parse_env("a=drop;b=drop:2;c=partition;d=partition:1");
        assert_eq!(parsed.len(), 4);
        assert!(matches!(parsed[0].1.fault, Fault::Drop));
        assert_eq!(parsed[0].1.remaining, None);
        assert!(matches!(parsed[1].1.fault, Fault::Drop));
        assert_eq!(parsed[1].1.remaining, Some(2));
        assert!(matches!(parsed[2].1.fault, Fault::Partition));
        assert_eq!(parsed[2].1.remaining, None);
        assert!(matches!(parsed[3].1.fault, Fault::Partition));
        assert_eq!(parsed[3].1.remaining, Some(1));
    }

    #[test]
    fn env_spec_parses_crash_and_torn() {
        let parsed = parse_env("a=crash;b=crash:3;c=torn:16;d=torn:9:2");
        assert_eq!(parsed.len(), 4);
        assert!(matches!(parsed[0].1.fault, Fault::Crash));
        assert_eq!((parsed[0].1.remaining, parsed[0].1.skip), (Some(1), 0));
        assert!(matches!(parsed[1].1.fault, Fault::Crash));
        assert_eq!((parsed[1].1.remaining, parsed[1].1.skip), (Some(1), 2));
        assert!(matches!(parsed[2].1.fault, Fault::Torn { keep: 16 }));
        assert_eq!((parsed[2].1.remaining, parsed[2].1.skip), (Some(1), 0));
        assert!(matches!(parsed[3].1.fault, Fault::Torn { keep: 9 }));
        assert_eq!((parsed[3].1.remaining, parsed[3].1.skip), (Some(1), 1));
    }

    #[test]
    fn arm_global_at_targets_the_nth_hit() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        reset_global();
        // Fires on the 3rd hit only — earlier hits pass, later hits
        // pass (the single charge is spent).
        arm_global_at("t.nth", Fault::Error(io::ErrorKind::Other), 3);
        assert!(fail_point("t.nth").is_ok());
        assert!(fail_point("t.nth").is_ok());
        assert!(fail_point("t.nth").is_err());
        assert!(fail_point("t.nth").is_ok());
        reset_global();
    }

    #[test]
    fn global_hit_sites_reports_sorted_counts() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        reset_global();
        // A never-hit armed dummy turns global hit counting on.
        arm_global("t.trace.dummy", Fault::Delay { ms: 0 });
        let _ = fail_point("t.sites.b");
        let _ = fail_point("t.sites.a");
        let _ = fail_point("t.sites.a");
        let sites = global_hit_sites();
        let a = sites.iter().find(|(s, _)| s == "t.sites.a").map(|(_, n)| *n);
        let b = sites.iter().find(|(s, _)| s == "t.sites.b").map(|(_, n)| *n);
        assert_eq!(a, Some(2));
        assert_eq!(b, Some(1));
        let mut sorted = sites.clone();
        sorted.sort();
        assert_eq!(sites, sorted, "global_hit_sites must come back sorted");
        reset_global();
    }
}
