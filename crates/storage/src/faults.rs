//! Fault injection for storage and I/O paths.
//!
//! A test-controllable registry of named *failpoints*. Production
//! code threads calls to [`fail_point`] (typed I/O errors) and
//! [`mangle`] (data corruption: truncation, bit flips) through its
//! I/O sites; when nothing is armed both are a flag check, so the
//! hooks are free in normal operation.
//!
//! Faults live in a **scope**: one registry of armed faults, hit
//! counts and crash state, shared by a set of threads. Every function
//! here ([`arm`], [`arm_n`], [`arm_at`], [`disarm`], [`reset`],
//! [`hits`], [`hit_sites`], [`crashed`], [`clear_crash`], and the
//! failpoints themselves) acts on the calling thread's scope. A thread
//! that has no scope yet gets a fresh one of its own; a thread started
//! through [`inherit`] shares the scope of the thread that started it.
//! The engine starts every thread that can reach a failpoint that way
//! (lint rule R10), so a fault armed on a query's thread reaches its
//! scatter workers, a cluster's RPC and serve threads and a fleet's
//! viewer workers, and nothing else. Tests running side by side in one
//! binary each have their own scope and need no lock; a simulated
//! crash stops only the scope it fired in.
//!
//! A fresh scope is seeded from `LIGHTDB_FAULTS`, a `;`-separated list
//! of `site=spec` pairs:
//!
//! ```text
//! LIGHTDB_FAULTS="media.tmp.write=enospc;catalog.publish.rename=err:notfound:1;\
//! media.read=transient:interrupted:2;media.write.bytes=trunc:7"
//! ```
//!
//! Specs: `err:<kind>[:n]`, `transient:<kind>:<n>`, `enospc[:n]`,
//! `trunc:<keep>[:n]`, `flip:<offset>[:n]`, `delay:<ms>[:n]` — `n` is
//! how many hits fire before the site auto-disarms (default: every
//! hit), counted across the scope. `<kind>` is one of `notfound`,
//! `denied`, `interrupted`, `wouldblock`, `timedout`, `unexpectedeof`
//! or `other`; numbers are decimal, and `n` is at least 1. A malformed
//! pair arms nothing and is reported once per process through
//! [`lightdb_core::envknob`]. `delay` stalls the hitting thread for
//! `<ms>` milliseconds and then lets the operation proceed, modelling
//! slow devices rather than broken ones.
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
//! scope is marked crashed and **every** failpoint in it errors from
//! then on until [`clear_crash`] or [`reset`] — and `torn:<keep>[:n]`
//! models a torn write followed by a crash: on the `n`-th hit of a
//! mangle site it truncates the buffer to `keep` bytes, lets the write
//! itself land on disk, and then crashes at the next failpoint (the
//! fsync that would have made the full write durable). For
//! `crash`/`torn`, `n` selects *which* hit fires (a crash is terminal,
//! so "fire n times" would be meaningless).
//!
//! Site names used by the storage layer are listed in [`sites`];
//! higher layers add their own (the executor's `exec.*` sites live
//! there too so the full set is documented in one place). Hit
//! counters ([`hits`], [`hit_sites`]) are maintained only while at
//! least one fault is armed in the scope.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Simulated fail-stop crash: the hit marks the scope crashed
    /// ([`crashed`] turns true) and this failpoint plus every later one
    /// on any of the scope's threads return errors until
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
}

impl Registry {
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
            *rem = rem.saturating_sub(1);
            if *rem == 0 {
                self.armed.remove(site);
            }
        }
        Some(fault)
    }
}

/// One fault scope: the registry plus the crash state, shared by every
/// thread that points at it.
#[derive(Default)]
struct Scope {
    registry: Mutex<Registry>,
    /// Mirrors "the registry has something armed", so the unarmed fast
    /// path never takes the lock.
    armed: AtomicBool,
    /// Set by [`Fault::Crash`] / [`Fault::Torn`]: while set, every
    /// failpoint in the scope errors, simulating a fail-stop process
    /// whose remaining I/O never reaches the kernel.
    crashed: AtomicBool,
    /// Countdown of failpoint passes before a pending torn-write crash
    /// lands (0 = no crash pending). `Torn` sets it to 2: the failpoint
    /// guarding the torn write passes, the one after it crashes.
    crash_after: AtomicU64,
}

impl Scope {
    fn from_spec(spec: &str) -> Scope {
        let (armed, malformed) = parse_env(spec);
        if !malformed.is_empty() {
            lightdb_core::envknob::warn_malformed(
                "LIGHTDB_FAULTS",
                &malformed.join(";"),
                "`site=spec` pairs of the fault grammar; those pairs arm nothing",
            );
        }
        let scope = Scope::default();
        scope.update(|reg| reg.armed.extend(armed));
        scope
    }

    /// Runs `f` on the registry under its lock, then republishes the
    /// fast-path hint.
    fn update<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        let mut reg = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut reg);
        self.armed.store(!reg.armed.is_empty(), Ordering::Relaxed);
        out
    }

    fn arm(&self, site: &str, fault: Fault, remaining: Option<u64>, skip: u64) {
        self.update(|reg| reg.armed.insert(site.to_string(), Armed { fault, remaining, skip }));
    }

    /// Counts a hit and takes an armed fault of the requested flavour,
    /// or `None` without locking when nothing is armed.
    fn take(&self, site: &str, want_mangle: bool) -> Option<Fault> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.update(|reg| reg.take_fault(site, want_mangle))
    }

    /// Decrements the pending-crash countdown (if any); the hit that
    /// brings it to zero marks the scope crashed.
    fn tick_crash_countdown(&self) {
        let tick = |n: u64| n.checked_sub(1);
        if self.crash_after.fetch_update(Ordering::Relaxed, Ordering::Relaxed, tick) == Ok(1) {
            self.crashed.store(true, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// The scope this thread's failpoints act on: installed by
    /// [`inherit`], or created from `LIGHTDB_FAULTS` on first use.
    static SCOPE: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

fn with_scope<T>(f: impl FnOnce(&Arc<Scope>) -> T) -> T {
    SCOPE.with(|slot| {
        f(slot.borrow_mut().get_or_insert_with(|| {
            let spec = std::env::var("LIGHTDB_FAULTS").unwrap_or_default();
            Arc::new(Scope::from_spec(&spec))
        }))
    })
}

/// Wraps the body of a thread about to be started so that it shares
/// the calling thread's scope: `std::thread::spawn(faults::inherit(f))`.
/// Faults armed in the scope reach the new thread, and its hits and
/// crashes count in the scope.
pub fn inherit<T>(f: impl FnOnce() -> T) -> impl FnOnce() -> T {
    let scope = with_scope(Arc::clone);
    move || {
        SCOPE.with(|slot| *slot.borrow_mut() = Some(scope));
        f()
    }
}

/// True once a [`Fault::Crash`] or [`Fault::Torn`] fault has fired in
/// this scope.
pub fn crashed() -> bool {
    with_scope(|s| s.crashed.load(Ordering::Relaxed))
}

/// "Reboots" the scope's simulated process: clears the crashed flag
/// and any pending torn-write crash, leaving armed faults in place.
pub fn clear_crash() {
    with_scope(|s| {
        s.crashed.store(false, Ordering::Relaxed);
        s.crash_after.store(0, Ordering::Relaxed);
    });
}

fn crash_error(site: &str) -> io::Error {
    io::Error::other(format!("simulated process crash (at {site})"))
}

fn parse_kind(s: &str) -> Option<io::ErrorKind> {
    Some(match s {
        "notfound" => io::ErrorKind::NotFound,
        "denied" => io::ErrorKind::PermissionDenied,
        "interrupted" => io::ErrorKind::Interrupted,
        "wouldblock" => io::ErrorKind::WouldBlock,
        "timedout" => io::ErrorKind::TimedOut,
        "unexpectedeof" => io::ErrorKind::UnexpectedEof,
        "other" => io::ErrorKind::Other,
        _ => return None,
    })
}

/// Splits a `LIGHTDB_FAULTS` spec into the sites it arms and the
/// non-blank pairs that are malformed (returned as written).
fn parse_env(spec: &str) -> (Vec<(String, Armed)>, Vec<&str>) {
    let mut armed = Vec::new();
    let mut malformed = Vec::new();
    for pair in spec.split(';').filter(|p| !p.trim().is_empty()) {
        match parse_pair(pair) {
            Some(a) => armed.push(a),
            None => malformed.push(pair),
        }
    }
    (armed, malformed)
}

/// One `site=spec` pair, or `None` unless every part of it is
/// well-formed.
fn parse_pair(pair: &str) -> Option<(String, Armed)> {
    let (site, spec) = pair.split_once('=')?;
    let site = site.trim();
    if site.is_empty() {
        return None;
    }
    // Plain decimal digits only (`str::parse` would also take `+7`).
    let int = |s: &str| -> Option<u64> {
        s.bytes().all(|b| b.is_ascii_digit()).then(|| s.parse().ok()).flatten()
    };
    let size = |s: &str| int(s).and_then(|v| usize::try_from(v).ok());
    let mut parts = spec.trim().split(':');
    let head = parts.next()?;
    let rest: Vec<&str> = parts.collect();
    let takes_arg = matches!(head, "err" | "transient" | "trunc" | "flip" | "delay" | "torn");
    let (arg, n) = match (takes_arg, rest.as_slice()) {
        (true, [arg]) => (*arg, None),
        (true, [arg, n]) => (*arg, Some(int(n).filter(|&n| n > 0)?)),
        (false, []) => ("", None),
        (false, [n]) => ("", Some(int(n).filter(|&n| n > 0)?)),
        _ => return None,
    };
    let fault = match head {
        "err" => Fault::Error(parse_kind(arg)?),
        "transient" if n.is_some() => Fault::Transient(parse_kind(arg)?),
        "enospc" => Fault::Enospc,
        "trunc" => Fault::TruncateWrite { keep: size(arg)? },
        "flip" => Fault::FlipByte { offset: size(arg)? },
        "delay" => Fault::Delay { ms: int(arg)? },
        "drop" => Fault::Drop,
        "partition" => Fault::Partition,
        "crash" => Fault::Crash,
        "torn" => Fault::Torn { keep: size(arg)? },
        _ => return None,
    };
    // For crash-shaped faults, `n` selects *which* hit fires
    // (1-based) — encoded as a skip count.
    let (remaining, skip) = match fault {
        Fault::Crash | Fault::Torn { .. } => (Some(1), n.unwrap_or(1) - 1),
        _ => (n, 0),
    };
    Some((site.to_string(), Armed { fault, remaining, skip }))
}

/// Arms `site` with `fault` in this scope for every future hit (until
/// [`disarm`]).
pub fn arm(site: &str, fault: Fault) {
    with_scope(|s| s.arm(site, fault, None, 0));
}

/// Arms `site` in this scope to fire on the next `n` hits (across all
/// of the scope's threads), then auto-disarm.
pub fn arm_n(site: &str, fault: Fault, n: u64) {
    with_scope(|s| s.arm(site, fault, Some(n), 0));
}

/// Arms `site` in this scope to fire exactly once, on the `nth` hit
/// (1-based) of the matching flavour. The crash harness uses this to
/// enumerate every distinct crash point a workload reaches.
pub fn arm_at(site: &str, fault: Fault, nth: u64) {
    with_scope(|s| s.arm(site, fault, Some(1), nth.saturating_sub(1)));
}

/// Disarms one site in this scope.
pub fn disarm(site: &str) {
    with_scope(|s| s.update(|reg| reg.armed.remove(site)));
}

/// Disarms every site, clears the hit counters and clears any
/// simulated-crash state ([`clear_crash`]) in this scope.
pub fn reset() {
    clear_crash();
    with_scope(|s| s.update(|reg| *reg = Registry::default()));
}

/// Number of times `site` was reached in this scope while any fault
/// was armed.
pub fn hits(site: &str) -> u64 {
    with_scope(|s| s.update(|reg| reg.hits.get(site).copied().unwrap_or(0)))
}

/// Every site hit in this scope since the last [`reset`], with its hit
/// count, sorted by name. Hits are only counted while something is
/// armed — trace passes arm a never-hit dummy site to turn counting on.
pub fn hit_sites() -> Vec<(String, u64)> {
    let mut v = with_scope(|s| {
        s.update(|reg| reg.hits.iter().map(|(k, n)| (k.clone(), *n)).collect::<Vec<_>>())
    });
    v.sort();
    v
}

/// Error-kind failpoint: returns `Err` when an error fault is armed
/// at `site`, and stalls the thread when a delay fault is. Call at
/// the top of an I/O operation.
#[inline]
pub fn fail_point(site: &str) -> io::Result<()> {
    let fault = with_scope(|s| {
        s.tick_crash_countdown();
        if s.crashed.load(Ordering::Relaxed) {
            return Err(crash_error(site));
        }
        let fault = s.take(site, false);
        if matches!(fault, Some(Fault::Crash)) {
            s.crashed.store(true, Ordering::Relaxed);
        }
        Ok(fault)
    })?;
    let (kind, what) = match fault {
        None
        | Some(Fault::TruncateWrite { .. })
        | Some(Fault::FlipByte { .. })
        | Some(Fault::Torn { .. }) => return Ok(()),
        Some(Fault::Delay { ms }) => {
            // Sleep with no registry lock held.
            std::thread::sleep(std::time::Duration::from_millis(ms));
            return Ok(());
        }
        Some(Fault::Crash) => return Err(crash_error(site)),
        Some(Fault::Error(kind)) => (kind, "fault"),
        Some(Fault::Transient(kind)) => (kind, "transient fault"),
        Some(Fault::Enospc) => (io::ErrorKind::Other, "ENOSPC (no space left on device)"),
        Some(Fault::Drop) => (io::ErrorKind::ConnectionReset, "connection drop"),
        Some(Fault::Partition) => (io::ErrorKind::ConnectionRefused, "network partition"),
    };
    Err(io::Error::new(kind, format!("injected {what} at {site}")))
}

/// Data-corruption failpoint: mutates `bytes` in place when a
/// truncate/flip fault is armed at `site`. Call just before writing.
#[inline]
pub fn mangle(site: &str, bytes: &mut Vec<u8>) {
    with_scope(|s| match s.take(site, true) {
        Some(Fault::TruncateWrite { keep }) => bytes.truncate(keep),
        Some(Fault::FlipByte { offset }) if !bytes.is_empty() => {
            let i = offset % bytes.len();
            bytes[i] ^= 0xFF;
        }
        Some(Fault::Torn { keep }) => {
            // Torn write, then crash: the truncated buffer is allowed
            // to land on disk (mangle sites precede the guarded write),
            // and the scope "dies" at the *second* failpoint it hits
            // after this one — the first is the failpoint guarding this
            // very write, which must pass for the torn bytes to land.
            bytes.truncate(keep);
            s.crash_after.store(2, Ordering::Relaxed);
        }
        _ => {}
    });
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
        assert!(other, "a thread started without `inherit` has a scope of its own");
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

    #[test]
    fn env_spec_parses() {
        let (parsed, malformed) = parse_env(
            "a=err:notfound;b=transient:interrupted:2;c=enospc;d=trunc:7:1;e=flip:3;\
             f=delay:25:2; ;bad;g=err:other:1",
        );
        assert_eq!(parsed.len(), 7);
        assert_eq!(malformed, vec!["bad"]);
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
        assert!(matches!(parsed[6].1.fault, Fault::Error(io::ErrorKind::Other)));
        assert_eq!(parsed[6].1.remaining, Some(1));
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
        let (parsed, _) = parse_env("a=drop;b=drop:2;c=partition;d=partition:1");
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
        let (parsed, _) = parse_env("a=crash;b=crash:3;c=torn:16;d=torn:9:2");
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
    fn malformed_pairs_arm_nothing_and_are_reported() {
        for bad in [
            "a=err:notfound:x", "a=trunc:abc", "a=crash:abc", "a=err:bogus", "a=tranient:other:1",
            "a=transient:other", "a=err:other:0", "a=crash:0", "a=flip:+3", "a=delay:-1",
            "a=enospc:1:2", "a=err", "a=", "=err:other", "a", "a=drop:", "a=torn",
            "a=trunc:99999999999999999999", "a=err:other:1:1",
        ] {
            let (armed, malformed) = parse_env(bad);
            assert!(armed.is_empty(), "{bad:?} armed {:?}", armed);
            assert_eq!(malformed, vec![bad]);
        }
        let scope = Scope::from_spec("t.ok=err:other:1;t.bad=err:bogus");
        assert!(scope.take("t.ok", false).is_some() && scope.take("t.bad", false).is_none());
        assert!(lightdb_core::envknob::malformed().iter().any(|k| k == "LIGHTDB_FAULTS"));
    }

    /// The grammar written out independently of the parser.
    fn well_formed(pair: &str) -> bool {
        let Some((site, spec)) = pair.split_once('=') else { return false };
        let num = |s: &str| s.bytes().all(|b| b.is_ascii_digit()) && s.parse::<u64>().is_ok();
        let count = |s: &str| num(s) && s.parse::<u64>() != Ok(0);
        let kinds = ["notfound", "denied", "interrupted", "wouldblock", "timedout"];
        let kind = |a: &str| a == "unexpectedeof" || a == "other" || kinds.contains(&a);
        let arg = |h: &str, a: &str| match h {
            "err" | "transient" => kind(a),
            _ => ["trunc", "flip", "delay", "torn"].contains(&h) && num(a),
        };
        let bare = |h: &str| ["enospc", "drop", "partition", "crash"].contains(&h);
        !site.trim().is_empty()
            && match spec.trim().split(':').collect::<Vec<_>>()[..] {
                [h] => bare(h),
                [h, a] => bare(h) && count(a) || h != "transient" && arg(h, a),
                [h, a, n] => arg(h, a) && count(n),
                _ => false,
            }
    }

    #[test]
    fn cut_and_flipped_specs_arm_exactly_their_well_formed_pairs() {
        let spec = "media.read=transient:interrupted:2;w=err:other:1;m=trunc:7;x=crash:3;\
                    y=delay:5;z=partition";
        let check = |s: &str| {
            let (armed, malformed) = parse_env(s);
            let pairs: Vec<&str> = s.split(';').filter(|p| !p.trim().is_empty()).collect();
            let good = pairs.iter().filter(|p| well_formed(p));
            let want: Vec<&str> = good.map(|p| p.split('=').next().unwrap_or("").trim()).collect();
            let sites: Vec<&str> = armed.iter().map(|(site, _)| site.as_str()).collect();
            assert_eq!(sites, want, "{s:?}");
            assert_eq!(armed.len() + malformed.len(), pairs.len(), "{s:?}");
        };
        for cut in 0..=spec.len() {
            check(&spec[..cut]);
        }
        for bit in 0..spec.len() * 8 {
            let mut bytes = spec.as_bytes().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(s) = std::str::from_utf8(&bytes) {
                check(s);
            }
        }
    }
}
