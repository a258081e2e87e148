//! The TLF catalog: names, versions, and directory management.
//!
//! By default the catalog is **write-ahead logged** (see
//! [`crate::wal`]): the commit point of a `CREATE`/`STORE`/`DROP` is
//! the group-commit fsync of its WAL record, not a metadata rename.
//! Committed-but-not-checkpointed versions live only in the WAL and
//! an in-memory overlay the read path consults first; a
//! [`Catalog::checkpoint`] (periodic, on open, or explicit) rewrites
//! each one crash-consistently as an ordinary metadata file and
//! truncates the log. Commits therefore never touch the TLF
//! directories, which is what lets group commit amortise the fsync.
//!
//! [`Catalog::open`] recovers in three steps: a base scan of the TLF
//! directories (deleting orphaned `*.tmp` files, ignoring metadata
//! files that do not parse), a WAL replay that re-applies every
//! committed mutation the scan could not see, and a checkpoint that
//! makes the replayed state durable and empties the log — which is
//! what makes recovery idempotent: a second open finds an empty log
//! and the identical materialised state.
//!
//! The legacy per-publish mode ([`Durability::PerPublish`]) keeps the
//! original protocol — every publish does its own tmp/fsync/rename —
//! and exists for comparison benchmarks and as a fallback.

use crate::durable::{self, TmpGuard};
use crate::faults::{self, sites};
use crate::media::MediaStore;
use crate::wal::{Wal, WalOp, WalOptions};
use crate::{Result, StorageError};
use lightdb_codec::VideoStream;
use lightdb_container::{MetadataFile, TlfDescriptor, Track, TrackRole};
use lightdb_geom::projection::ProjectionKind;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Directory (under the catalog root) holding the write-ahead log.
const WAL_DIR: &str = ".wal";

/// File (under the catalog root) an open catalog holds an exclusive
/// lock on for its whole lifetime.
const LOCK_FILE: &str = ".lock";

/// A resolved, read-only view of one TLF version.
#[derive(Debug, Clone)]
pub struct StoredTlf {
    pub name: String,
    pub version: u64,
    pub metadata: Arc<MetadataFile>,
    pub dir: PathBuf,
}

impl StoredTlf {
    /// Media accessor for this TLF's directory.
    pub fn media(&self) -> MediaStore {
        MediaStore::new(self.dir.clone())
    }
}

/// A track being written by `STORE`: either fresh encoded content or
/// a pointer to an existing, unchanged track (no-overwrite sharing).
#[derive(Debug)]
pub enum TrackWrite {
    /// Materialise a new media file with this content.
    New { role: TrackRole, projection: ProjectionKind, stream: VideoStream },
    /// Reference an existing media file (the track is unmodified).
    Existing(Track),
}

/// How the catalog makes mutations durable.
#[derive(Debug, Clone)]
pub enum Durability {
    /// Write-ahead log with group commit (the default): one fsync
    /// acknowledges a whole batch of concurrent publishes.
    Wal {
        /// How long a group-commit leader waits for stragglers before
        /// the batch fsync (`LIGHTDB_WAL_GROUP_MS`).
        group_window: Duration,
        /// WAL segment rotation threshold.
        segment_bytes: u64,
        /// Auto-checkpoint once this many log bytes accumulate.
        checkpoint_bytes: u64,
    },
    /// Every publish does its own tmp-write/fsync/rename. The
    /// pre-WAL protocol, kept for comparison benchmarks.
    PerPublish,
}

impl Durability {
    /// WAL mode with default tuning and no group window.
    pub fn wal_defaults() -> Durability {
        Durability::Wal {
            group_window: Duration::ZERO,
            segment_bytes: 8 << 20,
            checkpoint_bytes: 4 << 20,
        }
    }
}

/// Tuning for [`Catalog::open_with`].
#[derive(Debug, Clone)]
pub struct CatalogOptions {
    pub durability: Durability,
}

impl Default for CatalogOptions {
    fn default() -> CatalogOptions {
        CatalogOptions { durability: Durability::wal_defaults() }
    }
}

impl CatalogOptions {
    /// Defaults with environment knobs applied: `LIGHTDB_WAL_GROUP_MS`
    /// sets the group-commit window in milliseconds (default 0 —
    /// every commit syncs as soon as a leader is free). Malformed
    /// values warn loudly (via [`lightdb_core::envknob`]) and read as
    /// unset instead of being silently ignored.
    pub fn from_env() -> CatalogOptions {
        let ms = lightdb_core::envknob::read_u64("LIGHTDB_WAL_GROUP_MS").unwrap_or(0);
        let mut opts = CatalogOptions::default();
        if let Durability::Wal { group_window, .. } = &mut opts.durability {
            *group_window = Duration::from_millis(ms);
        }
        opts
    }
}

/// Version numbers the catalog has handed out, per name.
#[derive(Debug, Default)]
struct Reservations {
    /// Highest version handed to a `CREATE` or `STORE` of the live
    /// name.
    live: HashMap<String, u64>,
    /// Highest version a dropped name had reached. Kept for the life
    /// of the process, so a `(name, version)` pair never repeats
    /// within it: every cache keyed by one — pool GOPs through the
    /// media path, tiles, plans — would otherwise serve a dropped
    /// TLF's data for its successor. A restart empties those caches,
    /// so nothing needs it to be durable.
    dropped: HashMap<String, u64>,
}

impl Reservations {
    /// The highest version `name` has been handed, live or before a
    /// `DROP`; 0 for a name never seen.
    fn live_or_dropped(&self, name: &str) -> u64 {
        let live = self.live.get(name).copied().unwrap_or(0);
        live.max(self.dropped.get(name).copied().unwrap_or(0))
    }

    /// Records that `name`, committed at `versions`, was dropped.
    fn retire(&mut self, name: &str, versions: &[u64]) {
        let last = versions.last().copied().unwrap_or(0);
        let high = last.max(self.live_or_dropped(name));
        self.live.remove(name);
        self.dropped.insert(name.to_string(), high);
    }
}

/// The catalog. Thread-safe: commits serialise on the WAL (or, in
/// per-publish mode, the versions write lock); reads take shared
/// locks and an overlay lookup.
#[derive(Debug)]
pub struct Catalog {
    root: PathBuf,
    versions: RwLock<HashMap<String, Vec<u64>>>,
    /// WAL-committed metadata not yet durably materialised, keyed by
    /// `(name, version)`. Consulted by reads before disk; drained by
    /// [`Catalog::checkpoint`]. Always empty in per-publish mode.
    overlay: RwLock<HashMap<(String, u64), Arc<MetadataFile>>>,
    /// Version numbers handed out, so concurrent stores cannot collide
    /// on a version and a dropped name's versions are never reused.
    reserved: Mutex<Reservations>,
    wal: Option<Wal>,
    /// Readers: commit appliers (store/drop, while publishing their
    /// WAL record and updating maps). Writer: the checkpoint capture,
    /// so its `(cut, overlay)` snapshot is consistent.
    apply_gate: RwLock<()>,
    /// Serialises checkpoints against drops: a checkpoint must never
    /// re-materialise a TLF a concurrent drop is removing.
    ck_lock: Mutex<()>,
    checkpoint_bytes: u64,
    /// Exclusive lock on `<root>/.lock`, released when the catalog
    /// drops. A second catalog over a live root would replay, then
    /// checkpoint and truncate, the first one's log, and the first
    /// one's later commits would never be recovered.
    _root_lock: fs::File,
}

impl Catalog {
    /// Opens (or initialises) a catalog rooted at `root` with the
    /// environment-default options ([`CatalogOptions::from_env`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Catalog> {
        Catalog::open_with(root, CatalogOptions::from_env())
    }

    /// Opens (or initialises) a catalog rooted at `root`.
    ///
    /// Recovery: a base scan of the TLF directories (orphaned `*.tmp`
    /// files from interrupted publishes are deleted; metadata files
    /// that fail to parse are ignored rather than listed), then — in
    /// WAL mode — a log replay re-applying every committed mutation,
    /// and a checkpoint that makes the result durable and truncates
    /// the log. The whole sweep is idempotent: reopening twice yields
    /// identical state.
    ///
    /// One open catalog per root: while this catalog lives, another
    /// open of `root` — from this process or any other — fails with
    /// [`StorageError::RootInUse`].
    pub fn open_with(root: impl Into<PathBuf>, opts: CatalogOptions) -> Result<Catalog> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let root_lock = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(root.join(LOCK_FILE))?;
        match root_lock.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => return Err(StorageError::RootInUse(root)),
            Err(fs::TryLockError::Error(e)) => return Err(e.into()),
        }
        let mut versions = HashMap::new();
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with('.') {
                // Hidden directories (the WAL lives in `.wal`) are
                // never TLFs — `validate_name` refuses the prefix.
                continue;
            }
            let mut vs = Vec::new();
            for f in fs::read_dir(entry.path())? {
                let f = f?;
                let file_name = f.file_name().to_string_lossy().to_string();
                if durable::is_tmp_name(&file_name) {
                    // Debris from an interrupted publish; the rename
                    // never happened, so nothing references it. A
                    // concurrent cleaner may beat us to the unlink,
                    // but any other failure (e.g. a read-only root)
                    // would break the upcoming writes too — surface
                    // it now instead of at the first publish.
                    if let Err(e) = fs::remove_file(f.path()) {
                        if e.kind() != io::ErrorKind::NotFound {
                            return Err(e.into());
                        }
                    }
                    continue;
                }
                if let Some(v) = parse_metadata_name(&file_name) {
                    if metadata_is_valid(&f.path(), v) {
                        vs.push(v);
                    }
                }
            }
            if !vs.is_empty() {
                vs.sort_unstable();
                versions.insert(name, vs);
            }
        }
        let (wal, replay, checkpoint_bytes) = match opts.durability {
            Durability::PerPublish => (None, Vec::new(), 0),
            Durability::Wal { group_window, segment_bytes, checkpoint_bytes } => {
                let (w, ops) =
                    Wal::open(&root.join(WAL_DIR), WalOptions { group_window, segment_bytes })?;
                (Some(w), ops, checkpoint_bytes)
            }
        };
        let cat = Catalog {
            root,
            versions: RwLock::new(versions),
            overlay: RwLock::new(HashMap::new()),
            reserved: Mutex::new(Reservations::default()),
            wal,
            apply_gate: RwLock::new(()),
            ck_lock: Mutex::new(()),
            checkpoint_bytes,
            _root_lock: root_lock,
        };
        for op in replay {
            cat.apply_replayed(op)?;
        }
        if cat.wal.is_some() {
            cat.checkpoint()?;
        }
        Ok(cat)
    }

    /// Re-applies one replayed WAL record during recovery.
    fn apply_replayed(&self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Publish { name, version, meta } => {
                let file = MetadataFile::from_bytes(&meta).map_err(|e| {
                    StorageError::Corrupt(format!(
                        "wal publish record for {name} v{version} does not parse: {e}"
                    ))
                })?;
                if file.version != version {
                    return Err(StorageError::Corrupt(format!(
                        "wal publish record for {name} v{version} claims version {}",
                        file.version
                    )));
                }
                validate_name(&name)?;
                self.make_visible(&name, version, file);
                Ok(())
            }
            WalOp::Drop { name } => {
                validate_name(&name)?;
                self.versions.write().remove(&name);
                self.overlay.write().retain(|(n, _), _| n != &name);
                match fs::remove_dir_all(self.dir_of(&name)) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All TLF names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.versions.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    pub fn exists(&self, name: &str) -> bool {
        self.versions.read().contains_key(name)
    }

    /// Latest committed version of `name`.
    pub fn latest_version(&self, name: &str) -> Result<u64> {
        self.versions
            .read()
            .get(name)
            .and_then(|v| v.last().copied())
            .ok_or_else(|| StorageError::UnknownTlf(name.to_string()))
    }

    /// All committed versions of `name`, ascending.
    pub fn all_versions(&self, name: &str) -> Result<Vec<u64>> {
        self.versions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTlf(name.to_string()))
    }

    fn dir_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Reserves the next version number for `name` (above the
    /// committed tip, any in-flight reservation and every version the
    /// name reached before a `DROP`).
    fn reserve_version(&self, name: &str) -> u64 {
        let committed =
            self.versions.read().get(name).and_then(|v| v.last().copied()).unwrap_or(0);
        let mut res = self.reserved.lock();
        let v = committed.max(res.live_or_dropped(name)) + 1;
        res.live.insert(name.to_string(), v);
        v
    }

    /// Releases a reservation after a failed publish (only if no
    /// later store stacked a higher one on top).
    fn release_reservation(&self, name: &str, version: u64) {
        let mut res = self.reserved.lock();
        if res.live.get(name) == Some(&version) {
            res.live.remove(name);
        }
    }

    /// `CREATE`: registers a new, empty TLF (a copy of Ω — no tracks)
    /// as its first version: 1, or one above the versions a dropped
    /// TLF of the same name reached.
    pub fn create(&self, name: &str, tlf: TlfDescriptor) -> Result<u64> {
        validate_name(name)?;
        let version = {
            let committed = self.versions.read().contains_key(name);
            let mut res = self.reserved.lock();
            if committed || res.live.contains_key(name) {
                return Err(StorageError::AlreadyExists(name.to_string()));
            }
            let v = res.live_or_dropped(name) + 1;
            res.live.insert(name.to_string(), v);
            v
        };
        let result = (|| {
            let dir = self.dir_of(name);
            fs::create_dir_all(&dir)?;
            let file =
                MetadataFile::new(version, Vec::new(), tlf).map_err(StorageError::Container)?;
            self.commit_publish(name, version, file, &dir)
        })();
        match result {
            Ok(()) => Ok(version),
            Err(e) => {
                self.release_reservation(name, version);
                Err(e)
            }
        }
    }

    /// `DROP`: removes the TLF and deletes its content from disk. In
    /// WAL mode the `Drop` record is the commit point; the directory
    /// removal after it is re-applied by recovery if interrupted.
    pub fn drop_tlf(&self, name: &str) -> Result<()> {
        let Some(wal) = &self.wal else {
            let mut versions = self.versions.write();
            let Some(dropped) = versions.remove(name) else {
                return Err(StorageError::UnknownTlf(name.to_string()));
            };
            self.reserved.lock().retire(name, &dropped);
            fs::remove_dir_all(self.dir_of(name))?;
            return Ok(());
        };
        let _ck = self.ck_lock.lock();
        if !self.versions.read().contains_key(name) {
            return Err(StorageError::UnknownTlf(name.to_string()));
        }
        let _gate = self.apply_gate.read();
        wal.commit(&WalOp::Drop { name: name.to_string() }).map_err(StorageError::Io)?;
        // Committed: converge in-memory state before touching disk so
        // a failure below cannot leave the name half-visible.
        let dropped = self.versions.write().remove(name).unwrap_or_default();
        self.overlay.write().retain(|(n, _), _| n != name);
        self.reserved.lock().retire(name, &dropped);
        faults::fail_point(sites::CATALOG_DROP_APPLY).map_err(StorageError::Io)?;
        match fs::remove_dir_all(self.dir_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Reads a TLF version (latest when `version` is `None`).
    pub fn read(&self, name: &str, version: Option<u64>) -> Result<StoredTlf> {
        let v = match version {
            Some(v) => {
                if !self.all_versions(name)?.contains(&v) {
                    return Err(StorageError::UnknownVersion { name: name.to_string(), version: v });
                }
                v
            }
            None => self.latest_version(name)?,
        };
        let dir = self.dir_of(name);
        // Committed-but-not-checkpointed versions live in the overlay
        // (their on-disk file may not exist yet, or not durably).
        if let Some(meta) = self.overlay.read().get(&(name.to_string(), v)) {
            return Ok(StoredTlf {
                name: name.to_string(),
                version: v,
                metadata: Arc::clone(meta),
                dir,
            });
        }
        let bytes = fs::read(dir.join(metadata_name(v)))?;
        let metadata = MetadataFile::from_bytes(&bytes)?;
        if metadata.version != v {
            return Err(StorageError::Corrupt(format!(
                "metadata file for {name} v{v} claims version {}",
                metadata.version
            )));
        }
        Ok(StoredTlf { name: name.to_string(), version: v, metadata: Arc::new(metadata), dir })
    }

    /// `STORE`: commits a new version of `name`. New tracks are
    /// materialised as fresh media files; `Existing` tracks keep their
    /// pointers (unmodified video data is never rewritten). Creates
    /// the TLF if it does not yet exist.
    ///
    /// Media files are written and made durable *before* the commit
    /// point (the WAL record's group-commit fsync, or in per-publish
    /// mode the metadata rename), so an acknowledged version is fully
    /// readable and an unacknowledged one leaves only unreferenced
    /// media behind.
    pub fn store(&self, name: &str, tracks: Vec<TrackWrite>, tlf: TlfDescriptor) -> Result<u64> {
        validate_name(name)?;
        let dir = self.dir_of(name);
        fs::create_dir_all(&dir)?;
        let new_version = self.reserve_version(name);
        let result = self.store_inner(name, new_version, tracks, tlf, &dir);
        if result.is_err() {
            self.release_reservation(name, new_version);
        }
        result
    }

    fn store_inner(
        &self,
        name: &str,
        new_version: u64,
        tracks: Vec<TrackWrite>,
        tlf: TlfDescriptor,
        dir: &Path,
    ) -> Result<u64> {
        let media = MediaStore::new(dir.to_path_buf());
        let mut out_tracks = Vec::with_capacity(tracks.len());
        for (i, tw) in tracks.into_iter().enumerate() {
            match tw {
                TrackWrite::Existing(t) => {
                    if !media.exists(&t.media_path) {
                        return Err(StorageError::Corrupt(format!(
                            "existing track points at missing media {}",
                            t.media_path
                        )));
                    }
                    out_tracks.push(t);
                }
                TrackWrite::New { role, projection, stream } => {
                    let media_path = format!("stream{new_version}_{i}.lvc");
                    media.write_stream(&media_path, &stream)?;
                    out_tracks.push(Track {
                        role,
                        codec: stream.header.codec,
                        projection,
                        media_path,
                        gop_index: Track::index_stream(&stream),
                    });
                }
            }
        }
        let file = MetadataFile::new(new_version, out_tracks, tlf)
            .map_err(StorageError::Container)?;
        self.commit_publish(name, new_version, file, dir)?;
        Ok(new_version)
    }

    /// Commits one metadata version: WAL record + group-commit fsync
    /// (the overlay serves reads until a checkpoint materialises the
    /// file), or — in per-publish mode — a full tmp/fsync/rename
    /// publish.
    fn commit_publish(
        &self,
        name: &str,
        version: u64,
        file: MetadataFile,
        dir: &Path,
    ) -> Result<()> {
        let meta_bytes = file.to_bytes();
        let Some(wal) = &self.wal else {
            // Per-publish: the metadata rename is the commit point;
            // the write lock orders publishes exactly as before.
            let mut versions = self.versions.write();
            write_atomically(&dir.join(metadata_name(version)), &meta_bytes)?;
            let e = versions.entry(name.to_string()).or_default();
            if !e.contains(&version) {
                e.push(version);
                e.sort_unstable();
            }
            return Ok(());
        };
        {
            let _gate = self.apply_gate.read();
            wal.commit(&WalOp::Publish {
                name: name.to_string(),
                version,
                meta: meta_bytes,
            })
            .map_err(StorageError::Io)?;
            // Committed. Make it visible before the ack returns.
            self.make_visible(name, version, file);
        }
        if self.checkpoint_bytes > 0 && wal.log_bytes() >= self.checkpoint_bytes {
            // Also best-effort: the WAL still holds everything.
            let _ = self.checkpoint();
        }
        Ok(())
    }

    /// Makes a WAL-committed version readable: its metadata goes into
    /// the overlay *before* its number joins the version list. An
    /// unversioned read resolves "latest" from the list and then looks
    /// the metadata up, so the other order lets it fall between the
    /// two and go looking for a metadata file no checkpoint has
    /// written yet.
    fn make_visible(&self, name: &str, version: u64, file: MetadataFile) {
        self.overlay.write().insert((name.to_string(), version), Arc::new(file));
        let mut versions = self.versions.write();
        let e = versions.entry(name.to_string()).or_default();
        if !e.contains(&version) {
            e.push(version);
            e.sort_unstable();
        }
    }

    /// Durably materialises every overlay version (crash-consistent
    /// tmp/fsync/rename each), fsyncs the root directory, truncates
    /// the WAL up to the captured sequence number, and drains the
    /// overlay. A no-op without a WAL or when the log is empty.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let _ck = self.ck_lock.lock();
        let (cut, snapshot) = {
            let _gate = self.apply_gate.write();
            (wal.written_seq(), self.overlay.read().clone())
        };
        if snapshot.is_empty() && wal.log_bytes() == 0 {
            return Ok(());
        }
        let mut entries: Vec<(&(String, u64), &Arc<MetadataFile>)> = snapshot.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for ((name, version), meta) in entries {
            let dir = self.dir_of(name);
            fs::create_dir_all(&dir)?;
            write_atomically(&dir.join(metadata_name(*version)), &meta.to_bytes())?;
        }
        // TLF directory creations and drop unlinks live in the root
        // directory; they must be durable before the records that
        // would replay them are thrown away.
        faults::fail_point(sites::CATALOG_DIR_SYNC).map_err(StorageError::Io)?;
        durable::sync_dir(&self.root)?;
        wal.truncate_up_to(cut).map_err(StorageError::Io)?;
        self.overlay.write().retain(|k, _| !snapshot.contains_key(k));
        Ok(())
    }

    /// Writes an auxiliary (index) file into the TLF's directory.
    pub fn write_aux_file(&self, name: &str, file_name: &str, bytes: &[u8]) -> Result<()> {
        if !self.exists(name) {
            return Err(StorageError::UnknownTlf(name.to_string()));
        }
        write_atomically(&self.dir_of(name).join(file_name), bytes)
    }

    /// Reads an auxiliary (index) file, or `None` when absent.
    pub fn read_aux_file(&self, name: &str, file_name: &str) -> Result<Option<Vec<u8>>> {
        let p = self.dir_of(name).join(file_name);
        match fs::read(p) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Removes an auxiliary (index) file; returns whether it existed.
    pub fn remove_aux_file(&self, name: &str, file_name: &str) -> Result<bool> {
        let p = self.dir_of(name).join(file_name);
        match fs::remove_file(p) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

fn metadata_name(version: u64) -> String {
    format!("metadata{version}.mp4")
}

fn parse_metadata_name(name: &str) -> Option<u64> {
    name.strip_prefix("metadata")?.strip_suffix(".mp4")?.parse().ok()
}

/// True when the metadata file at `path` parses and claims the
/// version its name implies — the recovery sweep's publish check.
fn metadata_is_valid(path: &Path, version: u64) -> bool {
    match fs::read(path) {
        Ok(bytes) => {
            MetadataFile::from_bytes(&bytes).map(|m| m.version == version).unwrap_or(false)
        }
        Err(_) => false,
    }
}

fn validate_name(name: &str) -> Result<()> {
    if name.is_empty()
        || name.contains(['/', '\\', '\0'])
        || name.starts_with('.')
        || name.len() > 255
    {
        return Err(StorageError::Corrupt(format!("invalid TLF name {name:?}")));
    }
    Ok(())
}

/// Publishes `bytes` at `path` crash-consistently: hidden temp file →
/// `sync_all` → atomic rename → directory fsync. A failure at any
/// step removes the temp file and leaves `path` untouched.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().ok_or_else(|| {
        StorageError::Corrupt(format!("metadata path {path:?} has no parent directory"))
    })?;
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .ok_or_else(|| StorageError::Corrupt(format!("metadata path {path:?} has no file name")))?;
    let mut bytes = bytes.to_vec();
    faults::mangle(sites::CATALOG_WRITE_BYTES, &mut bytes);
    let tmp = dir.join(durable::tmp_name(&file_name));
    let guard = TmpGuard::new(tmp.clone());
    durable::write_durable(&tmp, &bytes, sites::CATALOG_TMP_WRITE, sites::CATALOG_TMP_SYNC)?;
    durable::publish(&tmp, path, dir, sites::CATALOG_PUBLISH_RENAME, sites::CATALOG_DIR_SYNC)?;
    guard.disarm();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_frame::{Frame, Yuv};
    use lightdb_geom::{Interval, Point3};

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-cat-{tag}-{}", std::process::id()));
        match fs::remove_dir_all(&d) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("failed to clear temp dir {}: {e}", d.display()),
        }
        d
    }

    fn sphere_tlfd(track: u32) -> TlfDescriptor {
        TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 1.0), track)
    }

    fn empty_tlfd() -> TlfDescriptor {
        TlfDescriptor {
            body: lightdb_container::TlfBody::Sphere360 { points: vec![] },
            ..sphere_tlfd(0)
        }
    }

    fn tiny_stream() -> VideoStream {
        let frames = vec![Frame::filled(32, 32, Yuv::GREY); 2];
        Encoder::new(EncoderConfig { gop_length: 2, qp: 40, ..Default::default() })
            .unwrap()
            .encode(&frames)
            .unwrap()
    }

    #[test]
    fn create_read_drop_lifecycle() {
        let cat = Catalog::open(temp_root("lifecycle")).unwrap();
        assert!(!cat.exists("demo"));
        cat.create("demo", empty_tlfd()).unwrap();
        assert!(cat.exists("demo"));
        assert_eq!(cat.latest_version("demo").unwrap(), 1);
        let stored = cat.read("demo", None).unwrap();
        assert_eq!(stored.version, 1);
        assert!(stored.metadata.tracks.is_empty());
        cat.drop_tlf("demo").unwrap();
        assert!(!cat.exists("demo"));
        assert!(cat.read("demo", None).is_err());
        fs::remove_dir_all(cat.root()).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let cat = Catalog::open(temp_root("dup")).unwrap();
        cat.create("demo", empty_tlfd()).unwrap();
        assert!(matches!(
            cat.create("demo", empty_tlfd()),
            Err(StorageError::AlreadyExists(_))
        ));
        fs::remove_dir_all(cat.root()).unwrap();
    }

    #[test]
    fn store_increments_versions_and_keeps_old() {
        let cat = Catalog::open(temp_root("versions")).unwrap();
        let v1 = cat
            .store(
                "demo",
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream: tiny_stream(),
                }],
                sphere_tlfd(0),
            )
            .unwrap();
        assert_eq!(v1, 1);
        let v2 = cat
            .store(
                "demo",
                vec![TrackWrite::New {
                    role: TrackRole::Video,
                    projection: ProjectionKind::Equirectangular,
                    stream: tiny_stream(),
                }],
                sphere_tlfd(0),
            )
            .unwrap();
        assert_eq!(v2, 2);
        // Both versions remain readable (snapshot isolation substrate).
        assert_eq!(cat.read("demo", Some(1)).unwrap().version, 1);
        assert_eq!(cat.read("demo", Some(2)).unwrap().version, 2);
        assert_eq!(cat.read("demo", None).unwrap().version, 2);
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1, 2]);
        fs::remove_dir_all(cat.root()).unwrap();
    }

    #[test]
    fn store_reuses_existing_tracks_without_rewrite() {
        let cat = Catalog::open(temp_root("reuse")).unwrap();
        cat.store(
            "demo",
            vec![TrackWrite::New {
                role: TrackRole::Video,
                projection: ProjectionKind::Equirectangular,
                stream: tiny_stream(),
            }],
            sphere_tlfd(0),
        )
        .unwrap();
        let v1 = cat.read("demo", Some(1)).unwrap();
        let old_track = v1.metadata.tracks[0].clone();
        let old_path = old_track.media_path.clone();
        // New version pointing at the same media file.
        cat.store("demo", vec![TrackWrite::Existing(old_track)], sphere_tlfd(0)).unwrap();
        let v2 = cat.read("demo", Some(2)).unwrap();
        assert_eq!(v2.metadata.tracks[0].media_path, old_path);
        // Only one media file exists on disk.
        let media_files = fs::read_dir(&v2.dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".lvc")
            })
            .count();
        assert_eq!(media_files, 1);
        fs::remove_dir_all(cat.root()).unwrap();
    }

    #[test]
    fn reopen_recovers_catalog_state() {
        let root = temp_root("reopen");
        {
            let cat = Catalog::open(&root).unwrap();
            cat.create("a", empty_tlfd()).unwrap();
            cat.store("b", vec![], empty_tlfd()).unwrap();
            cat.store("b", vec![], empty_tlfd()).unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(cat.latest_version("b").unwrap(), 2);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn aux_files_roundtrip() {
        let cat = Catalog::open(temp_root("aux")).unwrap();
        cat.create("demo", empty_tlfd()).unwrap();
        assert_eq!(cat.read_aux_file("demo", "index1.xz").unwrap(), None);
        cat.write_aux_file("demo", "index1.xz", b"tree").unwrap();
        assert_eq!(cat.read_aux_file("demo", "index1.xz").unwrap().as_deref(), Some(&b"tree"[..]));
        assert!(cat.remove_aux_file("demo", "index1.xz").unwrap());
        assert!(!cat.remove_aux_file("demo", "index1.xz").unwrap());
        fs::remove_dir_all(cat.root()).unwrap();
    }

    #[test]
    fn reopen_sweeps_tmp_files_and_ignores_torn_metadata() {
        let root = temp_root("sweep");
        {
            let cat = Catalog::open(&root).unwrap();
            cat.store("demo", vec![], empty_tlfd()).unwrap();
            cat.store("demo", vec![], empty_tlfd()).unwrap();
            // Materialise the metadata files so a torn copy of one can
            // be fabricated below.
            cat.checkpoint().unwrap();
        }
        let dir = root.join("demo");
        // Simulate an interrupted publish: an orphaned temp file plus
        // a torn (truncated) metadata file for a version 3 that never
        // committed.
        fs::write(dir.join(".metadata3.mp4.tmp"), b"partial").unwrap();
        let v2 = fs::read(dir.join("metadata2.mp4")).unwrap();
        fs::write(dir.join("metadata3.mp4"), &v2[..v2.len() / 2]).unwrap();
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1, 2], "torn version must be ignored");
        assert!(!dir.join(".metadata3.mp4.tmp").exists(), "tmp debris must be swept");
        // The next STORE must be able to commit (reusing slot 3).
        let v = cat.store("demo", vec![], empty_tlfd()).unwrap();
        assert_eq!(v, 3);
        assert_eq!(cat.read("demo", Some(3)).unwrap().version, 3);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn failed_commit_leaves_old_version_intact() {
        faults::reset();
        let cat = Catalog::open(temp_root("pubfail")).unwrap();
        cat.store("demo", vec![], empty_tlfd()).unwrap();
        // Kill the WAL append — the commit point — of the next store.
        faults::arm_n(sites::WAL_APPEND_WRITE, faults::Fault::Enospc, 1);
        assert!(cat.store("demo", vec![], empty_tlfd()).is_err());
        faults::reset();
        // In-memory and on-disk state still agree on version 1 only.
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1]);
        let root = cat.root().to_path_buf();
        drop(cat);
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1]);
        // The failing handle stays usable: a clean retry commits v2.
        faults::arm_n(sites::WAL_APPEND_WRITE, faults::Fault::Enospc, 1);
        assert!(cat.store("demo", vec![], empty_tlfd()).is_err());
        faults::reset();
        assert_eq!(cat.store("demo", vec![], empty_tlfd()).unwrap(), 2);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn committed_version_survives_reopen_without_checkpoint() {
        faults::reset();
        let root = temp_root("walvisible");
        {
            let cat = Catalog::open(&root).unwrap();
            // Before any checkpoint the version exists only in the WAL
            // and the overlay — no metadata file is written at commit.
            cat.store("demo", vec![], empty_tlfd()).unwrap();
            assert!(
                !root.join("demo").join("metadata1.mp4").exists(),
                "commits must not materialise metadata files"
            );
            // The committed version is still readable via the overlay.
            assert_eq!(cat.read("demo", None).unwrap().version, 1);
        }
        // Recovery replays the WAL; the checkpoint then materialises
        // the metadata file the crash window never wrote.
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1]);
        assert!(root.join("demo").join("metadata1.mp4").exists());
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn per_publish_mode_still_works() {
        let opts = CatalogOptions { durability: Durability::PerPublish };
        let root = temp_root("perpub");
        {
            let cat = Catalog::open_with(&root, opts.clone()).unwrap();
            cat.store("demo", vec![], empty_tlfd()).unwrap();
            cat.store("demo", vec![], empty_tlfd()).unwrap();
            assert_eq!(cat.read("demo", None).unwrap().version, 2);
        }
        assert!(!root.join(WAL_DIR).exists(), "per-publish mode must not create a WAL");
        // A WAL-mode open of the same root sees the same state.
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.all_versions("demo").unwrap(), vec![1, 2]);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_drains_overlay() {
        let root = temp_root("ckpt");
        let cat = Catalog::open(&root).unwrap();
        for _ in 0..3 {
            cat.store("demo", vec![], empty_tlfd()).unwrap();
        }
        assert!(cat.overlay.read().len() == 3);
        cat.checkpoint().unwrap();
        assert!(cat.overlay.read().is_empty(), "checkpoint must drain the overlay");
        // All versions still read (from disk now).
        for v in 1..=3 {
            assert_eq!(cat.read("demo", Some(v)).unwrap().version, v);
        }
        // A reopen finds an empty log and identical state.
        drop(cat);
        let cat2 = Catalog::open(&root).unwrap();
        assert_eq!(cat2.all_versions("demo").unwrap(), vec![1, 2, 3]);
        assert!(cat2.overlay.read().is_empty());
        fs::remove_dir_all(root).unwrap();
    }

    /// PR 11 finding 1: an unversioned read beside a busy publisher
    /// must never fall between "version listed" and "metadata
    /// reachable". Every resolution of "latest" reads a fully-formed
    /// version, versions only move forward, and the small checkpoint
    /// threshold also moves versions from overlay to disk under the
    /// reader's feet.
    #[test]
    fn latest_resolves_beside_a_busy_publisher() {
        const PUBLISHES: u64 = 5_000;
        let root = temp_root("latestrace");
        let opts = CatalogOptions {
            durability: Durability::Wal {
                group_window: Duration::ZERO,
                segment_bytes: 8 << 20,
                checkpoint_bytes: 64 << 10,
            },
        };
        let cat = Catalog::open_with(&root, opts).unwrap();
        cat.store("demo", vec![], empty_tlfd()).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut reads, mut last) = (0u64, 0u64);
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let stored = cat.read("demo", None).expect("latest must always resolve");
                    assert_eq!(stored.metadata.version, stored.version, "half-formed version");
                    assert!(stored.version >= last, "latest went backwards");
                    last = stored.version;
                    reads += 1;
                }
                reads
            });
            for _ in 0..PUBLISHES {
                cat.store("demo", vec![], empty_tlfd()).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(cat.read("demo", None).unwrap().version, PUBLISHES + 1);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn hostile_names_rejected() {
        let cat = Catalog::open(temp_root("names")).unwrap();
        for bad in ["", "../escape", "a/b", ".hidden"] {
            assert!(cat.create(bad, empty_tlfd()).is_err(), "{bad:?} accepted");
        }
        fs::remove_dir_all(cat.root()).unwrap();
    }
}
