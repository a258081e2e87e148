//! # lightdb-storage
//!
//! LightDB's storage manager. Each TLF lives in its own directory:
//!
//! ```text
//! <root>/<name>/
//!   metadata1.mp4     one small MP4-style metadata file per version
//!   metadata2.mp4
//!   stream2_0.lvc     encoded media, written once, shared by versions
//!   index2.xz         external spatial indexes
//! ```
//!
//! Writes are **no-overwrite**: a `STORE` materialises only modified
//! tracks as new media files, points unchanged tracks at the existing
//! files, and atomically publishes a new `metadata<N>.mp4`. Readers
//! pin a version (snapshot isolation); `SCAN` without an explicit
//! version sees the latest committed one.
//!
//! The in-memory *TLF cache* ([`bufferpool`]) is a GOP-granularity LRU
//! buffer pool over encoded media plus the loaded spatial R-trees;
//! parsed metadata comes from the catalog (its overlay holds the
//! versions the WAL has committed).
//!
//! ## Failure model
//!
//! Every durable file is published crash-consistently (module
//! [`durable`]): contents go to a hidden `.<name>.tmp` file in the
//! destination directory, are `sync_all`ed, then atomically renamed
//! into place, and the directory itself is fsynced. During `STORE`,
//! media files are published (and durable) *before* the commit point,
//! which by default is the group-commit fsync of a write-ahead-log
//! record (module [`wal`]; metadata files are only written at
//! checkpoint, and an in-memory overlay serves reads until then) — a
//! crash anywhere leaves the previous version fully intact and the
//! new version either absent or complete. [`Catalog::open`] recovers
//! by sweeping orphaned `*.tmp` files, ignoring metadata versions
//! that do not parse, replaying the WAL (healing a torn tail,
//! refusing mid-log corruption), and checkpointing — so a second open
//! is a no-op. One open catalog per root: an open catalog holds an
//! exclusive lock on `<root>/.lock`, and a second open of a live root
//! fails with [`StorageError::RootInUse`] instead of checkpointing and
//! truncating the live catalog's log.
//!
//! Encoded media carries a per-GOP IEEE CRC-32 in the GOP index
//! (`lightdb_container::checksum`; digest `0` = unchecked legacy
//! entry) that is re-verified on every buffer-pool load, so silent
//! corruption is detected below the codec. Transient read errors
//! (`Interrupted`, `WouldBlock`, `TimedOut`) are retried with bounded
//! exponential backoff. The [`faults`] module provides the
//! fault-injection failpoints that exercise all of this in tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod bufferpool;
pub mod catalog;
mod durable;
pub mod faults;
pub mod lru;
pub mod media;
pub mod snapshot;
pub mod wal;

pub use bufferpool::{AdmitError, AdmitPolicy, Admission, BufferPool, PoolStats};
use lightdb_core::ErrorClass;
pub use catalog::{Catalog, CatalogOptions, Durability, StoredTlf, TrackWrite};
pub use media::MediaStore;
pub use snapshot::Snapshot;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    Io(std::io::Error),
    Container(lightdb_container::ContainerError),
    Codec(lightdb_codec::CodecError),
    UnknownTlf(String),
    UnknownVersion { name: String, version: u64 },
    AlreadyExists(String),
    Corrupt(String),
    /// A GOP's bytes failed CRC-32 verification on load.
    ChecksumMismatch {
        media_path: String,
        /// Byte offset of the corrupt GOP within the media file.
        byte_offset: u64,
        expected: u32,
        actual: u32,
    },
    /// Another open catalog already holds this root's lock.
    RootInUse(std::path::PathBuf),
}

impl StorageError {
    /// Maps this error onto the engine-wide taxonomy
    /// ([`lightdb_core::ErrorClass`]). Retry, skip and degrade
    /// decisions are made against the class, not the variant.
    pub fn classify(&self) -> ErrorClass {
        match self {
            StorageError::Io(e) => ErrorClass::of_io_kind(e.kind()),
            StorageError::ChecksumMismatch { .. }
            | StorageError::Corrupt(_)
            | StorageError::Container(_)
            | StorageError::Codec(_) => ErrorClass::Corrupt,
            StorageError::UnknownTlf(_)
            | StorageError::UnknownVersion { .. }
            | StorageError::AlreadyExists(_) => ErrorClass::Fatal,
            // The data is intact; another live owner holds it.
            StorageError::RootInUse(_) => ErrorClass::Unavailable,
        }
    }

    /// True for errors that mean *this piece of data is damaged*
    /// (rather than the whole operation being impossible) — a scan
    /// running under a skip-corruption read policy may skip the
    /// affected GOP and continue. `Io` errors are never corruption
    /// here: a damaged GOP always surfaces as a structured variant
    /// (`ChecksumMismatch` / `Corrupt` / `Container` / `Codec`).
    pub fn is_data_corruption(&self) -> bool {
        !matches!(self, StorageError::Io(_)) && self.classify() == ErrorClass::Corrupt
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io: {e}"),
            StorageError::Container(e) => write!(f, "container: {e}"),
            StorageError::Codec(e) => write!(f, "codec: {e}"),
            StorageError::UnknownTlf(n) => write!(f, "unknown TLF: {n}"),
            StorageError::UnknownVersion { name, version } => {
                write!(f, "unknown version {version} of TLF {name}")
            }
            StorageError::AlreadyExists(n) => write!(f, "TLF already exists: {n}"),
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StorageError::RootInUse(root) => {
                write!(f, "catalog root {} is already open", root.display())
            }
            StorageError::ChecksumMismatch { media_path, byte_offset, expected, actual } => {
                write!(
                    f,
                    "checksum mismatch in {media_path} at byte {byte_offset}: \
                     expected {expected:#010x}, got {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<lightdb_container::ContainerError> for StorageError {
    fn from(e: lightdb_container::ContainerError) -> Self {
        StorageError::Container(e)
    }
}

impl From<lightdb_codec::CodecError> for StorageError {
    fn from(e: lightdb_codec::CodecError) -> Self {
        StorageError::Codec(e)
    }
}

pub type Result<T> = std::result::Result<T, StorageError>;
