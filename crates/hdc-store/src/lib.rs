//! Durability for the serving runtime: a segmented write-ahead log, atomic
//! snapshot installation and a paged item-memory backend.
//!
//! Three layers, composable from the bottom up:
//!
//! * [`Wal`] — an append-only segmented log of [`WalRecord`]s
//!   (`insert`/`remove`/`fit`/`fit_value`), one CRC-protected frame per
//!   record, rotated into segment files at a size threshold and cut at
//!   every snapshot's cover point. Replay tolerates a torn
//!   tail in the **last** segment (the write the crash interrupted) by
//!   truncating to the longest valid prefix; corruption anywhere earlier is
//!   loud — those records were acknowledged and must not be silently
//!   dropped.
//! * [`Store`] — the recovery orchestrator: a `MANIFEST` (written
//!   atomically via tmp+rename) names the newest installed snapshot and the
//!   log sequence number it covers, [`Store::open`] hands back the snapshot
//!   bytes plus every record logged at or after that point, and the
//!   [`SnapshotInstaller`] half installs new snapshots off the serving
//!   threads and garbage-collects the segments they retire.
//! * [`ItemStore`] / [`PagedStore`] — the tiered item memory: a trait over
//!   keyed hypervector storage with an in-RAM [`ResidentStore`] default and
//!   a file-backed implementation that pages fixed-size hypervector slots
//!   by key with an LRU-cached hot set, so resident memory is bounded by
//!   the cache budget instead of key cardinality.
//!
//! The crate deliberately knows nothing about models or pipelines: snapshot
//! payloads are opaque bytes (framed and CRC-protected here, interpreted by
//! the serving crate), and the only identity carried end to end is the
//! caller's 64-bit spec digest, checked on every segment header so a log
//! can never replay into a model with a different spec.
//!
//! [`codec`] holds the binary conventions every durable format in the
//! workspace shares, the serving crate's wire, spec and snapshot formats
//! included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod compress;
mod group_commit;
mod paged;
mod record;
mod store;
mod wal;

pub use group_commit::{GroupAck, GroupCommitConfig, GroupCommitWal};
pub use paged::{ItemStore, PagedStore, ResidentStore};
pub use record::{crc32, WalRecord};
pub use store::{
    atomic_write, Recovery, SnapshotInstaller, Store, MANIFEST_MAGIC, SNAPSHOT_BLOB_MAGIC,
};
pub use wal::{Wal, DEFAULT_SEGMENT_BYTES, SEGMENT_MAGIC, SEGMENT_VERSION};

use std::path::PathBuf;

/// When appended log records reach the platters.
///
/// A serving runtime appends through the [`GroupCommitWal`], and the
/// policy decides whether its acknowledgements wait for a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// One `fdatasync` per flush group. A runtime acknowledges each fit,
    /// insert and remove after one group `fdatasync` covers its record;
    /// with the paged item plane it also fsyncs the item files before it
    /// acknowledges an insert or a remove. The raw [`Wal`] syncs when its
    /// caller invokes [`Wal::sync`]. The default.
    #[default]
    EveryBatch,
    /// Never `fsync`; the OS page cache decides. Appends still reach the
    /// kernel immediately (a SIGKILL loses nothing, a power cut may), so
    /// this is the honest baseline for measuring WAL overhead.
    Never,
}

/// Tuning of the write-ahead log itself — the slice of
/// [`DurabilityConfig`] that [`Store::open`] threads down to
/// [`Wal::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// When appended records are `fsync`ed.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync: SyncPolicy::default(),
        }
    }
}

/// Configuration of the durability subsystem a serving runtime opens at
/// spawn. Everything lives under one directory: WAL segments, installed
/// snapshots, the `MANIFEST`, and (when [`page_cache`](Self::page_cache)
/// is set) the paged item-memory files under `items/`. Log records are
/// always written with the adaptive per-record codec (see [`Wal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory of the store (created if missing).
    pub dir: PathBuf,
    /// Segment rotation threshold in bytes. A segment also ends at every
    /// snapshot's cover point (see [`Wal::cut`]), so with snapshots on this
    /// only bounds segments between two snapshots.
    pub segment_bytes: u64,
    /// Log records between automatic background snapshots; `0` disables
    /// periodic snapshotting (recovery then replays the whole log). Every
    /// snapshot starts a segment of its own, and installing it deletes the
    /// segments it covers, so recovery reads and replays about this many
    /// records at most, whatever the segment size.
    pub snapshot_every: u64,
    /// When appended records are `fsync`ed.
    pub sync: SyncPolicy,
    /// `Some(budget)` switches the runtime's item memory to the paged
    /// file-backed [`PagedStore`] with at most `budget` hypervectors
    /// resident in its LRU cache; `None` keeps items in RAM.
    pub page_cache: Option<usize>,
}

impl DurabilityConfig {
    /// A store rooted at `dir` with default tuning: 4 MiB segments,
    /// a background snapshot every 4096 records, one `fsync` per
    /// flush group, in-RAM item memory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: 4096,
            sync: SyncPolicy::EveryBatch,
            page_cache: None,
        }
    }

    /// The WAL slice of this configuration, as [`Store::open`] wants it.
    #[must_use]
    pub fn wal_config(&self) -> WalConfig {
        WalConfig {
            segment_bytes: self.segment_bytes,
            sync: self.sync,
        }
    }

    /// The group-commit slice of this configuration, as
    /// [`GroupCommitWal::new`] wants it. The flusher has no settings left
    /// (see [`GroupCommitConfig`]); this stays so callers that build a
    /// [`GroupCommitWal`] from a `DurabilityConfig` keep compiling.
    #[must_use]
    pub fn group_commit_config(&self) -> GroupCommitConfig {
        GroupCommitConfig
    }
}
