//! Durability for the serving runtime: a segmented write-ahead log, atomic
//! snapshot installation and a paged item-memory backend.
//!
//! Three layers, composable from the bottom up:
//!
//! * [`Wal`] — an append-only segmented log of [`WalRecord`]s
//!   (`insert`/`remove`/`fit`/`fit_value`), one CRC-protected frame per
//!   record, rotated into fixed-size segment files. Replay tolerates a torn
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
//! The binary conventions mirror the serving crate's `codec`: big-endian
//! integers, length-prefixed UTF-8 keys, `u32`-dimension hypervectors with
//! clean-tail validation, and bounds-checked decoding whose preallocations
//! are clamped by the bytes actually present.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod compress;
mod group_commit;
mod paged;
mod record;
mod store;
mod wal;

pub use group_commit::{GroupAck, GroupCommitConfig, GroupCommitWal};
pub use paged::{ItemStore, PagedStore, ResidentStore};
pub use record::{crc32, WalRecord};
pub use store::{Recovery, SnapshotInstaller, Store, MANIFEST_MAGIC, SNAPSHOT_BLOB_MAGIC};
pub use wal::{Wal, DEFAULT_SEGMENT_BYTES, SEGMENT_MAGIC, SEGMENT_VERSION};

use std::path::PathBuf;

/// When appended log records reach the platters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended record. Strongest guarantee, one disk
    /// round-trip per record.
    Always,
    /// `fsync` once per micro-batch (the caller invokes [`Wal::sync`] at
    /// its batch boundary, amortizing one flush over every record and
    /// acknowledgement in the batch). The default.
    #[default]
    EveryBatch,
    /// Never `fsync`; the OS page cache decides. Appends still reach the
    /// kernel immediately (a SIGKILL loses nothing, a power cut may), so
    /// this is the honest baseline for measuring WAL overhead.
    Never,
}

/// How record frame payloads are encoded on disk, negotiated per segment
/// in the segment header (so mixed-codec logs replay unambiguously).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalCodec {
    /// Plain [`WalRecord`] payloads, exactly the pre-compression layout.
    Raw,
    /// Per-record adaptive compression: every payload carries a one-byte
    /// record codec choosing raw, sparse set/clear-bit, delta-against-a
    /// -recent-record, or word-wise RLE encoding of the hypervector —
    /// whichever measured smallest for that record. Level/circular
    /// pipelines produce low-density flip structure, so deltas between
    /// nearby records routinely collapse a `dim/8`-byte hypervector to a
    /// handful of varint gaps. The default.
    #[default]
    Adaptive,
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
    /// How record payloads are encoded in newly created segments.
    pub codec: WalCodec,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync: SyncPolicy::default(),
            codec: WalCodec::default(),
        }
    }
}

/// Configuration of the durability subsystem a serving runtime opens at
/// spawn. Everything lives under one directory: WAL segments, installed
/// snapshots, the `MANIFEST`, and (when [`page_cache`](Self::page_cache)
/// is set) the paged item-memory files under `items/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory of the store (created if missing).
    pub dir: PathBuf,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Log records between automatic background snapshots; `0` disables
    /// periodic snapshotting (recovery then replays the whole log).
    pub snapshot_every: u64,
    /// When appended records are `fsync`ed.
    pub sync: SyncPolicy,
    /// `Some(budget)` switches the runtime's item memory to the paged
    /// file-backed [`PagedStore`] with at most `budget` hypervectors
    /// resident in its LRU cache; `None` keeps items in RAM.
    pub page_cache: Option<usize>,
    /// How WAL record payloads are encoded in newly created segments.
    pub codec: WalCodec,
}

impl DurabilityConfig {
    /// A store rooted at `dir` with default tuning: 4 MiB segments,
    /// a background snapshot every 4096 records, one `fsync` per
    /// flush group, adaptive record compression, in-RAM item memory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: 4096,
            sync: SyncPolicy::EveryBatch,
            page_cache: None,
            codec: WalCodec::Adaptive,
        }
    }

    /// The WAL slice of this configuration, as [`Store::open`] wants it.
    #[must_use]
    pub fn wal_config(&self) -> WalConfig {
        WalConfig {
            segment_bytes: self.segment_bytes,
            sync: self.sync,
            codec: self.codec,
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
