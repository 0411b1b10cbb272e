//! The recovery orchestrator over one durability directory: `MANIFEST` +
//! installed snapshot blobs + WAL segments.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/MANIFEST              which snapshot is current, and from which
//!                             log sequence replay must start
//! <dir>/snap-{upto:016x}.hdcs one installed snapshot blob (opaque payload,
//!                             CRC-framed here)
//! <dir>/wal-{seq:016x}.log    WAL segments (see `wal`)
//! <dir>/items/                the paged item memory, when enabled
//! ```
//!
//! `MANIFEST` is `"HDCM"  u16 version  u64 spec_digest  u64 upto
//! u16-len snapshot-file-name  u32 crc32(everything before the crc)`,
//! written via tmp+rename so it is atomically either the old or the new
//! manifest. A snapshot blob is `"HDSN"  u16 version  u64 upto
//! u32 crc32(payload)  u64 payload-len  payload`.
//!
//! [`Store::open`] returns the [`Recovery`] (snapshot payload + records to
//! replay) and splits into the [`Wal`] append half (owned by the serving
//! dispatcher) and the [`SnapshotInstaller`] (owned by a background
//! snapshotter thread): installation touches only sealed segments and
//! atomically-replaced files, so the two halves need no lock between them.

use std::path::{Path, PathBuf};

use hdc_core::HdcError;

use crate::record::{crc32, WalRecord};
use crate::wal::{list_segments, storage, Wal};
use crate::WalConfig;

/// Magic bytes opening the `MANIFEST` file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"HDCM";
/// Magic bytes opening an installed snapshot blob.
pub const SNAPSHOT_BLOB_MAGIC: [u8; 4] = *b"HDSN";

const MANIFEST_VERSION: u16 = 1;
const SNAPSHOT_BLOB_VERSION: u16 = 1;

fn snapshot_name(upto: u64) -> String {
    format!("snap-{upto:016x}.hdcs")
}

/// What [`Store::open`] recovered: the newest installed snapshot's payload
/// (if any) and every record logged at or after the point that snapshot
/// covers, in log order. Applying the snapshot and then replaying the
/// records reproduces the last-acknowledged state bit-identically.
#[derive(Debug)]
pub struct Recovery {
    /// The installed snapshot's opaque payload, if one was installed.
    pub snapshot: Option<Vec<u8>>,
    /// Records to replay on top, in log order (sequence numbers are
    /// contiguous from the snapshot's cover point).
    pub records: Vec<WalRecord>,
}

/// The durability store over one directory, opened at runtime spawn and
/// split into its two independently-owned halves with
/// [`into_parts`](Store::into_parts).
#[derive(Debug)]
pub struct Store {
    wal: Wal,
    installer: SnapshotInstaller,
}

impl Store {
    /// Opens (creating if needed) the store in `dir`: reads the manifest,
    /// loads and CRC-checks the current snapshot blob, and replays the WAL
    /// from the snapshot's cover point.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure, a manifest or
    /// snapshot blob that fails its CRC, a spec-digest mismatch, or WAL
    /// corruption outside the last segment's tail.
    pub fn open(
        dir: impl Into<PathBuf>,
        spec_digest: u64,
        config: WalConfig,
    ) -> Result<(Self, Recovery), HdcError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| storage(&format!("creating {}", dir.display()), e))?;
        let manifest = read_manifest(&dir, spec_digest)?;
        let (snapshot, from_seq) = match manifest {
            Some((name, upto)) => {
                let payload = read_snapshot_blob(&dir.join(&name), upto)?;
                (Some(payload), upto)
            }
            None => (None, 0),
        };
        let (wal, replayed) = Wal::open(&dir, spec_digest, config, from_seq)?;
        let records = replayed.into_iter().map(|(_, record)| record).collect();
        Ok((
            Self {
                wal,
                installer: SnapshotInstaller { dir, spec_digest },
            },
            Recovery { snapshot, records },
        ))
    }

    /// Splits the store into the dispatcher-owned append half and the
    /// snapshotter-owned install half.
    #[must_use]
    pub fn into_parts(self) -> (Wal, SnapshotInstaller) {
        (self.wal, self.installer)
    }
}

/// The snapshot-installation half of a [`Store`]: writes snapshot blobs
/// and the manifest atomically (tmp+rename, `fsync`ed — snapshots are rare
/// enough that they always earn a real flush), then garbage-collects the
/// WAL segments and older snapshots the new one retires. Runs on a
/// background thread; never touches the active segment the [`Wal`] half is
/// appending to.
#[derive(Debug)]
pub struct SnapshotInstaller {
    dir: PathBuf,
    spec_digest: u64,
}

impl SnapshotInstaller {
    /// Installs `payload` as the snapshot covering every record below
    /// `upto`: blob write, manifest swap, then GC of retired segments and
    /// superseded snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure. GC failures after a
    /// successful manifest swap are not errors (the next install retries
    /// them); the snapshot itself is already durable.
    pub fn install(&self, payload: &[u8], upto: u64) -> Result<(), HdcError> {
        let name = snapshot_name(upto);
        let path = self.dir.join(&name);
        write_snapshot_blob(&path, payload, upto)?;
        self.write_manifest(&name, upto)?;
        // Both GC passes are best-effort by design: the manifest no longer
        // references any of these files, so a failure here only leaks disk
        // until the next install.
        let _ = self.collect_segments(upto);
        let _ = self.collect_snapshots(upto);
        Ok(())
    }

    fn write_manifest(&self, snapshot: &str, upto: u64) -> Result<(), HdcError> {
        let mut body = Vec::with_capacity(32 + snapshot.len());
        body.extend_from_slice(&MANIFEST_MAGIC);
        body.extend_from_slice(&MANIFEST_VERSION.to_be_bytes());
        body.extend_from_slice(&self.spec_digest.to_be_bytes());
        body.extend_from_slice(&upto.to_be_bytes());
        let name_len = u16::try_from(snapshot.len())
            .map_err(|_| HdcError::Storage("snapshot file name exceeds u16 bytes".into()))?;
        body.extend_from_slice(&name_len.to_be_bytes());
        body.extend_from_slice(snapshot.as_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        let path = self.dir.join("MANIFEST");
        atomic_write(&path, &body).map_err(|e| storage(&format!("writing {}", path.display()), e))
    }

    /// Deletes every sealed segment whose records all precede `upto` — a
    /// segment is retired when its *successor* starts at or below `upto`,
    /// which structurally protects the last (active) segment.
    fn collect_segments(&self, upto: u64) -> Result<(), HdcError> {
        let segments = list_segments(&self.dir)?;
        for window in segments.windows(2) {
            let (_, path) = &window[0];
            let (successor_first, _) = window[1];
            if successor_first <= upto {
                std::fs::remove_file(path)
                    .map_err(|e| storage(&format!("removing {}", path.display()), e))?;
            }
        }
        Ok(())
    }

    fn collect_snapshots(&self, upto: u64) -> Result<(), HdcError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| storage(&format!("listing {}", self.dir.display()), e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".hdcs"))
            else {
                continue;
            };
            if u64::from_str_radix(hex, 16).is_ok_and(|covered| covered < upto) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

/// Replaces the file at `path` with `bytes` atomically: a sibling
/// `<path>.tmp` is written and `fsync`ed, renamed over `path`, and the
/// parent directory is synced. After a crash or a power cut the file holds
/// either its old content or `bytes`, never a mix or an empty file, and
/// once this returns the new content survives a power cut.
///
/// # Errors
///
/// Returns the I/O error of the first step that failed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    std::io::Write::write_all(&mut file, bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// Syncs the directory `dir`, so the names of the files created in it or
/// renamed into it survive a power cut: a file's own `fsync` does not
/// cover its directory entry.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

fn write_snapshot_blob(path: &Path, payload: &[u8], upto: u64) -> Result<(), HdcError> {
    let mut buf = Vec::with_capacity(26 + payload.len());
    buf.extend_from_slice(&SNAPSHOT_BLOB_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_BLOB_VERSION.to_be_bytes());
    buf.extend_from_slice(&upto.to_be_bytes());
    buf.extend_from_slice(&crc32(payload).to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    buf.extend_from_slice(payload);
    atomic_write(path, &buf).map_err(|e| storage(&format!("writing {}", path.display()), e))
}

fn read_snapshot_blob(path: &Path, expected_upto: u64) -> Result<Vec<u8>, HdcError> {
    let bytes =
        std::fs::read(path).map_err(|e| storage(&format!("reading {}", path.display()), e))?;
    let fail = |reason: &str| HdcError::Storage(format!("{}: {reason}", path.display()));
    if bytes.len() < 26 {
        return Err(fail("truncated snapshot blob header"));
    }
    if bytes[..4] != SNAPSHOT_BLOB_MAGIC {
        return Err(fail("bad magic; not a snapshot blob"));
    }
    if bytes[4..6] != SNAPSHOT_BLOB_VERSION.to_be_bytes() {
        return Err(fail("unsupported snapshot blob version"));
    }
    let upto = u64::from_be_bytes(bytes[6..14].try_into().expect("8 bytes"));
    if upto != expected_upto {
        return Err(fail(
            "snapshot blob does not match the manifest's cover point",
        ));
    }
    let crc = u32::from_be_bytes(bytes[14..18].try_into().expect("4 bytes"));
    let len = u64::from_be_bytes(bytes[18..26].try_into().expect("8 bytes"));
    let payload = &bytes[26..];
    if len != payload.len() as u64 {
        return Err(fail("truncated snapshot blob payload"));
    }
    if crc32(payload) != crc {
        return Err(fail(
            "snapshot blob fails its CRC — refusing to restore from damaged state",
        ));
    }
    Ok(payload.to_vec())
}

/// Reads and validates the manifest; `Ok(None)` when none exists yet.
fn read_manifest(dir: &Path, spec_digest: u64) -> Result<Option<(String, u64)>, HdcError> {
    let path = dir.join("MANIFEST");
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(error) => return Err(storage(&format!("reading {}", path.display()), error)),
    };
    let fail = |reason: &str| HdcError::Storage(format!("{}: {reason}", path.display()));
    if bytes.len() < 28 {
        return Err(fail("truncated manifest"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_be_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(fail("manifest fails its CRC"));
    }
    if body[..4] != MANIFEST_MAGIC {
        return Err(fail("bad magic; not a manifest"));
    }
    if body[4..6] != MANIFEST_VERSION.to_be_bytes() {
        return Err(fail("unsupported manifest version"));
    }
    let found_digest = u64::from_be_bytes(body[6..14].try_into().expect("8 bytes"));
    if found_digest != spec_digest {
        return Err(fail(&format!(
            "spec digest mismatch (manifest {found_digest:016x}, model {spec_digest:016x}) — \
             this store belongs to a different pipeline spec"
        )));
    }
    let upto = u64::from_be_bytes(body[14..22].try_into().expect("8 bytes"));
    let name_len = u16::from_be_bytes(body[22..24].try_into().expect("2 bytes")) as usize;
    if body.len() != 24 + name_len {
        return Err(fail("manifest length disagrees with its name field"));
    }
    let name = std::str::from_utf8(&body[24..])
        .map_err(|_| fail("snapshot file name is not valid UTF-8"))?;
    if name.contains(['/', '\\']) || name.contains("..") {
        return Err(fail("snapshot file name escapes the store directory"));
    }
    Ok(Some((name.to_string(), upto)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncPolicy;
    use hdc_core::BinaryHypervector;
    use rand::{rngs::StdRng, SeedableRng};

    fn small() -> WalConfig {
        WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::EveryBatch,
        }
    }

    fn unbounded() -> WalConfig {
        WalConfig {
            segment_bytes: u64::MAX,
            sync: SyncPolicy::Never,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fit of a dense random hypervector: incompressible, so 256-byte
    /// segments rotate after every few records.
    fn fit(seed: u64, label: u64) -> WalRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        WalRecord::Fit {
            hv: BinaryHypervector::random(128, &mut rng),
            label,
        }
    }

    #[test]
    fn snapshot_install_cuts_replay_and_collects_segments() {
        let dir = tmp_dir("install");
        let (store, recovery) = Store::open(&dir, 7, small()).unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.records.is_empty());
        let (mut wal, installer) = store.into_parts();
        for i in 0..12 {
            wal.append(&fit(i, i)).unwrap();
        }
        wal.sync().unwrap();
        let segments_before = list_segments(&dir).unwrap().len();
        assert!(segments_before > 1, "tiny threshold forces rotation");
        // Install a snapshot covering the first 8 records.
        installer.install(b"state-after-8", 8).unwrap();
        assert!(list_segments(&dir).unwrap().len() < segments_before);

        let (_, recovery) = Store::open(&dir, 7, small()).unwrap();
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"state-after-8"[..]));
        assert_eq!(labels(&recovery.records), vec![8, 9, 10, 11]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn labels(records: &[WalRecord]) -> Vec<u64> {
        records
            .iter()
            .map(|r| match r {
                WalRecord::Fit { label, .. } => *label,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn a_cut_and_its_install_leave_only_the_tail() {
        let dir = tmp_dir("cut");
        let (store, _) = Store::open(&dir, 7, unbounded()).unwrap();
        let (mut wal, installer) = store.into_parts();
        let records: Vec<WalRecord> = (0..9).map(|i| fit(i, i)).collect();
        for record in &records[..6] {
            wal.append(record).unwrap();
        }
        let upto = wal.cut().unwrap();
        assert_eq!(upto, 6);
        for record in &records[6..] {
            wal.append(record).unwrap();
        }
        installer.install(b"state-after-6", upto).unwrap();
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, [6], "only the segment starting at the cut remains");
        drop(wal);

        let (_, recovery) = Store::open(&dir, 7, unbounded()).unwrap();
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"state-after-6"[..]));
        assert_eq!(recovery.records, records[6..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_between_cut_and_install_replays_both_segments() {
        let dir = tmp_dir("cut-crash");
        let (store, _) = Store::open(&dir, 7, unbounded()).unwrap();
        let (mut wal, installer) = store.into_parts();
        let records: Vec<WalRecord> = (0..10).map(|i| fit(i, i)).collect();
        for record in &records[..4] {
            wal.append(record).unwrap();
        }
        let older = wal.cut().unwrap();
        installer.install(b"state-after-4", older).unwrap();
        for record in &records[4..7] {
            wal.append(record).unwrap();
        }
        // The second snapshot's cut lands, but the process dies before its
        // install: the manifest still names the older snapshot.
        assert_eq!(wal.cut().unwrap(), 7);
        for record in &records[7..] {
            wal.append(record).unwrap();
        }
        drop(wal);
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, [4, 7]);

        let (_, recovery) = Store::open(&dir, 7, unbounded()).unwrap();
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"state-after-4"[..]));
        assert_eq!(labels(&recovery.records), (4..10).collect::<Vec<u64>>());
        assert_eq!(recovery.records, records[4..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_snapshot_supersedes_older() {
        let dir = tmp_dir("supersede");
        let (store, _) = Store::open(&dir, 7, unbounded()).unwrap();
        let (mut wal, installer) = store.into_parts();
        for i in 0..4 {
            wal.append(&fit(i, i)).unwrap();
        }
        installer.install(b"at-2", 2).unwrap();
        installer.install(b"at-4", 4).unwrap();
        assert!(!dir.join(snapshot_name(2)).exists(), "old blob collected");
        let (_, recovery) = Store::open(&dir, 7, unbounded()).unwrap();
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"at-4"[..]));
        assert!(recovery.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_snapshot_blob_and_manifest_are_loud() {
        let dir = tmp_dir("damage");
        let (store, _) = Store::open(&dir, 7, unbounded()).unwrap();
        let (mut wal, installer) = store.into_parts();
        wal.append(&fit(0, 0)).unwrap();
        installer.install(b"payload-bytes", 1).unwrap();

        // Flip one payload byte in the blob: CRC failure, loud.
        let blob = dir.join(snapshot_name(1));
        let mut bytes = std::fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&blob, &bytes).unwrap();
        let err = Store::open(&dir, 7, unbounded()).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        bytes[last] ^= 0x01;
        std::fs::write(&blob, &bytes).unwrap();

        // A manifest with a different spec digest is refused.
        let err = Store::open(&dir, 8, unbounded()).unwrap_err();
        assert!(err.to_string().contains("spec digest mismatch"), "{err}");

        // A truncated manifest is loud, not treated as absent.
        let manifest = dir.join("MANIFEST");
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &bytes[..bytes.len() - 2]).unwrap();
        assert!(Store::open(&dir, 7, unbounded()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
