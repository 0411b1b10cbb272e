//! The segmented write-ahead log: segment files of CRC-framed
//! [`WalRecord`]s, appended by exactly one writer, replayed at open with a
//! truncated-tail tolerance in the last segment only.
//!
//! A segment ends in one of two ways. It is sealed when it grows past the
//! size threshold, and [`Wal::cut`] seals it at a snapshot's cover point.
//! So every installed snapshot starts a segment of its own, the
//! installer's segment GC deletes every record it covers, and opening
//! the log reads and decodes only the records after that point.
//!
//! # On-disk layout
//!
//! Each segment is `wal-{first_seq:016x}.log`:
//!
//! ```text
//! "HDCW"  u16 version  u64 first_seq  u64 spec_digest  u8 codec   (23-byte header)
//! [ u32 payload_len  u32 crc32(payload)  payload ]*               (record frames)
//! ```
//!
//! `first_seq` is the sequence number of the segment's first record;
//! record `k` of the segment has sequence `first_seq + k`. The digest in
//! every header is the owning pipeline spec's 64-bit digest, so a log can
//! never replay into a model with a different spec.
//!
//! The header's `codec` byte says how frame payloads are encoded, fixed
//! for the segment's lifetime, so every segment replays standalone. This
//! build writes only `1`: per-record adaptively compressed payloads (see
//! [`compress`](crate::compress)). It still replays `0`, plain
//! [`WalRecord`] payloads, and version-1 segments (22-byte header, no codec
//! byte, plain payloads), but never appends to them: [`Wal::open`] seals
//! such an active segment and starts a fresh one. An *unknown* version or
//! codec byte is loud, never guessed at.
//!
//! # Corruption contract
//!
//! A short frame header, a payload extending past end-of-file, or a CRC
//! mismatch in the **last** segment is a torn tail — exactly what a crash
//! mid-append leaves behind. Replay stops at the longest valid prefix and
//! truncates the file there, because nothing past that point was ever
//! acknowledged (acks follow the `fsync`). The same damage in any earlier
//! segment, a bad header, an unknown codec, or a CRC-valid but
//! undecodable payload is loud ([`HdcError::Storage`]): those bytes were
//! once readable, so losing them silently would drop acknowledged state.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use hdc_core::HdcError;

use crate::codec::{be_u16, be_u32, be_u64};
use crate::compress::{self, CodecDict};
use crate::record::{crc32, WalRecord};
use crate::{SyncPolicy, WalConfig};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"HDCW";
/// Version tag of the segment layout (bumped on layout changes; version 1
/// had no codec byte and is still readable).
pub const SEGMENT_VERSION: u16 = 2;
/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

const SEGMENT_HEADER_LEN_V1: u64 = 22;
const SEGMENT_HEADER_LEN: u64 = 23;
const FRAME_HEADER_LEN: usize = 8;

/// Header codec byte: plain [`WalRecord`] frame payloads (read only).
const HEADER_CODEC_RAW: u8 = 0;
/// Header codec byte: per-record adaptively compressed payloads.
const HEADER_CODEC_TAGGED: u8 = 1;

pub(crate) fn storage(context: &str, error: impl std::fmt::Display) -> HdcError {
    HdcError::Storage(format!("{context}: {error}"))
}

/// The segment file name carrying the records starting at `first_seq`.
fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// Creates the adaptive segment starting at `first_seq` and writes its
/// header, replacing any file of that name (only ever one that holds no
/// record).
fn create_segment(dir: &Path, first_seq: u64, spec_digest: u64) -> Result<File, HdcError> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&SEGMENT_VERSION.to_be_bytes());
    header.extend_from_slice(&first_seq.to_be_bytes());
    header.extend_from_slice(&spec_digest.to_be_bytes());
    header.push(HEADER_CODEC_TAGGED);
    let path = dir.join(segment_name(first_seq));
    let mut file =
        File::create(&path).map_err(|e| storage(&format!("creating {}", path.display()), e))?;
    file.write_all(&header)
        .map_err(|e| storage(&format!("writing {}", path.display()), e))?;
    Ok(file)
}

/// Lists `dir`'s segment files sorted by their `first_seq` (parsed from the
/// file name; files that don't match the pattern are ignored).
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, HdcError> {
    let mut segments = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| storage(&format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| storage(&format!("listing {}", dir.display()), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(first_seq) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        segments.push((first_seq, entry.path()));
    }
    segments.sort_unstable_by_key(|&(first_seq, _)| first_seq);
    Ok(segments)
}

/// What scanning one segment found.
struct SegmentScan {
    records: Vec<(u64, WalRecord)>,
    /// Byte length of the longest valid prefix (where a torn tail, if any,
    /// begins).
    valid_len: u64,
    /// Sequence number one past the last frame in the valid prefix.
    next_seq: u64,
    /// `Some(reason)` if the bytes past `valid_len` are damaged.
    torn: Option<String>,
    /// The header's codec byte.
    codec: u8,
    /// Decoder dictionary state after the valid prefix — what the append
    /// half must resume from when this is the active segment.
    dict: CodecDict,
}

/// Scans one segment's bytes, validating the header against the expected
/// `first_seq` (from the file name) and `spec_digest`. Every frame in the
/// valid prefix is decoded (compressed records chain through the codec
/// dictionary), but only records with sequence `>= from_seq` are
/// collected. Frame-level damage stops the scan and is reported via
/// `torn`; header damage — including an unknown version or codec byte —
/// and undecodable CRC-valid payloads are immediate errors.
fn scan_segment(
    bytes: &[u8],
    path: &Path,
    first_seq: u64,
    spec_digest: u64,
    from_seq: u64,
) -> Result<SegmentScan, HdcError> {
    if bytes.len() < SEGMENT_HEADER_LEN_V1 as usize {
        return Err(HdcError::Storage(format!(
            "{}: truncated segment header",
            path.display()
        )));
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(HdcError::Storage(format!(
            "{}: bad magic; not a WAL segment",
            path.display()
        )));
    }
    let truncated = || HdcError::Storage(format!("{}: truncated segment header", path.display()));
    let version = be_u16(bytes, 4).ok_or_else(truncated)?;
    let header_len = match version {
        1 => SEGMENT_HEADER_LEN_V1 as usize,
        2 => SEGMENT_HEADER_LEN as usize,
        other => {
            return Err(HdcError::Storage(format!(
                "{}: unsupported segment version {other} (this build reads 1 and 2)",
                path.display()
            )))
        }
    };
    if bytes.len() < header_len {
        return Err(HdcError::Storage(format!(
            "{}: truncated segment header",
            path.display()
        )));
    }
    let found_seq = be_u64(bytes, 6).ok_or_else(truncated)?;
    let found_digest = be_u64(bytes, 14).ok_or_else(truncated)?;
    if found_digest != spec_digest {
        return Err(HdcError::Storage(format!(
            "{}: spec digest mismatch (log {found_digest:016x}, model {spec_digest:016x}) — \
             this log belongs to a different pipeline spec",
            path.display()
        )));
    }
    if found_seq != first_seq {
        return Err(HdcError::Storage(format!(
            "{}: bad segment header (sequence mismatch)",
            path.display()
        )));
    }
    let codec = if version == 1 {
        HEADER_CODEC_RAW
    } else {
        bytes[22]
    };
    if !matches!(codec, HEADER_CODEC_RAW | HEADER_CODEC_TAGGED) {
        return Err(HdcError::Storage(format!(
            "{}: unknown WAL codec {codec} in the segment header — \
             written by a newer build; refusing to guess at acknowledged records",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut dict = CodecDict::new();
    let mut at = header_len;
    let mut seq = first_seq;
    let torn = loop {
        if at == bytes.len() {
            break None;
        }
        if bytes.len() - at < FRAME_HEADER_LEN {
            break Some("short frame header".to_string());
        }
        let (Some(len), Some(crc)) = (be_u32(bytes, at), be_u32(bytes, at + 4)) else {
            break Some("short frame header".to_string());
        };
        let len = len as usize;
        if bytes.len() - at - FRAME_HEADER_LEN < len {
            break Some(format!("frame of {len} bytes extends past end of file"));
        }
        let payload = &bytes[at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len];
        if crc32(payload) != crc {
            break Some(format!("CRC mismatch at record {seq}"));
        }
        // Decode every frame — compressed records chain through the
        // dictionary, so even records the caller skips must be walked.
        let record = match codec {
            HEADER_CODEC_RAW => WalRecord::decode(payload),
            _ => compress::decode_tagged(payload, &mut dict),
        }
        .map_err(|e| {
            HdcError::Storage(format!(
                "{}: record {seq} is CRC-valid but undecodable: {e}",
                path.display()
            ))
        })?;
        if seq >= from_seq {
            records.push((seq, record));
        }
        at += FRAME_HEADER_LEN + len;
        seq += 1;
    };
    Ok(SegmentScan {
        records,
        valid_len: at as u64,
        next_seq: seq,
        torn,
        codec,
        dict,
    })
}

/// The append half of the log: owned by exactly one writer — the serving
/// dispatcher directly, or a [`GroupCommitWal`](crate::GroupCommitWal)
/// flusher on its behalf — which appends records, [`sync`](Wal::sync)s at
/// its flush boundaries, and rotates segments at the configured threshold.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    spec_digest: u64,
    segment_bytes: u64,
    sync_policy: SyncPolicy,
    dict: CodecDict,
    active: File,
    active_len: u64,
    next_seq: u64,
    dirty: bool,
    syncs: u64,
    appended_bytes: u64,
}

/// The last segment found at open, which appends would continue.
struct LastSegment {
    path: PathBuf,
    first_seq: u64,
    scan: SegmentScan,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir`, replaying every record
    /// with sequence `>= from_seq` and returning the log positioned for
    /// appending after the last valid record.
    ///
    /// Appends always land in an adaptive segment. A raw or version-1 last
    /// segment is sealed (`fsync`ed) and an adaptive one started after it;
    /// a raw one that holds no record is replaced instead, since its
    /// successor would carry the same name.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure, a spec-digest
    /// mismatch, or corruption anywhere but the last segment's tail (see
    /// the module-level corruption contract).
    pub fn open(
        dir: impl Into<PathBuf>,
        spec_digest: u64,
        config: WalConfig,
        from_seq: u64,
    ) -> Result<(Self, Vec<(u64, WalRecord)>), HdcError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| storage(&format!("creating {}", dir.display()), e))?;
        let mut segments = list_segments(&dir)?;
        // A crash between creating a fresh segment and writing its header
        // leaves a sub-header-length *last* file with no records in it;
        // drop it and append into its predecessor instead. (Anywhere else
        // a short header is loud, like all sealed-segment damage.)
        while let Some((_, path)) = segments.last() {
            let len = std::fs::metadata(path)
                .map_err(|e| storage(&format!("inspecting {}", path.display()), e))?
                .len();
            if len >= SEGMENT_HEADER_LEN_V1 {
                break;
            }
            std::fs::remove_file(path)
                .map_err(|e| storage(&format!("removing {}", path.display()), e))?;
            segments.pop();
        }
        let mut replayed = Vec::new();
        let mut last_segment = None;
        let last = segments.len().checked_sub(1);
        for (index, (first_seq, path)) in segments.into_iter().enumerate() {
            let bytes = std::fs::read(&path)
                .map_err(|e| storage(&format!("reading {}", path.display()), e))?;
            let mut scan = scan_segment(&bytes, &path, first_seq, spec_digest, from_seq)?;
            let is_last = Some(index) == last;
            if let Some(reason) = &scan.torn {
                if !is_last {
                    return Err(HdcError::Storage(format!(
                        "{}: {reason} in a sealed segment — acknowledged records are damaged; \
                         refusing to recover silently",
                        path.display()
                    )));
                }
                // The torn tail of the last segment is the write the crash
                // interrupted; nothing past the valid prefix was ever
                // acknowledged. Drop it so appends restart cleanly.
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| storage(&format!("opening {}", path.display()), e))?;
                file.set_len(scan.valid_len)
                    .map_err(|e| storage(&format!("truncating {}", path.display()), e))?;
                file.sync_data()
                    .map_err(|e| storage(&format!("syncing {}", path.display()), e))?;
            }
            replayed.append(&mut scan.records);
            if is_last {
                last_segment = Some(LastSegment {
                    path,
                    first_seq,
                    scan,
                });
            }
        }
        let mut syncs = 0;
        let (active, active_len, next_seq, dict) = match last_segment {
            Some(LastSegment { path, scan, .. }) if scan.codec == HEADER_CODEC_TAGGED => {
                let active = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| storage(&format!("opening {}", path.display()), e))?;
                (active, scan.valid_len, scan.next_seq, scan.dict)
            }
            Some(LastSegment {
                path,
                first_seq,
                scan,
            }) => {
                // A raw segment takes no more appends. Seal it durably
                // before it stops being last, as rotation does; one with
                // no record is simply replaced below.
                if scan.next_seq > first_seq {
                    OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .and_then(|file| file.sync_data())
                        .map_err(|e| storage(&format!("sealing {}", path.display()), e))?;
                    syncs += 1;
                }
                let active = create_segment(&dir, scan.next_seq, spec_digest)?;
                (active, SEGMENT_HEADER_LEN, scan.next_seq, CodecDict::new())
            }
            None => {
                let active = create_segment(&dir, from_seq, spec_digest)?;
                (active, SEGMENT_HEADER_LEN, from_seq, CodecDict::new())
            }
        };
        Ok((
            Self {
                dir,
                spec_digest,
                segment_bytes: config.segment_bytes.max(SEGMENT_HEADER_LEN + 1),
                sync_policy: config.sync,
                dict,
                active,
                active_len,
                next_seq,
                dirty: false,
                syncs,
                appended_bytes: 0,
            },
            replayed,
        ))
    }

    /// The sequence number the next appended record will carry — also the
    /// exclusive upper bound of everything logged so far.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The configured flush policy.
    #[must_use]
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Data `fsync`s issued since open ([`sync`](Self::sync) calls that
    /// had work, segment seals, and group flushes) — the observable flush
    /// schedule, which the group-commit tests pin down.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Frame bytes appended since open (headers excluded) — what the
    /// compression benches divide by records to get bytes/fit.
    #[must_use]
    pub fn bytes_appended(&self) -> u64 {
        self.appended_bytes
    }

    /// Appends one record, returning its sequence number. The record
    /// reaches the kernel immediately and the platters at the next
    /// [`sync`](Self::sync) or group flush (or at the OS's leisure under
    /// [`SyncPolicy::Never`]). Rotation seals the outgoing segment
    /// durably, whatever the policy.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, HdcError> {
        let payload = compress::encode_tagged(record, &mut self.dict)
            .map_err(|e| storage("encoding WAL record", e))?;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.active
            .write_all(&frame)
            .map_err(|e| storage("appending WAL record", e))?;
        self.active_len += frame.len() as u64;
        self.appended_bytes += frame.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.dirty = true;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// [`append`](Self::append) under its group-commit name: every append
    /// is deferred to the next flush.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure.
    pub fn append_deferred(&mut self, record: &WalRecord) -> Result<u64, HdcError> {
        self.append(record)
    }

    /// Flushes appended records to disk — the batch-boundary call under
    /// [`SyncPolicy::EveryBatch`]; a no-op when nothing is pending or the
    /// policy is [`SyncPolicy::Never`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), HdcError> {
        if self.dirty && self.sync_policy != SyncPolicy::Never {
            self.active
                .sync_data()
                .map_err(|e| storage("syncing WAL segment", e))?;
            self.syncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// First half of a group flush: a duplicated handle to the active
    /// segment plus the sequence the flush will cover, so the `fdatasync`
    /// itself can run **off** the WAL lock (appends proceed while the
    /// platters spin). Pass the cover point back to
    /// [`finish_group_sync`](Self::finish_group_sync) afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] if the handle cannot be duplicated.
    pub fn begin_group_sync(&mut self) -> Result<(File, u64), HdcError> {
        let file = self
            .active
            .try_clone()
            .map_err(|e| storage("duplicating WAL segment handle", e))?;
        Ok((file, self.next_seq))
    }

    /// Second half of a group flush: accounts the `fdatasync` the flusher
    /// just issued. The segment only counts as clean if nothing was
    /// appended past the covered sequence in the meantime.
    pub fn finish_group_sync(&mut self, covered: u64) {
        self.syncs += 1;
        if self.next_seq == covered {
            self.dirty = false;
        }
    }

    /// Seals the active segment, unless it holds no record, and starts the
    /// next one at the current sequence, which it returns. A snapshot
    /// taking that sequence as its cover point then starts a segment of its
    /// own: once the snapshot is installed, the installer deletes every
    /// segment before it, and the next open reads only the records after
    /// it. The seal `fsync`s like a size rotation, whatever the policy.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure.
    pub fn cut(&mut self) -> Result<u64, HdcError> {
        if self.active_len > SEGMENT_HEADER_LEN {
            self.rotate()?;
        }
        Ok(self.next_seq)
    }

    /// Seals the active segment and starts a fresh one at the current
    /// sequence.
    fn rotate(&mut self) -> Result<(), HdcError> {
        // Seal durably before moving on, whatever the policy: once a
        // segment is no longer last, replay treats its damage as loud.
        self.active
            .sync_data()
            .map_err(|e| storage("sealing WAL segment", e))?;
        self.syncs += 1;
        self.dirty = false;
        self.active = create_segment(&self.dir, self.next_seq, self.spec_digest)?;
        self.active_len = SEGMENT_HEADER_LEN;
        self.dict.reset();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::BinaryHypervector;
    use rand::{rngs::StdRng, SeedableRng};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(segment_bytes: u64, sync: SyncPolicy) -> WalConfig {
        WalConfig {
            segment_bytes,
            sync,
        }
    }

    /// Dense random records: the adaptive codec keeps them raw (one tag
    /// byte more), so byte thresholds behave as for plain payloads.
    fn sample_records(n: usize) -> Vec<WalRecord> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| WalRecord::Fit {
                hv: BinaryHypervector::random(256, &mut rng),
                label: (i % 3) as u64,
            })
            .collect()
    }

    /// A hand-written segment with plain payloads, as older builds wrote
    /// them: version 1 (22-byte header) or version 2 with codec byte 0.
    fn raw_segment(version: u16, first_seq: u64, records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&version.to_be_bytes());
        bytes.extend_from_slice(&first_seq.to_be_bytes());
        bytes.extend_from_slice(&9u64.to_be_bytes());
        if version == 2 {
            bytes.push(HEADER_CODEC_RAW);
        }
        for record in records {
            let payload = record.encode().unwrap();
            bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_be_bytes());
            bytes.extend_from_slice(&payload);
        }
        bytes
    }

    /// The header codec byte of every segment in `dir`, oldest first.
    fn header_codecs(dir: &Path) -> Vec<u8> {
        list_segments(dir)
            .unwrap()
            .iter()
            .map(|(_, path)| std::fs::read(path).unwrap()[22])
            .collect()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp_dir("roundtrip");
        let records = sample_records(10);
        {
            let (mut wal, replayed) =
                Wal::open(&dir, 9, cfg(512, SyncPolicy::EveryBatch), 0).unwrap();
            assert!(replayed.is_empty());
            for (i, record) in records.iter().enumerate() {
                assert_eq!(wal.append(record).unwrap(), i as u64);
            }
            wal.sync().unwrap();
        }
        // 512-byte segments force rotations for 10 records of ~60 bytes;
        // replay must stitch them back in order.
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        let (wal, replayed) = Wal::open(&dir, 9, cfg(512, SyncPolicy::EveryBatch), 0).unwrap();
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(
            replayed,
            records
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r.clone()))
                .collect::<Vec<_>>()
        );
        // Replay from the middle skips the snapshotted prefix.
        let (_, tail) = Wal::open(&dir, 9, cfg(512, SyncPolicy::EveryBatch), 7).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].0, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_of_a_header_only_segment_is_a_no_op() {
        let dir = tmp_dir("cut-empty");
        let records = sample_records(3);
        let (mut wal, _) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        let header = std::fs::read(dir.join(segment_name(0))).unwrap();
        // Nothing appended yet: the active segment already starts at the
        // cut, so no file is sealed, created or replaced.
        assert_eq!(wal.cut().unwrap(), 0);
        assert_eq!(wal.sync_count(), 0, "nothing sealed");
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        assert_eq!(std::fs::read(dir.join(segment_name(0))).unwrap(), header);
        for record in &records {
            wal.append(record).unwrap();
        }
        // A cut after records seals them and starts the next segment at
        // the returned sequence; a second cut right after it is a no-op.
        assert_eq!(wal.cut().unwrap(), 3);
        assert_eq!(wal.sync_count(), 1, "the outgoing segment is sealed");
        assert_eq!(wal.cut().unwrap(), 3);
        assert_eq!(wal.sync_count(), 1);
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, [0, 3]);
        wal.append(&records[0]).unwrap();
        drop(wal);
        let (wal, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(wal.next_seq(), 4);
        assert_eq!(replayed.len(), 4);
        // Replay from the cut reads only the segment that starts there.
        let (_, tail) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 3).unwrap();
        assert_eq!(tail, [(3, records[0].clone())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_segments_replay_bit_identically() {
        let dir = tmp_dir("tagged");
        // A level walk (delta-compressible) mixed with dense random
        // records (kept raw inside the tagged segment) and item ops.
        let mut rng = StdRng::seed_from_u64(2);
        let mut level = BinaryHypervector::random(512, &mut rng);
        let mut records = Vec::new();
        for i in 0..24u64 {
            level.flip_positions(&[(i as usize * 7) % 512, (i as usize * 13) % 512]);
            records.push(WalRecord::Fit {
                hv: level.clone(),
                label: i % 3,
            });
            if i % 6 == 0 {
                records.push(WalRecord::Insert {
                    key: format!("item-{i}"),
                    hv: BinaryHypervector::random(512, &mut rng),
                });
            }
        }
        records.push(WalRecord::Remove {
            key: "item-0".into(),
        });
        {
            let (mut wal, _) = Wal::open(&dir, 9, cfg(700, SyncPolicy::EveryBatch), 0).unwrap();
            for record in &records {
                wal.append(record).unwrap();
            }
            wal.sync().unwrap();
        }
        // Rotation at 700 bytes means delta chains restart per segment
        // and replay crosses segment boundaries.
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        let (wal, replayed) = Wal::open(&dir, 9, cfg(700, SyncPolicy::EveryBatch), 0).unwrap();
        assert_eq!(wal.next_seq(), records.len() as u64);
        assert_eq!(
            replayed.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            records
        );
        // Replay from the middle still decodes bit-identically: the delta
        // chain is walked from each segment's start regardless.
        let from = records.len() as u64 / 2;
        let (_, tail) = Wal::open(&dir, 9, cfg(700, SyncPolicy::EveryBatch), from).unwrap();
        assert_eq!(
            tail.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            records[from as usize..]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_segments_replay_but_take_no_appends() {
        let dir = tmp_dir("raw-active");
        let records = sample_records(6);
        std::fs::create_dir_all(&dir).unwrap();
        let raw = raw_segment(2, 0, &records[..3]);
        std::fs::write(dir.join(segment_name(0)), &raw).unwrap();
        {
            let (mut wal, replayed) =
                Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
            assert_eq!(replayed.len(), 3);
            assert_eq!(wal.sync_count(), 1, "the raw segment is sealed");
            for record in &records[3..] {
                wal.append(record).unwrap();
            }
        }
        // The raw segment is untouched; appends went to a fresh adaptive
        // segment starting at the next sequence.
        assert_eq!(std::fs::read(dir.join(segment_name(0))).unwrap(), raw);
        assert!(dir.join(segment_name(3)).exists());
        assert_eq!(header_codecs(&dir), [HEADER_CODEC_RAW, HEADER_CODEC_TAGGED]);
        let (_, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(
            replayed.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            records
        );
        std::fs::remove_dir_all(&dir).unwrap();

        // A raw segment holding only a header is replaced under its own
        // name, not sealed: its successor would start at the same sequence.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_name(0)), raw_segment(2, 0, &[])).unwrap();
        {
            let (mut wal, replayed) =
                Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(wal.sync_count(), 0, "nothing to seal");
            wal.append(&records[0]).unwrap();
        }
        assert_eq!(header_codecs(&dir), [HEADER_CODEC_TAGGED]);
        let (_, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(replayed, [(0, records[0].clone())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_segments_still_replay() {
        let dir = tmp_dir("v1");
        let records = sample_records(3);
        // Hand-write a version-1 segment: 22-byte header, raw payloads.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_name(0)), raw_segment(1, 0, &records)).unwrap();
        let (mut wal, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(
            replayed.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            records
        );
        // Appends land in a fresh adaptive segment after the v1 one.
        wal.append(&records[0]).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let (_, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(replayed.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_header_codec_is_loud() {
        let dir = tmp_dir("badcodec");
        {
            let (mut wal, _) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
            wal.append(&sample_records(1)[0]).unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22] = 99; // an unassigned codec byte
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap_err();
        let HdcError::Storage(reason) = err else {
            panic!("expected a storage error")
        };
        assert!(reason.contains("unknown WAL codec"), "{reason}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_last_segment_is_truncated() {
        let dir = tmp_dir("torn");
        let records = sample_records(3);
        {
            let (mut wal, _) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
            for record in &records {
                wal.append(record).unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut wal, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(replayed.len(), 2, "the torn third record is dropped");
        assert_eq!(wal.next_seq(), 2);
        // Appending after truncation reuses the freed sequence.
        assert_eq!(wal.append(&records[2]).unwrap(), 2);
        let (_, replayed) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
        assert_eq!(replayed.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_sealed_segment_is_loud() {
        let dir = tmp_dir("sealed");
        {
            let (mut wal, _) = Wal::open(&dir, 9, cfg(512, SyncPolicy::Never), 0).unwrap();
            for record in sample_records(10) {
                wal.append(&record).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1);
        let (_, first) = &segments[0];
        let mut bytes = std::fs::read(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(first, &bytes).unwrap();
        let err = Wal::open(&dir, 9, cfg(512, SyncPolicy::Never), 0).unwrap_err();
        assert!(matches!(err, HdcError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_digest_mismatch_is_loud() {
        let dir = tmp_dir("digest");
        {
            let (mut wal, _) = Wal::open(&dir, 9, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap();
            wal.append(&sample_records(1)[0]).unwrap();
        }
        let err = Wal::open(&dir, 10, cfg(u64::MAX, SyncPolicy::Never), 0).unwrap_err();
        let HdcError::Storage(reason) = err else {
            panic!("expected a storage error")
        };
        assert!(reason.contains("spec digest mismatch"), "{reason}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
