//! The tiered item memory: the [`ItemStore`] trait over keyed hypervector
//! storage, the in-RAM [`ResidentStore`] default, and the file-backed
//! [`PagedStore`] that bounds resident memory by an LRU cache budget
//! instead of key cardinality.
//!
//! # `PagedStore` on-disk layout (under one directory)
//!
//! * `pages.dat` — a 32-byte header (`"HDCP"`, `u16` version, `u64`
//!   dimension, padding) followed by fixed-size slots of
//!   `dim.div_ceil(64) * 8` bytes, one stored hypervector each. Slots are
//!   recycled through a free list; slot writes are in-place (a torn slot
//!   write is healed by WAL replay of the insert that caused it, which is
//!   an idempotent upsert).
//! * `keys.idx` — an append-only key index of CRC-framed bind/tombstone
//!   records (`key → slot`). Scanned at open to rebuild the in-memory
//!   index; a torn tail is truncated (the binding it lost is re-appended
//!   when WAL replay re-applies the insert). Compacted down to the live
//!   bindings (tmp+rename) when tombstones dominate.
//!
//! Reads go through an LRU hot set of at most `budget` decoded
//! hypervectors — [`resident`](ItemStore::resident) reports its size so
//! tests can assert the bound — while the key index (small: key + slot)
//! stays fully resident for O(1) lookups.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hdc_core::{BinaryHypervector, HdcError};

use crate::codec::{be_u32, be_u64};
use crate::record::crc32;
use crate::store::{atomic_write, sync_dir};
use crate::wal::storage;

/// Keyed hypervector storage behind the serving runtime's item plane:
/// upsert, point read, remove, full scan. Implementations must make
/// `insert`/`remove` idempotent (WAL replay re-applies them) and `get`
/// return exactly the last inserted vector for the key — the serving layer
/// asserts bit-identity between backends on top of this contract.
pub trait ItemStore: Send {
    /// Upserts `hv` under `key`. Returns `true` if a previous entry was
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on backend I/O failure and
    /// [`HdcError::DimensionMismatch`] for a wrong-width vector.
    fn insert(&mut self, key: &str, hv: &BinaryHypervector) -> Result<bool, HdcError>;

    /// The vector stored under `key`, if any. `&mut` because a paged
    /// backend promotes the entry into its hot cache.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on backend I/O failure.
    fn get(&mut self, key: &str) -> Result<Option<BinaryHypervector>, HdcError>;

    /// Removes `key`. Returns `true` if it was stored.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on backend I/O failure.
    fn remove(&mut self, key: &str) -> Result<bool, HdcError>;

    /// Whether `key` is stored (no promotion, no I/O).
    fn contains(&self, key: &str) -> bool;

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// Whether no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored `(key, vector)`, sorted by key for deterministic
    /// snapshots. Reads around the hot cache — a full scan must not evict
    /// the working set.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on backend I/O failure.
    fn entries(&mut self) -> Result<Vec<(String, BinaryHypervector)>, HdcError>;

    /// Entries currently resident in RAM (the whole store for
    /// [`ResidentStore`], the hot cache for [`PagedStore`]).
    fn resident(&self) -> usize;

    /// Flushes buffered state to durable storage (no-op for RAM).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on backend I/O failure.
    fn flush(&mut self) -> Result<(), HdcError>;
}

/// The in-RAM default: a `HashMap` with the trait's contract, `resident`
/// equal to `len`.
#[derive(Debug, Default)]
pub struct ResidentStore {
    map: HashMap<String, BinaryHypervector>,
}

impl ResidentStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ItemStore for ResidentStore {
    fn insert(&mut self, key: &str, hv: &BinaryHypervector) -> Result<bool, HdcError> {
        Ok(self.map.insert(key.to_string(), hv.clone()).is_some())
    }

    fn get(&mut self, key: &str) -> Result<Option<BinaryHypervector>, HdcError> {
        Ok(self.map.get(key).cloned())
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        Ok(self.map.remove(key).is_some())
    }

    fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn entries(&mut self) -> Result<Vec<(String, BinaryHypervector)>, HdcError> {
        let mut entries: Vec<(String, BinaryHypervector)> = self
            .map
            .iter()
            .map(|(key, hv)| (key.clone(), hv.clone()))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(entries)
    }

    fn resident(&self) -> usize {
        self.map.len()
    }

    fn flush(&mut self) -> Result<(), HdcError> {
        Ok(())
    }
}

const PAGES_MAGIC: [u8; 4] = *b"HDCP";
const PAGES_VERSION: u16 = 1;
const PAGES_HEADER_LEN: u64 = 32;

const IDX_BIND: u8 = 1;
const IDX_TOMBSTONE: u8 = 2;

/// The file-backed paged item memory. See the module docs for the layout.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    dim: usize,
    slot_bytes: u64,
    data: File,
    index_log: File,
    slots: HashMap<String, u64>,
    free: Vec<u64>,
    slot_count: u64,
    /// Index records appended since the last compaction — when this
    /// dominates the live count, `flush` rewrites the index to just the
    /// live bindings.
    index_appended: u64,
    cache: HashMap<String, (BinaryHypervector, u64)>,
    lru: VecDeque<(String, u64)>,
    tick: u64,
    budget: usize,
}

impl PagedStore {
    /// Opens (creating if needed) the paged store in `dir` for
    /// `dim`-dimensional vectors with at most `budget` cached entries, and
    /// syncs `dir` so the names of newly created item files survive a
    /// power cut.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure, a foreign data file,
    /// or a dimension mismatch with an existing store.
    pub fn open(dir: impl Into<PathBuf>, dim: usize, budget: usize) -> Result<Self, HdcError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| storage(&format!("creating {}", dir.display()), e))?;
        let data_path = dir.join("pages.dat");
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&data_path)
            .map_err(|e| storage(&format!("opening {}", data_path.display()), e))?;
        let data_len = data
            .metadata()
            .map_err(|e| storage(&format!("inspecting {}", data_path.display()), e))?
            .len();
        let slot_bytes = (dim.div_ceil(64) * 8) as u64;
        if data_len == 0 {
            let mut header = Vec::with_capacity(PAGES_HEADER_LEN as usize);
            header.extend_from_slice(&PAGES_MAGIC);
            header.extend_from_slice(&PAGES_VERSION.to_be_bytes());
            header.extend_from_slice(&(dim as u64).to_be_bytes());
            header.resize(PAGES_HEADER_LEN as usize, 0);
            data.write_all(&header)
                .map_err(|e| storage(&format!("writing {}", data_path.display()), e))?;
        } else {
            let mut header = [0u8; PAGES_HEADER_LEN as usize];
            data.rewind()
                .and_then(|()| data.read_exact(&mut header))
                .map_err(|e| storage(&format!("reading {}", data_path.display()), e))?;
            if header[..4] != PAGES_MAGIC {
                return Err(HdcError::Storage(format!(
                    "{}: bad magic; not a paged item memory",
                    data_path.display()
                )));
            }
            if header[4..6] != PAGES_VERSION.to_be_bytes() {
                return Err(HdcError::Storage(format!(
                    "{}: unsupported page file version",
                    data_path.display()
                )));
            }
            let found = be_u64(&header, 6).ok_or_else(|| {
                HdcError::Storage(format!(
                    "{}: truncated page-file header",
                    data_path.display()
                ))
            })?;
            if found != dim as u64 {
                return Err(HdcError::Storage(format!(
                    "{}: stores {found}-dimensional vectors, model expects {dim}",
                    data_path.display()
                )));
            }
        }
        // A torn slot write can leave a partial trailing slot; rounding
        // down is safe because its binding (appended after the data write)
        // can only exist if the slot write completed.
        let slot_count = data_len.saturating_sub(PAGES_HEADER_LEN) / slot_bytes;

        let (index_log, slots, index_appended) = Self::open_index(&dir, slot_count)?;
        // Both item files may have just been created: sync their names.
        sync_dir(&dir).map_err(|e| storage(&format!("syncing {}", dir.display()), e))?;
        let mut used: Vec<bool> = vec![false; slot_count as usize];
        for &slot in slots.values() {
            used[slot as usize] = true;
        }
        let free = (0..slot_count).filter(|&s| !used[s as usize]).collect();
        Ok(Self {
            dir,
            dim,
            slot_bytes,
            data,
            index_log,
            slots,
            free,
            slot_count,
            index_appended,
            cache: HashMap::new(),
            lru: VecDeque::new(),
            tick: 0,
            budget,
        })
    }

    /// Scans (or creates) `keys.idx`, rebuilding the key → slot map.
    /// Bindings pointing past the data file's slot count are dropped (a
    /// crash between index append and a lost data-file write — replay
    /// re-binds them); a torn tail is truncated.
    fn open_index(
        dir: &Path,
        slot_count: u64,
    ) -> Result<(File, HashMap<String, u64>, u64), HdcError> {
        let path = dir.join("keys.idx");
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(error) => return Err(storage(&format!("reading {}", path.display()), error)),
        };
        let mut slots = HashMap::new();
        let mut at = 0usize;
        let mut appended = 0u64;
        while at < bytes.len() {
            if bytes.len() - at < 8 {
                break;
            }
            let (Some(len), Some(crc)) = (be_u32(&bytes, at), be_u32(&bytes, at + 4)) else {
                break;
            };
            let len = len as usize;
            if bytes.len() - at - 8 < len || len < 9 {
                break;
            }
            let payload = &bytes[at + 8..at + 8 + len];
            if crc32(payload) != crc {
                break;
            }
            let tag = payload[0];
            let Some(slot) = be_u64(payload, 1) else {
                break;
            };
            let Ok(key) = std::str::from_utf8(&payload[9..]) else {
                break;
            };
            match tag {
                IDX_BIND if slot < slot_count => {
                    slots.insert(key.to_string(), slot);
                }
                IDX_BIND => {} // binding to a slot the data file lost
                IDX_TOMBSTONE => {
                    slots.remove(key);
                }
                _ => break,
            }
            appended += 1;
            at += 8 + len;
        }
        if at < bytes.len() {
            // Torn or foreign tail: truncate to the valid prefix.
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| storage(&format!("opening {}", path.display()), e))?;
            file.set_len(at as u64)
                .map_err(|e| storage(&format!("truncating {}", path.display()), e))?;
        }
        let index_log = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| storage(&format!("opening {}", path.display()), e))?;
        Ok((index_log, slots, appended))
    }

    fn append_index(&mut self, tag: u8, slot: u64, key: &str) -> Result<(), HdcError> {
        let mut payload = Vec::with_capacity(9 + key.len());
        payload.push(tag);
        payload.extend_from_slice(&slot.to_be_bytes());
        payload.extend_from_slice(key.as_bytes());
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.index_log
            .write_all(&frame)
            .map_err(|e| storage("appending to keys.idx", e))?;
        self.index_appended += 1;
        Ok(())
    }

    fn slot_offset(&self, slot: u64) -> u64 {
        PAGES_HEADER_LEN + slot * self.slot_bytes
    }

    fn write_slot(&mut self, slot: u64, hv: &BinaryHypervector) -> Result<(), HdcError> {
        let offset = self.slot_offset(slot);
        let mut buf = Vec::with_capacity(self.slot_bytes as usize);
        for word in hv.as_words() {
            buf.extend_from_slice(&word.to_be_bytes());
        }
        self.data
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.data.write_all(&buf))
            .map_err(|e| storage("writing pages.dat slot", e))
    }

    fn read_slot(&mut self, slot: u64) -> Result<BinaryHypervector, HdcError> {
        let offset = self.slot_offset(slot);
        let mut buf = vec![0u8; self.slot_bytes as usize];
        self.data
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.data.read_exact(&mut buf))
            .map_err(|e| storage("reading pages.dat slot", e))?;
        // `chunks_exact(8)` only yields full chunks, so the filter never
        // actually drops one — but the panic-free form keeps this path
        // clean under the `panic-free-hot-path` lint.
        let mut words: Vec<u64> = buf
            .chunks_exact(8)
            .filter_map(|chunk| be_u64(chunk, 0))
            .collect();
        // Mask the tail defensively: a torn in-place overwrite awaiting its
        // healing replay must not panic the clean-tail invariant.
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        Ok(BinaryHypervector::from_words(self.dim, words))
    }

    fn check_dim(&self, hv: &BinaryHypervector) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                found: hv.dim(),
            });
        }
        Ok(())
    }

    /// Promotes `key` into the hot cache, evicting least-recently-used
    /// entries past the budget (lazy LRU: stale queue entries are skipped
    /// by tick comparison, and the queue itself is compacted when it
    /// outgrows the cache by 4×).
    fn cache_put(&mut self, key: &str, hv: BinaryHypervector) {
        if self.budget == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.lru.push_back((key.to_string(), tick));
        self.cache.insert(key.to_string(), (hv, tick));
        while self.cache.len() > self.budget {
            let Some((old_key, old_tick)) = self.lru.pop_front() else {
                break;
            };
            if self
                .cache
                .get(&old_key)
                .is_some_and(|&(_, tick)| tick == old_tick)
            {
                self.cache.remove(&old_key);
            }
        }
        if self.lru.len() > 4 * self.budget.max(4) {
            let cache = &self.cache;
            self.lru
                .retain(|(key, tick)| cache.get(key).is_some_and(|&(_, t)| t == *tick));
        }
    }

    /// Rewrites `keys.idx` down to the live bindings (tmp+rename) once the
    /// appended-record count dwarfs them.
    fn compact_index(&mut self) -> Result<(), HdcError> {
        let path = self.dir.join("keys.idx");
        let mut buf = Vec::new();
        let mut live: Vec<(&String, &u64)> = self.slots.iter().collect();
        live.sort_unstable_by_key(|(key, _)| key.as_str());
        for (key, &slot) in live {
            let mut payload = Vec::with_capacity(9 + key.len());
            payload.push(IDX_BIND);
            payload.extend_from_slice(&slot.to_be_bytes());
            payload.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&crc32(&payload).to_be_bytes());
            buf.extend_from_slice(&payload);
        }
        self.index_log = atomic_write(&path, &buf)
            .and_then(|()| OpenOptions::new().append(true).open(&path))
            .map_err(|e| storage("compacting keys.idx", e))?;
        self.index_appended = self.slots.len() as u64;
        Ok(())
    }

    /// Syncs `pages.dat` and `keys.idx` to disk without the compaction
    /// heuristic that [`ItemStore::flush`] applies — the group-commit
    /// boundary wants exactly the durability barrier, not a potential
    /// index rewrite on the serving path.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] if either fsync fails.
    pub fn sync_files(&mut self) -> Result<(), HdcError> {
        self.data
            .sync_data()
            .map_err(|e| storage("syncing pages.dat", e))?;
        self.index_log
            .sync_data()
            .map_err(|e| storage("syncing keys.idx", e))
    }
}

impl ItemStore for PagedStore {
    fn insert(&mut self, key: &str, hv: &BinaryHypervector) -> Result<bool, HdcError> {
        self.check_dim(hv)?;
        if let Some(&slot) = self.slots.get(key) {
            self.write_slot(slot, hv)?;
            self.cache_put(key, hv.clone());
            return Ok(true);
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slot_count;
                self.slot_count += 1;
                slot
            }
        };
        // Data before index: a crash between the two leaves an orphaned
        // slot (reclaimed by the free-list scan), never a binding to
        // unwritten data.
        self.write_slot(slot, hv)?;
        self.append_index(IDX_BIND, slot, key)?;
        self.slots.insert(key.to_string(), slot);
        self.cache_put(key, hv.clone());
        Ok(false)
    }

    fn get(&mut self, key: &str) -> Result<Option<BinaryHypervector>, HdcError> {
        if let Some((hv, _)) = self.cache.get(key) {
            let hv = hv.clone();
            self.cache_put(key, hv.clone());
            return Ok(Some(hv));
        }
        let Some(&slot) = self.slots.get(key) else {
            return Ok(None);
        };
        let hv = self.read_slot(slot)?;
        self.cache_put(key, hv.clone());
        Ok(Some(hv))
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        let Some(slot) = self.slots.remove(key) else {
            return Ok(false);
        };
        self.append_index(IDX_TOMBSTONE, slot, key)?;
        self.free.push(slot);
        self.cache.remove(key);
        Ok(true)
    }

    fn contains(&self, key: &str) -> bool {
        self.slots.contains_key(key)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn entries(&mut self) -> Result<Vec<(String, BinaryHypervector)>, HdcError> {
        let mut keys: Vec<(String, u64)> = self
            .slots
            .iter()
            .map(|(key, &slot)| (key.clone(), slot))
            .collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut entries = Vec::with_capacity(keys.len());
        for (key, slot) in keys {
            // Bypass the cache on purpose: a full scan (snapshot, warm-join
            // stream) must not evict the serving working set.
            let hv = match self.cache.get(&key) {
                Some((hv, _)) => hv.clone(),
                None => self.read_slot(slot)?,
            };
            entries.push((key, hv));
        }
        Ok(entries)
    }

    fn resident(&self) -> usize {
        self.cache.len()
    }

    fn flush(&mut self) -> Result<(), HdcError> {
        if self.index_appended > 2 * self.slots.len() as u64 + 64 {
            self.compact_index()?;
        }
        self.data
            .sync_data()
            .map_err(|e| storage("syncing pages.dat", e))?;
        self.index_log
            .sync_data()
            .map_err(|e| storage("syncing keys.idx", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-paged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn vectors(n: usize, dim: usize) -> Vec<BinaryHypervector> {
        let mut rng = StdRng::seed_from_u64(42);
        (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect()
    }

    #[test]
    fn paged_matches_resident_and_bounds_residency() {
        let dir = tmp_dir("parity");
        let budget = 8;
        let mut paged = PagedStore::open(&dir, 300, budget).unwrap();
        let mut resident = ResidentStore::new();
        let hvs = vectors(100, 300);
        for (i, hv) in hvs.iter().enumerate() {
            let key = format!("user-{i}");
            assert_eq!(
                paged.insert(&key, hv).unwrap(),
                resident.insert(&key, hv).unwrap()
            );
        }
        // Overwrites, removals, misses.
        assert!(paged.insert("user-3", &hvs[0]).unwrap());
        assert!(resident.insert("user-3", &hvs[0]).unwrap());
        assert_eq!(
            paged.remove("user-7").unwrap(),
            resident.remove("user-7").unwrap()
        );
        assert!(!paged.remove("ghost").unwrap());
        assert!(paged.get("ghost").unwrap().is_none());

        // 10× the budget served with bounded residency, bit-identically.
        assert_eq!(paged.len(), resident.len());
        for i in 0..100 {
            let key = format!("user-{i}");
            assert_eq!(
                paged.get(&key).unwrap(),
                resident.get(&key).unwrap(),
                "key {key}"
            );
            assert!(paged.resident() <= budget, "cache bound violated");
        }
        assert_eq!(paged.entries().unwrap(), resident.entries().unwrap());
        assert!(
            paged.resident() <= budget,
            "a full scan must not blow the cache bound"
        );

        // Reopen: everything survives without the cache.
        paged.flush().unwrap();
        drop(paged);
        let mut reopened = PagedStore::open(&dir, 300, budget).unwrap();
        assert_eq!(reopened.entries().unwrap(), resident.entries().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slots_are_recycled_and_index_compacts() {
        let dir = tmp_dir("recycle");
        let mut paged = PagedStore::open(&dir, 64, 4).unwrap();
        let hvs = vectors(4, 64);
        // Insert/remove churn on a small store: slot count must not grow
        // past the peak live set.
        for round in 0..150 {
            let key = format!("churn-{}", round % 3);
            paged.insert(&key, &hvs[round % 4]).unwrap();
            if round % 2 == 1 {
                paged.remove(&key).unwrap();
            }
        }
        assert!(paged.slot_count <= 4, "slots recycled, not leaked");
        let before = std::fs::metadata(dir.join("keys.idx")).unwrap().len();
        paged.flush().unwrap();
        let after = std::fs::metadata(dir.join("keys.idx")).unwrap().len();
        assert!(after < before, "compaction shrank the index log");
        // State intact after compaction + reopen.
        let live: Vec<String> = paged
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        drop(paged);
        let mut reopened = PagedStore::open(&dir, 64, 4).unwrap();
        let live_again: Vec<String> = reopened
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(live, live_again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_with_wrong_dimension_is_loud() {
        let dir = tmp_dir("dim");
        let mut paged = PagedStore::open(&dir, 128, 2).unwrap();
        paged.insert("k", &vectors(1, 128)[0]).unwrap();
        assert!(matches!(
            paged.insert("w", &vectors(1, 64)[0]),
            Err(HdcError::DimensionMismatch { .. })
        ));
        drop(paged);
        let err = PagedStore::open(&dir, 256, 2).unwrap_err();
        assert!(err.to_string().contains("128"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_index_tail_is_truncated() {
        let dir = tmp_dir("torn-idx");
        let mut paged = PagedStore::open(&dir, 64, 2).unwrap();
        let hvs = vectors(3, 64);
        for (i, hv) in hvs.iter().enumerate() {
            paged.insert(&format!("k{i}"), hv).unwrap();
        }
        drop(paged);
        let path = dir.join("keys.idx");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut reopened = PagedStore::open(&dir, 64, 2).unwrap();
        // The torn binding is gone; re-inserting it (as WAL replay would)
        // restores the full set.
        assert_eq!(reopened.len(), 2);
        reopened.insert("k2", &hvs[2]).unwrap();
        assert_eq!(reopened.get("k2").unwrap().unwrap(), hvs[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
