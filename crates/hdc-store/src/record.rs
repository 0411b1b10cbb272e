//! The write-ahead log's record vocabulary and its binary codec, plus the
//! CRC-32 every durable frame in this crate is protected by.

use std::io;

use hdc_core::BinaryHypervector;

use crate::codec::{self, Cursor};

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib one), slicing-by-8:
/// eight bytes per step through eight lookup tables, then a bytewise tail.
/// Every record frame, snapshot blob and index entry in this crate carries
/// one so a torn or bit-flipped write is detected rather than replayed.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so one step folds eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_FIT: u8 = 3;
const TAG_FIT_VALUE: u8 = 4;

/// One logged state mutation. Replaying a log means applying these in
/// order: `Insert`/`Remove` against the item memory, `Fit`/`FitValue`
/// against the online trainer's accumulators. Fit folding is commutative
/// integer addition, so recovery is bit-identical however the trainer
/// interleaved observations with predictions.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An item-memory upsert (idempotent: replaying an insert twice leaves
    /// the same entry).
    Insert {
        /// The item key.
        key: String,
        /// The stored hypervector.
        hv: BinaryHypervector,
    },
    /// An item-memory removal (idempotent).
    Remove {
        /// The removed key.
        key: String,
    },
    /// One classification training observation, already encoded.
    Fit {
        /// The encoded observation.
        hv: BinaryHypervector,
        /// Its class label.
        label: u64,
    },
    /// One regression training observation, already encoded.
    FitValue {
        /// The encoded observation.
        hv: BinaryHypervector,
        /// Its real-valued label.
        value: f64,
    },
}

impl WalRecord {
    /// The record's frame payload: a one-byte tag followed by the fields,
    /// in the crate's codec conventions. The frame (length + CRC) is added
    /// by the [`Wal`](crate::Wal).
    ///
    /// # Errors
    ///
    /// Returns an error for a hypervector wider than `u32` dimensions.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(32);
        match self {
            WalRecord::Insert { key, hv } => {
                buf.push(TAG_INSERT);
                codec::put_long_string(&mut buf, key);
                codec::put_hv(&mut buf, hv)?;
            }
            WalRecord::Remove { key } => {
                buf.push(TAG_REMOVE);
                codec::put_long_string(&mut buf, key);
            }
            WalRecord::Fit { hv, label } => {
                buf.push(TAG_FIT);
                codec::put_u64(&mut buf, *label);
                codec::put_hv(&mut buf, hv)?;
            }
            WalRecord::FitValue { hv, value } => {
                buf.push(TAG_FIT_VALUE);
                codec::put_f64(&mut buf, *value);
                codec::put_hv(&mut buf, hv)?;
            }
        }
        Ok(buf)
    }

    /// Decodes one frame payload. Rejects unknown tags, truncated fields
    /// and trailing bytes — a CRC-valid but undecodable record means a
    /// format mismatch, which replay treats as loud corruption everywhere
    /// (never as a tolerable torn tail).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] for any malformed payload.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut cursor = Cursor::new(payload);
        let record = match cursor.u8()? {
            TAG_INSERT => {
                let key = cursor.long_string()?;
                let hv = cursor.hv()?;
                WalRecord::Insert { key, hv }
            }
            TAG_REMOVE => WalRecord::Remove {
                key: cursor.long_string()?,
            },
            TAG_FIT => {
                let label = cursor.u64()?;
                let hv = cursor.hv()?;
                WalRecord::Fit { hv, label }
            }
            TAG_FIT_VALUE => {
                let value = cursor.f64()?;
                let hv = cursor.hv()?;
                WalRecord::FitValue { hv, value }
            }
            tag => return Err(codec::invalid(format!("unknown WAL record tag {tag}"))),
        };
        cursor.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The plain one-table walk the sliced form must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_walk() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut bytes = vec![0u8; 308];
        rand::RngCore::fill_bytes(&mut rng, &mut bytes);
        // Every length 0..=300 at every start offset 0..8: each tail
        // length and each alignment of the 8-byte steps.
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn records_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let hv = BinaryHypervector::random(300, &mut rng);
        let records = [
            WalRecord::Insert {
                key: "user-1".into(),
                hv: hv.clone(),
            },
            WalRecord::Remove { key: String::new() },
            WalRecord::Fit {
                hv: hv.clone(),
                label: 3,
            },
            WalRecord::FitValue { hv, value: -1.5 },
        ];
        for record in records {
            let payload = record.encode().unwrap();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        let mut payload = WalRecord::Remove { key: "k".into() }.encode().unwrap();
        payload.push(0);
        assert!(WalRecord::decode(&payload).is_err(), "trailing byte");
    }
}
