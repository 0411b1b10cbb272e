//! The per-record WAL compression codec, the one the log writes: every
//! frame payload in an adaptive segment opens with one record-codec byte
//! choosing how the record's hypervector is encoded, and the choice is
//! made per record by *measuring* every candidate and keeping the
//! smallest.
//!
//! # Why this pays
//!
//! Level and circular bases build adjacent levels by flipping a small
//! slice of coordinates, so the hypervectors a serving stream logs are
//! low-effective-information: consecutive observations of a slowly
//! moving signal differ by a sparse set of flips, and a bounded stream
//! revisits the same level vectors over and over. The codec exploits
//! exactly that structure:
//!
//! * **delta** — XOR against one of the last [`DICT_SLOTS`] hypervectors
//!   in the same segment (an exact revisit costs ~4 bytes; an adjacent
//!   level costs one varint gap per flipped bit);
//! * **sparse** — gap-coded set-bit (or clear-bit) positions, for
//!   intrinsically low/high-density vectors;
//! * **RLE** — word-wise run-length encoding, the fallback for constant
//!   regions (all-zero / all-one stretches);
//! * **raw** — the plain [`WalRecord`] payload, kept whenever nothing
//!   measured smaller, so dense random vectors never regress.
//!
//! # Determinism contract
//!
//! The delta dictionary is a ring of the hypervectors carried by the
//! last [`DICT_SLOTS`] hv-bearing records, updated identically by the
//! encoder and the decoder from the *decoded* content, and reset at
//! every segment boundary — so any segment replays standalone, in one
//! forward pass, bit-identically to what was appended. An unknown
//! record-codec byte is a format mismatch and decodes loudly (the WAL
//! treats it as corruption of acknowledged state, never a torn tail).

use std::io;

use hdc_core::BinaryHypervector;

use crate::codec::{self, Cursor};
use crate::record::WalRecord;

/// Record-codec byte: the payload after it is a plain [`WalRecord`].
pub(crate) const REC_RAW: u8 = 0;
/// Gap-coded set-bit positions of the hypervector.
const REC_SPARSE: u8 = 1;
/// Gap-coded clear-bit positions (for high-density vectors).
const REC_SPARSE_INV: u8 = 2;
/// Gap-coded XOR against a recent record's hypervector.
const REC_DELTA: u8 = 3;
/// Word-wise run-length encoding.
const REC_RLE: u8 = 4;

/// Ring capacity of the delta dictionary. Sixteen recent hypervectors
/// cover the working set of a level walk without making the per-record
/// nearest-neighbour scan noticeable next to the 1.25 KB raw encode.
const DICT_SLOTS: usize = 16;

/// The delta dictionary: a ring of the hypervectors carried by the most
/// recent hv-bearing records of the current segment. Both halves of the
/// codec maintain it from decoded content, so it never needs to be
/// persisted.
#[derive(Debug, Default)]
pub(crate) struct CodecDict {
    entries: Vec<BinaryHypervector>,
    next: usize,
}

impl CodecDict {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Forgets everything — called at every segment boundary so segments
    /// stay self-contained.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.next = 0;
    }

    fn push(&mut self, hv: &BinaryHypervector) {
        if self.entries.len() < DICT_SLOTS {
            self.entries.push(hv.clone());
        } else {
            // Overwrites the evicted slot in place: once the ring is full,
            // a record of the same width allocates nothing.
            self.entries[self.next].clone_from(hv);
        }
        self.next = (self.next + 1) % DICT_SLOTS;
    }

    /// The closest dictionary entry of the same dimension, by Hamming
    /// distance.
    fn nearest(&self, hv: &BinaryHypervector) -> Option<(usize, usize)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.dim() == hv.dim())
            .map(|(slot, entry)| (slot, entry.hamming(hv)))
            .min_by_key(|&(_, distance)| distance)
    }
}

/// Appends the ascending `indices` as varint gaps: the first index
/// verbatim, then successor-minus-predecessor-minus-one.
fn put_gaps(buf: &mut Vec<u8>, indices: &[u32]) {
    codec::put_varint(buf, indices.len() as u64);
    let mut previous = None;
    for &index in indices {
        match previous {
            None => codec::put_varint(buf, u64::from(index)),
            Some(p) => codec::put_varint(buf, u64::from(index - p - 1)),
        }
        previous = Some(index);
    }
}

/// Reads gap-coded indices back, validating ascending order and the
/// `dim` bound.
fn read_gaps(cursor: &mut Cursor<'_>, dim: usize) -> io::Result<Vec<u32>> {
    let count = cursor.varint()?;
    let count = usize::try_from(count).map_err(|_| codec::invalid("gap count exceeds usize"))?;
    if count > dim {
        return Err(codec::invalid("more gap indices than dimensions"));
    }
    let mut indices = Vec::with_capacity(count.min(cursor.remaining() + 1));
    let mut at: u64 = 0;
    for i in 0..count {
        let gap = cursor.varint()?;
        at = if i == 0 { gap } else { at + 1 + gap };
        if at >= dim as u64 {
            return Err(codec::invalid("gap index beyond the hypervector dimension"));
        }
        indices.push(at as u32);
    }
    Ok(indices)
}

/// The set-bit positions of `hv` (optionally inverted), ascending.
fn bit_positions(hv: &BinaryHypervector, inverted: bool) -> Vec<u32> {
    let dim = hv.dim();
    let mut positions = Vec::new();
    for (w, &word) in hv.as_words().iter().enumerate() {
        let mut bits = if inverted { !word } else { word };
        if inverted {
            // Mask padding bits past the dimension in the last word.
            let rem = dim % 64;
            if rem != 0 && w == hv.as_words().len() - 1 {
                bits &= (1u64 << rem) - 1;
            }
        }
        let base = (w * 64) as u32;
        while bits != 0 {
            positions.push(base + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    positions
}

/// The XOR flip positions between two same-dimension hypervectors.
fn xor_positions(a: &BinaryHypervector, b: &BinaryHypervector) -> Vec<u32> {
    let mut positions = Vec::new();
    for (w, (&wa, &wb)) in a.as_words().iter().zip(b.as_words()).enumerate() {
        let mut bits = wa ^ wb;
        let base = (w * 64) as u32;
        while bits != 0 {
            positions.push(base + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    positions
}

fn hv_from_positions(dim: usize, positions: &[u32]) -> BinaryHypervector {
    let mut hv = BinaryHypervector::zeros(dim);
    for &p in positions {
        hv.set(p as usize, true);
    }
    hv
}

/// Word-wise runs of `hv`: `(run_length, word)` pairs.
fn word_runs(hv: &BinaryHypervector) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &word in hv.as_words() {
        match runs.last_mut() {
            Some((len, w)) if *w == word => *len += 1,
            _ => runs.push((1, word)),
        }
    }
    runs
}

/// The record tag and non-hypervector fields, exactly as the raw codec
/// lays them out — the compressed layouts reuse this prefix and replace
/// only the trailing hypervector block.
fn record_prefix(record: &WalRecord) -> Option<Vec<u8>> {
    let mut buf = Vec::with_capacity(16);
    match record {
        WalRecord::Insert { key, hv: _ } => {
            buf.push(1);
            codec::put_long_string(&mut buf, key);
        }
        WalRecord::Fit { hv: _, label } => {
            buf.push(3);
            codec::put_u64(&mut buf, *label);
        }
        WalRecord::FitValue { hv: _, value } => {
            buf.push(4);
            codec::put_f64(&mut buf, *value);
        }
        WalRecord::Remove { .. } => return None,
    }
    Some(buf)
}

fn record_hv(record: &WalRecord) -> Option<&BinaryHypervector> {
    match record {
        WalRecord::Insert { hv, .. }
        | WalRecord::Fit { hv, .. }
        | WalRecord::FitValue { hv, .. } => Some(hv),
        WalRecord::Remove { .. } => None,
    }
}

/// Encodes one record for a tagged segment, measuring every plausible
/// candidate and keeping the smallest payload. Always correct, never
/// larger than raw plus the one-byte record-codec tag.
pub(crate) fn encode_tagged(record: &WalRecord, dict: &mut CodecDict) -> io::Result<Vec<u8>> {
    let raw = record.encode()?;
    let mut best = Vec::with_capacity(raw.len() + 1);
    best.push(REC_RAW);
    best.extend_from_slice(&raw);

    if let (Some(prefix), Some(hv)) = (record_prefix(record), record_hv(record)) {
        let dim = hv.dim();
        let assemble = |tag: u8, block: &[u8]| {
            let mut buf = Vec::with_capacity(1 + prefix.len() + block.len());
            buf.push(tag);
            buf.extend_from_slice(&prefix);
            buf.extend_from_slice(block);
            buf
        };
        // Delta against the nearest recent record: the big win for
        // level/circular streams (revisits and adjacent levels).
        if let Some((slot, distance)) = dict.nearest(hv) {
            if distance + 8 < best.len() {
                let mut block = Vec::with_capacity(8 + 2 * distance);
                codec::put_varint(&mut block, dim as u64);
                block.push(slot as u8);
                put_gaps(&mut block, &xor_positions(hv, &dict.entries[slot]));
                if 1 + prefix.len() + block.len() < best.len() {
                    best = assemble(REC_DELTA, &block);
                }
            }
        }
        // Sparse set/clear bits, whichever side is lighter.
        let ones = hv.count_ones();
        let (sparse_tag, inverted, k) = if ones <= dim - ones {
            (REC_SPARSE, false, ones)
        } else {
            (REC_SPARSE_INV, true, dim - ones)
        };
        if k + 8 < best.len() {
            let mut block = Vec::with_capacity(8 + 2 * k);
            codec::put_varint(&mut block, dim as u64);
            put_gaps(&mut block, &bit_positions(hv, inverted));
            if 1 + prefix.len() + block.len() < best.len() {
                best = assemble(sparse_tag, &block);
            }
        }
        // Word-wise RLE: catches constant regions the bit codecs miss.
        let runs = word_runs(hv);
        if runs.len() * 9 + 8 < best.len() {
            let mut block = Vec::with_capacity(8 + runs.len() * 12);
            codec::put_varint(&mut block, dim as u64);
            codec::put_varint(&mut block, runs.len() as u64);
            for (len, word) in &runs {
                codec::put_varint(&mut block, *len);
                codec::put_u64(&mut block, *word);
            }
            if 1 + prefix.len() + block.len() < best.len() {
                best = assemble(REC_RLE, &block);
            }
        }
        dict.push(hv);
    }
    Ok(best)
}

fn read_dim(cursor: &mut Cursor<'_>) -> io::Result<usize> {
    let dim = cursor.varint()?;
    if dim == 0 || dim > u64::from(u32::MAX) {
        return Err(codec::invalid("compressed record has invalid dimension"));
    }
    Ok(dim as usize)
}

/// Decodes one tagged-segment payload, updating the dictionary exactly
/// as the encoder did. Unknown record-codec bytes, bounds violations and
/// trailing bytes are all loud [`io::ErrorKind::InvalidData`] — a
/// CRC-valid but undecodable record means acknowledged state the reader
/// cannot reproduce.
pub(crate) fn decode_tagged(payload: &[u8], dict: &mut CodecDict) -> io::Result<WalRecord> {
    let Some((&rec_codec, body)) = payload.split_first() else {
        return Err(codec::invalid("empty tagged record payload"));
    };
    if rec_codec == REC_RAW {
        let record = WalRecord::decode(body)?;
        if let Some(hv) = record_hv(&record) {
            dict.push(hv);
        }
        return Ok(record);
    }
    if !(REC_SPARSE..=REC_RLE).contains(&rec_codec) {
        return Err(codec::invalid(format!(
            "unknown WAL record codec {rec_codec}"
        )));
    }
    let mut cursor = Cursor::new(body);
    let tag = cursor.u8()?;
    enum Prefix {
        Insert(String),
        Fit(u64),
        FitValue(f64),
    }
    let prefix = match tag {
        1 => Prefix::Insert(cursor.long_string()?),
        3 => Prefix::Fit(cursor.u64()?),
        4 => Prefix::FitValue(cursor.f64()?),
        tag => {
            return Err(codec::invalid(format!(
                "record tag {tag} cannot carry a compressed hypervector"
            )))
        }
    };
    let dim = read_dim(&mut cursor)?;
    let hv = match rec_codec {
        REC_SPARSE => hv_from_positions(dim, &read_gaps(&mut cursor, dim)?),
        REC_SPARSE_INV => {
            let mut hv = BinaryHypervector::ones(dim);
            for p in read_gaps(&mut cursor, dim)? {
                hv.set(p as usize, false);
            }
            hv
        }
        REC_DELTA => {
            let slot = cursor.u8()? as usize;
            let base = dict.entries.get(slot).ok_or_else(|| {
                codec::invalid("delta record references an empty dictionary slot")
            })?;
            if base.dim() != dim {
                return Err(codec::invalid(
                    "delta record dimension differs from its dictionary base",
                ));
            }
            let mut hv = base.clone();
            for p in read_gaps(&mut cursor, dim)? {
                hv.flip(p as usize);
            }
            hv
        }
        REC_RLE => {
            let words = dim.div_ceil(64);
            let nruns = cursor.varint()?;
            let nruns =
                usize::try_from(nruns).map_err(|_| codec::invalid("run count exceeds usize"))?;
            let mut packed = Vec::with_capacity(words.min(cursor.remaining() + 1));
            for _ in 0..nruns {
                let len = cursor.varint()?;
                let word = cursor.u64()?;
                for _ in 0..len {
                    if packed.len() == words {
                        return Err(codec::invalid("RLE runs exceed the hypervector width"));
                    }
                    packed.push(word);
                }
            }
            if packed.len() != words {
                return Err(codec::invalid("RLE runs do not cover the hypervector"));
            }
            let rem = dim % 64;
            if rem != 0 && packed.last().is_some_and(|&last| last >> rem != 0) {
                return Err(codec::invalid("bits set beyond the hypervector dimension"));
            }
            BinaryHypervector::from_words(dim, packed)
        }
        _ => unreachable!("codec byte validated above"),
    };
    cursor.finish()?;
    dict.push(&hv);
    Ok(match prefix {
        Prefix::Insert(key) => WalRecord::Insert { key, hv },
        Prefix::Fit(label) => WalRecord::Fit { hv, label },
        Prefix::FitValue(value) => WalRecord::FitValue { hv, value },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip(records: &[WalRecord]) {
        let mut enc = CodecDict::new();
        let mut dec = CodecDict::new();
        for record in records {
            let payload = encode_tagged(record, &mut enc).unwrap();
            let back = decode_tagged(&payload, &mut dec).unwrap();
            assert_eq!(&back, record);
        }
    }

    #[test]
    fn a_full_ring_overwrites_its_evicted_slot_in_place() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut dict = CodecDict::new();
        for _ in 0..DICT_SLOTS {
            dict.push(&BinaryHypervector::random(640, &mut rng));
        }
        let buffer = dict.entries[0].as_words().as_ptr();
        let next = BinaryHypervector::random(640, &mut rng);
        dict.push(&next);
        assert_eq!(dict.entries[0], next);
        assert_eq!(dict.entries[0].as_words().as_ptr(), buffer, "slot reused");
        // A record of another width still takes the next slot whole.
        let wide = BinaryHypervector::random(1024, &mut rng);
        dict.push(&wide);
        assert_eq!(dict.entries[1], wide);
    }

    #[test]
    fn dense_random_records_round_trip_as_raw() {
        let mut rng = StdRng::seed_from_u64(3);
        let records: Vec<WalRecord> = (0..8)
            .map(|i| WalRecord::Fit {
                hv: BinaryHypervector::random(1024, &mut rng),
                label: i,
            })
            .collect();
        // Dense random vectors are incompressible; the adaptive codec
        // must not bloat them past raw + tag.
        let mut dict = CodecDict::new();
        for record in &records {
            let payload = encode_tagged(record, &mut dict).unwrap();
            assert!(payload.len() <= record.encode().unwrap().len() + 1);
        }
        roundtrip(&records);
    }

    #[test]
    fn level_walk_compresses_via_delta() {
        // A slow level walk: each record flips 8 bits of its predecessor
        // — the structure circular/level bases produce.
        let mut rng = StdRng::seed_from_u64(4);
        let mut hv = BinaryHypervector::random(4096, &mut rng);
        let mut records = Vec::new();
        for i in 0..32 {
            let flips: Vec<usize> = (0..8).map(|_| rng.random_range(0..4096)).collect();
            hv.flip_positions(&flips);
            records.push(WalRecord::Fit {
                hv: hv.clone(),
                label: i,
            });
        }
        let mut dict = CodecDict::new();
        let mut total = 0usize;
        for record in &records {
            total += encode_tagged(record, &mut dict).unwrap().len();
        }
        let raw: usize = records.iter().map(|r| r.encode().unwrap().len()).sum();
        assert!(
            total * 3 < raw,
            "delta coding must compress a level walk at least 3x ({total} vs {raw})"
        );
        roundtrip(&records);
    }

    #[test]
    fn sparse_and_rle_and_mixed_records_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sparse = BinaryHypervector::zeros(2048);
        for _ in 0..20 {
            sparse.set(rng.random_range(0..2048), true);
        }
        let mut dense = BinaryHypervector::ones(2000);
        for _ in 0..20 {
            dense.set(rng.random_range(0..2000), false);
        }
        let records = vec![
            WalRecord::Insert {
                key: "sparse".into(),
                hv: sparse,
            },
            WalRecord::Remove { key: "gone".into() },
            WalRecord::FitValue {
                hv: dense,
                value: -2.5,
            },
            WalRecord::Fit {
                hv: BinaryHypervector::zeros(777),
                label: 1,
            },
            WalRecord::Fit {
                hv: BinaryHypervector::random(333, &mut rng),
                label: 2,
            },
        ];
        roundtrip(&records);
    }

    #[test]
    fn unknown_record_codec_is_loud() {
        let err = decode_tagged(&[9, 3, 0], &mut CodecDict::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown WAL record codec"));
    }

    #[test]
    fn delta_against_missing_slot_is_loud() {
        // Craft a delta record by encoding against a warm dictionary,
        // then decode with a cold one.
        let mut enc = CodecDict::new();
        let mut rng = StdRng::seed_from_u64(6);
        let base = BinaryHypervector::random(512, &mut rng);
        encode_tagged(
            &WalRecord::Fit {
                hv: base.clone(),
                label: 0,
            },
            &mut enc,
        )
        .unwrap();
        let mut step = base.clone();
        step.flip(7);
        let payload = encode_tagged(&WalRecord::Fit { hv: step, label: 1 }, &mut enc).unwrap();
        assert_eq!(payload[0], REC_DELTA);
        let err = decode_tagged(&payload, &mut CodecDict::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut dict = CodecDict::new();
        let mut payload = encode_tagged(
            &WalRecord::Fit {
                hv: BinaryHypervector::zeros(256),
                label: 0,
            },
            &mut dict,
        )
        .unwrap();
        assert_ne!(payload[0], REC_RAW, "zeros vector must compress");
        payload.push(0);
        assert!(decode_tagged(&payload, &mut CodecDict::new()).is_err());
    }
}
