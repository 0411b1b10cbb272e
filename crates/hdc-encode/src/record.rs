use hdc_core::{
    BinaryHypervector, BitSlicedBundle, HdcError, HvMut, MajorityAccumulator, TieBreak,
};
use rand::Rng;

use crate::scratch::with_bundle;
use crate::Encoder;

/// Key–value record encoder: `⊕ᵢ Kᵢ ⊗ Vᵢ` (paper §6.1).
///
/// Each of the `fields` positions owns a fixed random *key* hypervector
/// `Kᵢ`; a record is encoded by binding every field's value hypervector to
/// its key and bundling the results. This is the encoding the paper uses for
/// the 18 kinematic variables of the JIGSAWS samples.
///
/// # Example
///
/// ```
/// use hdc_encode::{RecordEncoder, ScalarEncoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let value_enc = ScalarEncoder::with_levels(0.0, 1.0, 16, 10_000, &mut rng)?;
/// let record = RecordEncoder::new(3, 10_000, &mut rng)?;
///
/// let sample = record.encode(
///     &[value_enc.encode(0.1), value_enc.encode(0.5), value_enc.encode(0.9)],
///     &mut rng,
/// )?;
/// assert_eq!(sample.dim(), 10_000);
/// # Ok::<(), hdc_encode::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    keys: Vec<BinaryHypervector>,
}

impl RecordEncoder {
    /// Creates a record encoder with `fields` random key hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if `fields == 0` or
    /// [`HdcError::InvalidDimension`] if `dim == 0`.
    pub fn new(fields: usize, dim: usize, rng: &mut impl Rng) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidDimension(dim));
        }
        if fields == 0 {
            return Err(HdcError::InvalidBasisSize {
                requested: 0,
                minimum: 1,
            });
        }
        Ok(Self {
            keys: (0..fields)
                .map(|_| BinaryHypervector::random(dim, rng))
                .collect(),
        })
    }

    /// Number of fields.
    #[must_use]
    pub fn fields(&self) -> usize {
        self.keys.len()
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.keys[0].dim()
    }

    /// The key hypervector of a field.
    ///
    /// # Panics
    ///
    /// Panics if `field >= self.fields()`.
    #[must_use]
    pub fn key(&self, field: usize) -> &BinaryHypervector {
        assert!(
            field < self.keys.len(),
            "field {field} out of range for {}",
            self.keys.len()
        );
        &self.keys[field]
    }

    /// Encodes a full record: `values[i]` is bound to key `i` and the bound
    /// pairs are bundled (majority, random tie-break).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `values.len()` differs
    /// from the number of fields.
    ///
    /// # Panics
    ///
    /// Panics if any value hypervector has the wrong dimensionality.
    pub fn encode(
        &self,
        values: &[&BinaryHypervector],
        rng: &mut impl Rng,
    ) -> Result<BinaryHypervector, HdcError> {
        if values.len() != self.keys.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.keys.len(),
                found: values.len(),
            });
        }
        let mut acc = MajorityAccumulator::new(self.dim());
        for (key, value) in self.keys.iter().zip(values) {
            acc.push(&key.bind(value));
        }
        Ok(acc.finalize_random(rng))
    }

    /// Recovers (an approximation of) the value bound to `field` from an
    /// encoded record, exploiting the self-inverse property of binding:
    /// `Kᵢ ⊗ record ≈ Vᵢ + noise`. Clean up against a candidate set to get
    /// the exact value back.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of range or `record` has the wrong
    /// dimensionality.
    #[must_use]
    pub fn unbind(&self, record: &BinaryHypervector, field: usize) -> BinaryHypervector {
        self.key(field).bind(record)
    }
}

/// The trait form of [`encode`](RecordEncoder::encode): the input is the
/// slice of field values (one per key, in order) and bundling ties resolve
/// with the deterministic [`TieBreak::Alternate`] policy instead of a
/// caller RNG, so batched and per-sample encodings agree bit for bit.
impl Encoder<[BinaryHypervector]> for RecordEncoder {
    fn dim(&self) -> usize {
        self.keys[0].dim()
    }

    /// One bound push per field.
    fn row_word_ops(&self) -> usize {
        self.dim().div_ceil(64) * self.keys.len() * BitSlicedBundle::PUSH_WORD_OPS
    }

    /// Allocation-free: each bound pair `Kᵢ ⊗ Vᵢ` is added straight into
    /// the per-thread bit-sliced bundle, and the vote is resolved into the
    /// output row.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the number of fields or any
    /// value has the wrong dimensionality.
    fn encode_into(&self, input: &[BinaryHypervector], mut out: HvMut<'_>) {
        assert_eq!(
            input.len(),
            self.keys.len(),
            "record arity mismatch: expected {}, found {}",
            self.keys.len(),
            input.len()
        );
        with_bundle(self.dim(), |bundle| {
            for (key, value) in self.keys.iter().zip(input) {
                bundle.push_bound(key.view(), value.view());
            }
            bundle.finalize_into(TieBreak::Alternate, &mut out);
        });
    }

    /// Rejects a record whose length differs from the number of fields or
    /// with a value of the wrong width ([`HdcError::DimensionMismatch`]).
    fn check_input(&self, input: &[BinaryHypervector]) -> Result<(), HdcError> {
        if input.len() != self.keys.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.keys.len(),
                found: input.len(),
            });
        }
        match input.iter().find(|value| value.dim() != self.dim()) {
            Some(value) => Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                found: value.dim(),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, ScalarEncoder};
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(606)
    }

    #[test]
    fn record_similar_to_bound_pairs() {
        let mut r = rng();
        let enc = RecordEncoder::new(5, 10_000, &mut r).unwrap();
        let values: Vec<BinaryHypervector> = (0..5)
            .map(|_| BinaryHypervector::random(10_000, &mut r))
            .collect();
        let refs: Vec<&BinaryHypervector> = values.iter().collect();
        let record = enc.encode(&refs, &mut r).unwrap();
        for (i, v) in values.iter().enumerate() {
            let pair = enc.key(i).bind(v);
            assert!(record.normalized_hamming(&pair) < 0.45);
        }
    }

    #[test]
    fn unbind_recovers_values() {
        let mut r = rng();
        let enc = RecordEncoder::new(6, 10_000, &mut r).unwrap();
        let value_enc = ScalarEncoder::with_levels(0.0, 1.0, 4, 10_000, &mut r).unwrap();
        // Use well-separated scalar levels as values.
        let values: Vec<&BinaryHypervector> = vec![
            value_enc.encode(0.0),
            value_enc.encode(1.0),
            value_enc.encode(0.34),
            value_enc.encode(0.67),
            value_enc.encode(0.0),
            value_enc.encode(1.0),
        ];
        let record = enc.encode(&values, &mut r).unwrap();
        for (i, expected) in [0.0, 1.0, 0.34, 0.67, 0.0, 1.0].iter().enumerate() {
            let recovered = enc.unbind(&record, i);
            let decoded = value_enc.decode(&recovered);
            assert!(
                (decoded - expected).abs() < 0.35,
                "field {i}: decoded {decoded} want {expected}"
            );
        }
    }

    #[test]
    fn different_records_are_dissimilar() {
        let mut r = rng();
        let enc = RecordEncoder::new(4, 10_000, &mut r).unwrap();
        let a: Vec<BinaryHypervector> = (0..4)
            .map(|_| BinaryHypervector::random(10_000, &mut r))
            .collect();
        let b: Vec<BinaryHypervector> = (0..4)
            .map(|_| BinaryHypervector::random(10_000, &mut r))
            .collect();
        let ra = enc.encode(&a.iter().collect::<Vec<_>>(), &mut r).unwrap();
        let rb = enc.encode(&b.iter().collect::<Vec<_>>(), &mut r).unwrap();
        assert!((ra.normalized_hamming(&rb) - 0.5).abs() < 0.06);
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut r = rng();
        let enc = RecordEncoder::new(3, 512, &mut r).unwrap();
        let v = BinaryHypervector::random(512, &mut r);
        assert!(matches!(
            enc.encode(&[&v], &mut r),
            Err(HdcError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn rejects_invalid_construction() {
        let mut r = rng();
        assert!(RecordEncoder::new(0, 64, &mut r).is_err());
        assert!(RecordEncoder::new(3, 0, &mut r).is_err());
    }

    #[test]
    fn check_input_rejects_wrong_arity_and_width() {
        let mut r = rng();
        let enc = RecordEncoder::new(2, 128, &mut r).unwrap();
        let good = BinaryHypervector::random(128, &mut r);
        let narrow = BinaryHypervector::random(64, &mut r);
        assert_eq!(enc.check_input(&[good.clone(), good.clone()]), Ok(()));
        assert_eq!(
            enc.check_input(std::slice::from_ref(&good)),
            Err(HdcError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            enc.check_input(&[good, narrow]),
            Err(HdcError::DimensionMismatch {
                expected: 128,
                found: 64
            })
        );
    }
}
