use hdc_basis::BasisKind;
use hdc_core::{BinaryHypervector, BitSlicedBundle, HdcError, HvMut, TieBreak};
use rand::Rng;

use crate::scratch::with_bundle;
use crate::{AngleEncoder, CategoricalEncoder, Encoder, ScalarEncoder};

/// How one position of a [`FeatureRecordEncoder`] interprets its raw `f64`
/// feature value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldSpec {
    /// A linear quantity quantized over `[low, high]` (clamped), encoded
    /// through the record's basis family.
    Scalar {
        /// Lower bound of the field's interval.
        low: f64,
        /// Upper bound of the field's interval.
        high: f64,
    },
    /// A circular quantity in radians (wrapped into `[0, 2π)`), encoded
    /// through the record's basis family — wrap-correct when that family is
    /// circular.
    Angle,
    /// A symbol index in `0..n` (the value is rounded to the nearest
    /// integer), encoded through an independent random basis.
    Categorical {
        /// Number of categories.
        n: usize,
    },
}

impl FieldSpec {
    /// A linear field over `[low, high]`.
    #[must_use]
    pub fn scalar(low: f64, high: f64) -> Self {
        FieldSpec::Scalar { low, high }
    }

    /// A circular field (radians).
    #[must_use]
    pub fn angle() -> Self {
        FieldSpec::Angle
    }

    /// A categorical field with `n` symbols.
    #[must_use]
    pub fn categorical(n: usize) -> Self {
        FieldSpec::Categorical { n }
    }
}

#[derive(Debug, Clone)]
enum FieldEncoder {
    Scalar(ScalarEncoder),
    Angle(AngleEncoder),
    Categorical(CategoricalEncoder),
}

/// Record encoder over **raw feature rows**: a `&[f64]` sample is encoded
/// as `⊕ᵢ Kᵢ ⊗ φᵢ(xᵢ)`, with one [`FieldSpec`]-driven value encoder `φᵢ`
/// and one random key hypervector `Kᵢ` per field.
///
/// This is the one-object form of the paper's §6.1 pipeline (quantize each
/// of the 18 JIGSAWS kinematic variables, bind to its field key, bundle):
/// where [`RecordEncoder`](crate::RecordEncoder) takes already encoded
/// field hypervectors, this encoder owns the per-field value encoders too,
/// so a whole feature-vector workload needs no hand-wired glue. It is the
/// encoder behind `hdc-serve`'s record pipelines.
///
/// Ties resolve with the deterministic
/// [`TieBreak::Alternate`](hdc_core::TieBreak::Alternate) policy and the
/// hot path bundles through a per-thread
/// [`BitSlicedBundle`](hdc_core::BitSlicedBundle), so per-sample encoding
/// is deterministic and allocation-free.
///
/// # Example
///
/// ```
/// use hdc_basis::BasisKind;
/// use hdc_encode::{Encoder, FeatureRecordEncoder, FieldSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let enc = FeatureRecordEncoder::new(
///     &[
///         FieldSpec::scalar(0.0, 40.0),  // temperature
///         FieldSpec::angle(),            // wind direction (radians)
///         FieldSpec::categorical(4),     // season id
///     ],
///     16,
///     10_000,
///     BasisKind::Circular { randomness: 0.0 },
///     &mut rng,
/// )?;
/// let hv = enc.encode_hv(&[21.5, 1.2, 3.0][..]);
/// assert_eq!(hv.dim(), 10_000);
/// # Ok::<(), hdc_encode::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FeatureRecordEncoder {
    keys: Vec<BinaryHypervector>,
    fields: Vec<FieldEncoder>,
}

impl FeatureRecordEncoder {
    /// Creates an encoder with one value encoder and one random key per
    /// field. Scalar and angle fields quantize into `m` levels/sectors of
    /// the `kind` basis family; categorical fields use their own random
    /// basis (symbols carry no ordinal structure).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] if `fields` is empty, `dim == 0`, `m < 2`, a
    /// scalar interval is invalid or a categorical field has `n == 0`.
    pub fn new(
        fields: &[FieldSpec],
        m: usize,
        dim: usize,
        kind: BasisKind,
        rng: &mut impl Rng,
    ) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidDimension(dim));
        }
        if fields.is_empty() {
            return Err(HdcError::InvalidBasisSize {
                requested: 0,
                minimum: 1,
            });
        }
        let encoders = fields
            .iter()
            .map(|&field| {
                Ok(match field {
                    FieldSpec::Scalar { low, high } => FieldEncoder::Scalar(
                        ScalarEncoder::with_kind(low, high, m, dim, kind, rng)?,
                    ),
                    FieldSpec::Angle => {
                        let basis = kind.build(m, dim, rng)?;
                        FieldEncoder::Angle(AngleEncoder::from_basis(basis.as_ref())?)
                    }
                    FieldSpec::Categorical { n } => {
                        FieldEncoder::Categorical(CategoricalEncoder::new(n, dim, rng)?)
                    }
                })
            })
            .collect::<Result<Vec<_>, HdcError>>()?;
        Ok(Self {
            keys: (0..fields.len())
                .map(|_| BinaryHypervector::random(dim, rng))
                .collect(),
            fields: encoders,
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

    /// The encoded value hypervector of one field (before key binding).
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of range or the value is invalid for the
    /// field (categorical index out of `0..n`).
    #[must_use]
    pub fn field_value(&self, field: usize, value: f64) -> &BinaryHypervector {
        assert!(
            field < self.fields.len(),
            "field {field} out of range for {}",
            self.fields.len()
        );
        match &self.fields[field] {
            FieldEncoder::Scalar(enc) => enc.encode(value),
            FieldEncoder::Angle(enc) => enc.encode(value),
            FieldEncoder::Categorical(enc) => {
                let n = enc.categories();
                let Some(index) = category_index(value, n) else {
                    panic!(
                        "categorical field {field} value {value} out of range for {n} categories"
                    );
                };
                enc.encode(index)
            }
        }
    }
}

/// The symbol a categorical field's raw value names: the value rounded to
/// the nearest integer, if that indexes the field's `n` categories.
fn category_index(value: f64, n: usize) -> Option<usize> {
    let index = value.round();
    (index >= 0.0 && (index as usize) < n).then_some(index as usize)
}

/// The input is the raw feature row, one `f64` per field in order.
impl Encoder<[f64]> for FeatureRecordEncoder {
    fn dim(&self) -> usize {
        self.keys[0].dim()
    }

    /// One bound push per field.
    fn row_word_ops(&self) -> usize {
        self.dim().div_ceil(64) * self.keys.len() * BitSlicedBundle::PUSH_WORD_OPS
    }

    /// Allocation-free: each bound pair `Kᵢ ⊗ φᵢ(xᵢ)` is added straight
    /// into the per-thread bit-sliced bundle, and the vote is resolved
    /// into the output row.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the number of fields or a
    /// categorical value is out of range.
    fn encode_into(&self, input: &[f64], mut out: HvMut<'_>) {
        assert_eq!(
            input.len(),
            self.keys.len(),
            "record arity mismatch: expected {}, found {}",
            self.keys.len(),
            input.len()
        );
        with_bundle(self.dim(), |bundle| {
            for (field, (key, &value)) in self.keys.iter().zip(input).enumerate() {
                bundle.push_bound(key.view(), self.field_value(field, value).view());
            }
            bundle.finalize_into(TieBreak::Alternate, &mut out);
        });
    }

    /// Rejects a row whose length differs from the number of fields
    /// ([`HdcError::DimensionMismatch`]) or whose categorical value does
    /// not round to one of its field's categories
    /// ([`HdcError::SymbolOutOfRange`]).
    fn check_input(&self, input: &[f64]) -> Result<(), HdcError> {
        if input.len() != self.keys.len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.keys.len(),
                found: input.len(),
            });
        }
        for (field, &value) in self.fields.iter().zip(input) {
            if let FieldEncoder::Categorical(enc) = field {
                let symbols = enc.categories();
                if category_index(value, symbols).is_none() {
                    return Err(HdcError::SymbolOutOfRange { value, symbols });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::MajorityAccumulator;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEA7)
    }

    fn three_field_encoder(r: &mut StdRng) -> FeatureRecordEncoder {
        FeatureRecordEncoder::new(
            &[
                FieldSpec::scalar(0.0, 1.0),
                FieldSpec::angle(),
                FieldSpec::categorical(5),
            ],
            8,
            4_096,
            BasisKind::Circular { randomness: 0.0 },
            r,
        )
        .unwrap()
    }

    #[test]
    fn matches_manual_bind_bundle_reference() {
        // Every arity from 1 to 20 fields: even counts tie on some
        // dimensions, and the bit-sliced bundle must resolve them exactly
        // as bind + `MajorityAccumulator` does.
        let mut r = rng();
        for dim in [1usize, 65, 130, 4_096, 10_000] {
            for fields in 1..=20 {
                let specs: Vec<FieldSpec> = (0..fields)
                    .map(|f| match f % 3 {
                        0 => FieldSpec::scalar(0.0, 1.0),
                        1 => FieldSpec::angle(),
                        _ => FieldSpec::categorical(5),
                    })
                    .collect();
                let kind = BasisKind::Circular { randomness: 0.0 };
                let enc = FeatureRecordEncoder::new(&specs, 8, dim, kind, &mut r).unwrap();
                let sample: Vec<f64> = (0..fields)
                    .map(|f| match f % 3 {
                        0 => r.random_range(0.0..1.0),
                        1 => r.random_range(0.0..std::f64::consts::TAU),
                        _ => f64::from(r.random_range(0u32..5)),
                    })
                    .collect();
                let mut acc = MajorityAccumulator::new(dim);
                for (i, &x) in sample.iter().enumerate() {
                    let mut keys_bound = enc.field_value(i, x).clone();
                    keys_bound.bind_assign(&enc.keys[i]);
                    acc.push(&keys_bound);
                }
                assert_eq!(
                    enc.encode_hv(&sample[..]),
                    acc.finalize(TieBreak::Alternate),
                    "dim={dim} fields={fields}"
                );
            }
        }
    }

    #[test]
    fn check_input_rejects_exactly_what_encoding_panics_on() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        assert_eq!(enc.check_input(&[0.4, 2.0, 3.0][..]), Ok(()));
        // Out-of-range scalars clamp and angles wrap: both are valid.
        assert_eq!(enc.check_input(&[-9.0, 40.0, 4.4][..]), Ok(()));
        assert_eq!(
            enc.check_input(&[0.1][..]),
            Err(HdcError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        );
        for bad in [7.0, -0.6, 4.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    enc.check_input(&[0.1, 0.0, bad][..]),
                    Err(HdcError::SymbolOutOfRange { symbols: 5, .. })
                ),
                "categorical value {bad}"
            );
        }
    }

    #[test]
    fn similar_samples_are_similar() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        let base = enc.encode_hv(&[0.50, 1.0, 2.0][..]);
        let near = enc.encode_hv(&[0.55, 1.1, 2.0][..]);
        let far = enc.encode_hv(&[0.95, 4.0, 4.0][..]);
        assert!(base.normalized_hamming(&near) < base.normalized_hamming(&far));
    }

    #[test]
    fn angle_fields_wrap() {
        let mut r = rng();
        let enc = FeatureRecordEncoder::new(
            &[FieldSpec::angle()],
            24,
            10_000,
            BasisKind::Circular { randomness: 0.0 },
            &mut r,
        )
        .unwrap();
        let tau = std::f64::consts::TAU;
        let before_wrap = enc.encode_hv(&[tau - 0.05][..]);
        let after_wrap = enc.encode_hv(&[0.05][..]);
        let opposite = enc.encode_hv(&[tau / 2.0][..]);
        assert!(
            before_wrap.normalized_hamming(&after_wrap) < before_wrap.normalized_hamming(&opposite)
        );
    }

    #[test]
    fn batched_matches_per_sample() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        let samples: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 / 8.0, i as f64, (i % 5) as f64])
            .collect();
        let batch = enc.encode_batch(samples.iter().map(Vec::as_slice));
        for (row, sample) in batch.rows().zip(&samples) {
            assert_eq!(row.to_hypervector(), enc.encode_hv(sample.as_slice()));
        }
    }

    #[test]
    fn rejects_invalid_construction() {
        let mut r = rng();
        let kind = BasisKind::Random;
        assert!(FeatureRecordEncoder::new(&[], 8, 64, kind, &mut r).is_err());
        assert!(FeatureRecordEncoder::new(&[FieldSpec::angle()], 8, 0, kind, &mut r).is_err());
        assert!(
            FeatureRecordEncoder::new(&[FieldSpec::scalar(1.0, 0.0)], 8, 64, kind, &mut r).is_err()
        );
        assert!(
            FeatureRecordEncoder::new(&[FieldSpec::categorical(0)], 8, 64, kind, &mut r).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        let _ = enc.encode_hv(&[0.1][..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn categorical_out_of_range_panics() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        let _ = enc.encode_hv(&[0.1, 0.0, 7.0][..]);
    }

    #[test]
    fn accessors() {
        let mut r = rng();
        let enc = three_field_encoder(&mut r);
        assert_eq!(enc.fields(), 3);
        assert_eq!(enc.dim(), 4_096);
        assert_eq!(Encoder::dim(&enc), 4_096);
    }
}
