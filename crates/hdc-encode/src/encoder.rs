//! The unifying [`Encoder`] trait: one interface over all of this crate's
//! encoders, with in-place (`encode_into`) and batched (`encode_batch`)
//! forms.
//!
//! `Input` is the encoder's input type — `f64` (domain values) for
//! [`ScalarEncoder`](crate::ScalarEncoder), [`Radians`] for
//! [`AngleEncoder`](crate::AngleEncoder), `usize` for
//! [`CategoricalEncoder`](crate::CategoricalEncoder), `[usize]` for
//! [`SequenceEncoder`](crate::SequenceEncoder) and `[BinaryHypervector]`
//! for [`RecordEncoder`](crate::RecordEncoder) — so generic pipelines
//! (classifier training loops, batch throughput harnesses, the experiment
//! drivers) can be written once against `E: Encoder<I>`.
//!
//! The default [`encode_batch`](Encoder::encode_batch) writes each row of a
//! contiguous [`HypervectorBatch`] arena, fanning the rows out across
//! scoped worker threads (`minipool`) when the batch's estimated work
//! ([`row_word_ops`](Encoder::row_word_ops) per row) pays for the fork.
//! Rows are independent, so the batched result is **bit-identical** to
//! encoding samples one at a time.

use hdc_core::{BinaryHypervector, HvMut, HypervectorBatch};

/// An angle in radians (wrapped into `[0, 2π)` by the encoder) — the input
/// type of [`AngleEncoder`](crate::AngleEncoder)'s [`Encoder`] impl.
///
/// A distinct type rather than a bare `f64` so a generic pipeline written
/// against `E: Encoder<f64>` (domain values, e.g.
/// [`ScalarEncoder`](crate::ScalarEncoder)) cannot silently feed raw domain
/// values to an angle encoder: converting — for instance
/// `Radians::periodic(hour, 24.0)`, mirroring
/// [`encode_periodic`](crate::AngleEncoder::encode_periodic) — becomes a
/// visible, checkable step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Radians(pub f64);

impl Radians {
    /// The angle of `value` within a periodic domain `[0, period)` —
    /// `value / period · 2π` (e.g. `Radians::periodic(17.0, 24.0)` for
    /// 5 pm on the daily circle).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not finite and positive.
    #[must_use]
    pub fn periodic(value: f64, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "period {period} must be positive and finite"
        );
        Self(value / period * std::f64::consts::TAU)
    }
}

/// Common interface of hypervector encoders: map an input-space object into
/// a caller-provided packed row.
///
/// Implementations must be deterministic — the same input always produces
/// the same bits — so batched and per-sample encoding agree exactly. (The
/// inherent `encode` methods of [`RecordEncoder`](crate::RecordEncoder) and
/// [`SequenceEncoder`](crate::SequenceEncoder) break bundling ties with a
/// caller RNG; their trait impls use the deterministic
/// [`TieBreak::Alternate`](hdc_core::TieBreak::Alternate) policy instead.)
///
/// # Example
///
/// ```
/// use hdc_encode::{Encoder, ScalarEncoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(12);
/// let enc = ScalarEncoder::with_levels(0.0, 1.0, 16, 10_000, &mut rng)?;
/// let values = [0.1, 0.5, 0.9];
/// let batch = enc.encode_batch(&values);
/// assert_eq!(batch.len(), 3);
/// // Batched rows are bit-identical to per-sample encoding.
/// for (row, &x) in batch.rows().zip(&values) {
///     assert_eq!(row.hamming(enc.encode(x).view()), 0);
/// }
/// # Ok::<(), hdc_encode::HdcError>(())
/// ```
pub trait Encoder<Input: ?Sized> {
    /// Dimensionality `d` of the produced hypervectors.
    fn dim(&self) -> usize;

    /// Encodes `input` into the provided row, overwriting its contents.
    ///
    /// # Panics
    ///
    /// Panics if `out.dim() != self.dim()` or the input is invalid for this
    /// encoder (out-of-range symbol, wrong record arity, empty sequence —
    /// see the implementing type's documentation).
    fn encode_into(&self, input: &Input, out: HvMut<'_>);

    /// Encodes `input` into a freshly allocated owned hypervector.
    fn encode_hv(&self, input: &Input) -> BinaryHypervector {
        let dim = self.dim();
        let mut words = vec![0u64; dim.div_ceil(64)];
        self.encode_into(input, HvMut::new(dim, &mut words));
        BinaryHypervector::from_words(dim, words)
    }

    /// Estimated cost of encoding one input, in the word-ops `minipool`'s
    /// fork rule counts (one word-op ≈ one 64-bit word copied or compared).
    /// The default is a table lookup plus a row copy; encoders that bundle
    /// several hypervectors per input override it.
    fn row_word_ops(&self) -> usize {
        self.dim().div_ceil(64)
    }

    /// Encodes a batch of inputs into one contiguous arena, one row per
    /// input in order, forking across the available cores when the batch's
    /// [`row_word_ops`](Self::row_word_ops) total pays for it.
    ///
    /// Bit-identical to calling [`encode_into`](Self::encode_into) per
    /// sample: each worker owns a disjoint block of rows and rows carry no
    /// shared state.
    fn encode_batch<'a, I>(&self, inputs: I) -> HypervectorBatch
    where
        I: IntoIterator<Item = &'a Input>,
        Input: 'a + Sync,
        Self: Sync,
    {
        let refs: Vec<&Input> = inputs.into_iter().collect();
        let work = refs.len() * self.row_word_ops();
        let mut batch = HypervectorBatch::zeros(self.dim(), refs.len());
        minipool::par_fill_indexed(&mut batch.rows_mut().collect::<Vec<_>>(), work, |i, row| {
            self.encode_into(refs[i], row.reborrow());
        });
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AngleEncoder, CategoricalEncoder, RecordEncoder, ScalarEncoder, SequenceEncoder};
    use hdc_core::{MajorityAccumulator, TieBreak};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xE2C)
    }

    #[test]
    fn scalar_batch_matches_per_sample_at_odd_dims() {
        let mut r = rng();
        for dim in [100usize, 128, 129, 1_000] {
            let enc = ScalarEncoder::with_levels(0.0, 1.0, 16, dim, &mut r).unwrap();
            let values: Vec<f64> = (0..33).map(|i| i as f64 / 32.0).collect();
            let batch = enc.encode_batch(&values);
            assert_eq!(batch.len(), values.len());
            assert_eq!(batch.dim(), dim);
            for (row, &x) in batch.rows().zip(&values) {
                assert_eq!(row.to_hypervector(), *enc.encode(x), "dim={dim} x={x}");
                assert_eq!(enc.encode_hv(&x), *enc.encode(x));
            }
        }
    }

    #[test]
    fn angle_and_categorical_trait_forms_agree_with_inherent() {
        let mut r = rng();
        let angle = AngleEncoder::with_circular(24, 300, 0.0, &mut r).unwrap();
        for i in 0..24 {
            let a = angle.angle_of(i);
            assert_eq!(angle.encode_hv(&Radians(a)), *angle.encode(a));
        }
        // Radians::periodic mirrors encode_periodic's rescaling.
        assert_eq!(
            angle.encode_hv(&Radians::periodic(17.0, 24.0)),
            *angle.encode_periodic(17.0, 24.0)
        );
        let cat = CategoricalEncoder::new(7, 300, &mut r).unwrap();
        let symbols: Vec<usize> = (0..7).collect();
        let batch = cat.encode_batch(&symbols);
        for (row, &s) in batch.rows().zip(&symbols) {
            assert_eq!(row.to_hypervector(), *cat.encode(s));
        }
    }

    #[test]
    fn sequence_trait_form_is_deterministic_alternate_bundle() {
        let mut r = rng();
        let enc = SequenceEncoder::new(5, 450, &mut r).unwrap();
        let seq = [0usize, 3, 1, 4];
        let via_trait = enc.encode_hv(&seq[..]);
        // Reference: position-permuted bundle with the Alternate tie-break.
        let mut acc = MajorityAccumulator::new(450);
        for (i, &s) in seq.iter().enumerate() {
            acc.push(&enc.symbols().encode(s).permute(i as isize));
        }
        assert_eq!(via_trait, acc.finalize(TieBreak::Alternate));
        // Batched form agrees row for row.
        let seqs: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3, 4], vec![4]];
        let batch = enc.encode_batch(seqs.iter().map(Vec::as_slice));
        for (row, seq) in batch.rows().zip(&seqs) {
            assert_eq!(row.to_hypervector(), enc.encode_hv(seq.as_slice()));
        }
    }

    #[test]
    fn record_trait_form_matches_alternate_reference() {
        let mut r = rng();
        let enc = RecordEncoder::new(3, 320, &mut r).unwrap();
        let values: Vec<_> = (0..3)
            .map(|_| hdc_core::BinaryHypervector::random(320, &mut r))
            .collect();
        let via_trait = enc.encode_hv(&values[..]);
        let mut acc = MajorityAccumulator::new(320);
        for (i, v) in values.iter().enumerate() {
            acc.push(&enc.key(i).bind(v));
        }
        assert_eq!(via_trait, acc.finalize(TieBreak::Alternate));
        assert_eq!(Encoder::dim(&enc), 320);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut r = rng();
        let enc = ScalarEncoder::with_levels(0.0, 1.0, 4, 64, &mut r).unwrap();
        let batch = enc.encode_batch(std::iter::empty::<&f64>());
        assert!(batch.is_empty());
        assert_eq!(batch.dim(), 64);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn sequence_trait_rejects_empty() {
        let mut r = rng();
        let enc = SequenceEncoder::new(3, 64, &mut r).unwrap();
        let _ = enc.encode_hv(&[][..]);
    }

    #[test]
    fn batch_encoding_is_deterministic_across_thread_counts() {
        // MINIPOOL_THREADS only changes the partitioning, never the bits;
        // emulate different chunkings by comparing against a 1-chunk fill.
        let mut r = rng();
        let enc = ScalarEncoder::with_levels(-5.0, 5.0, 32, 200, &mut r).unwrap();
        let values: Vec<f64> = (0..100).map(|_| r.random_range(-6.0f64..6.0)).collect();
        let parallel = enc.encode_batch(&values);
        let mut serial = hdc_core::HypervectorBatch::zeros(200, values.len());
        serial.fill_rows(|i, out| enc.encode_into(&values[i], out));
        assert_eq!(parallel, serial);
    }
}
