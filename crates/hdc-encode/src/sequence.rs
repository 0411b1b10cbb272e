use hdc_core::{ops, BinaryHypervector, BitSlicedBundle, HdcError, HvMut, TieBreak};
use rand::Rng;

use crate::categorical::check_symbol;
use crate::scratch::with_bundle;
use crate::{CategoricalEncoder, Encoder};

/// Order-aware encoder for sequences of symbols (paper §3.1):
/// `φ(w) = ⊕ᵢ Πⁱ φ_R(αᵢ)` — each symbol's random hypervector is permuted by
/// its position and the results are bundled. Also provides binding-based
/// n-gram encoding for sliding-window features.
///
/// # Example
///
/// ```
/// use hdc_encode::SequenceEncoder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(6);
/// // An alphabet of 26 symbols.
/// let enc = SequenceEncoder::new(26, 10_000, &mut rng)?;
/// let cat = enc.encode(&[2, 0, 19], &mut rng)?; // "cat"
/// let act = enc.encode(&[0, 2, 19], &mut rng)?; // "act"
/// // Same letters, different order → clearly separated encodings (they
/// // still share the final 't', so the distance sits below 0.5).
/// assert!(cat.normalized_hamming(&act) > 0.25);
/// # Ok::<(), hdc_encode::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SequenceEncoder {
    symbols: CategoricalEncoder,
}

impl SequenceEncoder {
    /// Creates a sequence encoder over an alphabet of `n` symbols.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] if `n == 0` or `dim == 0`.
    pub fn new(n: usize, dim: usize, rng: &mut impl Rng) -> Result<Self, HdcError> {
        Ok(Self {
            symbols: CategoricalEncoder::new(n, dim, rng)?,
        })
    }

    /// Creates a sequence encoder over an existing symbol encoder.
    #[must_use]
    pub fn from_symbols(symbols: CategoricalEncoder) -> Self {
        Self { symbols }
    }

    /// The underlying symbol encoder.
    #[must_use]
    pub fn symbols(&self) -> &CategoricalEncoder {
        &self.symbols
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.symbols.dim()
    }

    /// Encodes a sequence of symbol indices by bundling position-permuted
    /// symbol hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty sequence.
    ///
    /// # Panics
    ///
    /// Panics if any symbol index is out of range for the alphabet.
    pub fn encode(
        &self,
        sequence: &[usize],
        rng: &mut impl Rng,
    ) -> Result<BinaryHypervector, HdcError> {
        let hvs: Vec<&BinaryHypervector> =
            sequence.iter().map(|&s| self.symbols.encode(s)).collect();
        ops::bundle_sequence(hvs, rng).ok_or(HdcError::EmptyInput)
    }

    /// Encodes an n-gram by *binding* position-permuted symbol hypervectors
    /// (`⊗ᵢ Πⁱ φ_R(αᵢ)`), the encoding used for sliding windows over longer
    /// streams.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty n-gram.
    ///
    /// # Panics
    ///
    /// Panics if any symbol index is out of range for the alphabet.
    pub fn encode_ngram(&self, ngram: &[usize]) -> Result<BinaryHypervector, HdcError> {
        let hvs: Vec<&BinaryHypervector> = ngram.iter().map(|&s| self.symbols.encode(s)).collect();
        ops::bind_sequence(hvs).ok_or(HdcError::EmptyInput)
    }

    /// Encodes a long stream as the bundle of all its `n`-grams — a common
    /// HDC text/biosignal pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if the stream is shorter than `n` or
    /// `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if any symbol index is out of range for the alphabet.
    pub fn encode_ngram_stream(
        &self,
        stream: &[usize],
        n: usize,
        rng: &mut impl Rng,
    ) -> Result<BinaryHypervector, HdcError> {
        if n == 0 || stream.len() < n {
            return Err(HdcError::EmptyInput);
        }
        let grams: Vec<BinaryHypervector> = stream
            .windows(n)
            .map(|w| self.encode_ngram(w).expect("window is non-empty"))
            .collect();
        ops::bundle(grams.iter(), rng).ok_or(HdcError::EmptyInput)
    }
}

/// The trait form of [`encode`](SequenceEncoder::encode) with the
/// deterministic [`TieBreak::Alternate`] policy instead of a caller RNG, so
/// batched and per-sample encodings agree bit for bit.
impl Encoder<[usize]> for SequenceEncoder {
    fn dim(&self) -> usize {
        self.symbols.dim()
    }

    /// One rotated push per symbol; the length is per input, so this
    /// counts one symbol — a lower bound.
    fn row_word_ops(&self) -> usize {
        self.dim().div_ceil(64) * BitSlicedBundle::PUSH_WORD_OPS
    }

    /// Allocation-free: each symbol hypervector is rotated into the
    /// per-thread bit-sliced bundle's input buffer and added, and the vote
    /// is resolved straight into the output row.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or contains an out-of-range symbol.
    fn encode_into(&self, input: &[usize], mut out: HvMut<'_>) {
        assert!(!input.is_empty(), "cannot encode an empty sequence");
        with_bundle(self.dim(), |bundle| {
            for (position, &symbol) in input.iter().enumerate() {
                bundle.push_permuted(self.symbols.encode(symbol).view(), position);
            }
            bundle.finalize_into(TieBreak::Alternate, &mut out);
        });
    }

    /// Rejects an empty sequence ([`HdcError::EmptyInput`]) and symbols
    /// outside the alphabet ([`HdcError::SymbolOutOfRange`]).
    fn check_input(&self, input: &[usize]) -> Result<(), HdcError> {
        if input.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        let symbols = self.symbols.categories();
        input
            .iter()
            .try_for_each(|&symbol| check_symbol(symbol, symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5_150)
    }

    #[test]
    fn order_matters() {
        let mut r = rng();
        let enc = SequenceEncoder::new(8, 10_000, &mut r).unwrap();
        let ab = enc.encode(&[0, 1], &mut r).unwrap();
        let ba = enc.encode(&[1, 0], &mut r).unwrap();
        assert!((ab.normalized_hamming(&ba) - 0.5).abs() < 0.1);
    }

    #[test]
    fn shared_prefix_increases_similarity() {
        let mut r = rng();
        let enc = SequenceEncoder::new(8, 10_000, &mut r).unwrap();
        let abc = enc.encode(&[0, 1, 2], &mut r).unwrap();
        let abd = enc.encode(&[0, 1, 3], &mut r).unwrap();
        let xyz = enc.encode(&[5, 6, 7], &mut r).unwrap();
        assert!(abc.normalized_hamming(&abd) < abc.normalized_hamming(&xyz));
    }

    #[test]
    fn empty_sequence_is_error() {
        let mut r = rng();
        let enc = SequenceEncoder::new(4, 256, &mut r).unwrap();
        assert!(matches!(enc.encode(&[], &mut r), Err(HdcError::EmptyInput)));
        assert!(matches!(enc.encode_ngram(&[]), Err(HdcError::EmptyInput)));
        assert!(matches!(
            enc.encode_ngram_stream(&[0, 1], 3, &mut r),
            Err(HdcError::EmptyInput)
        ));
        assert!(matches!(
            enc.encode_ngram_stream(&[0, 1], 0, &mut r),
            Err(HdcError::EmptyInput)
        ));
    }

    #[test]
    fn ngram_is_deterministic_binding() {
        let mut r = rng();
        let enc = SequenceEncoder::new(4, 512, &mut r).unwrap();
        let g1 = enc.encode_ngram(&[0, 1, 2]).unwrap();
        let g2 = enc.encode_ngram(&[0, 1, 2]).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn ngram_stream_similar_to_component_grams() {
        let mut r = rng();
        let enc = SequenceEncoder::new(6, 10_000, &mut r).unwrap();
        let stream = [0usize, 1, 2, 3, 4, 5];
        let encoded = enc.encode_ngram_stream(&stream, 3, &mut r).unwrap();
        let first = enc.encode_ngram(&[0, 1, 2]).unwrap();
        assert!(encoded.normalized_hamming(&first) < 0.45);
    }

    #[test]
    fn check_input_rejects_empty_and_unknown_symbols() {
        let mut r = rng();
        let enc = SequenceEncoder::new(4, 64, &mut r).unwrap();
        assert_eq!(enc.check_input(&[0, 3, 1][..]), Ok(()));
        assert_eq!(enc.check_input(&[][..]), Err(HdcError::EmptyInput));
        assert_eq!(
            enc.check_input(&[0, 4][..]),
            Err(HdcError::SymbolOutOfRange {
                value: 4.0,
                symbols: 4
            })
        );
    }

    #[test]
    fn from_symbols_reuses_alphabet() {
        let mut r = rng();
        let symbols = CategoricalEncoder::new(4, 256, &mut r).unwrap();
        let first = symbols.encode(0).clone();
        let enc = SequenceEncoder::from_symbols(symbols);
        assert_eq!(enc.symbols().encode(0), &first);
        assert_eq!(enc.dim(), 256);
    }
}
