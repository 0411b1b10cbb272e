use hdc_basis::{BasisSet, RandomBasis};
use hdc_core::{BinaryHypervector, HdcError, HvMut};
use rand::Rng;

use crate::table::HvTable;
use crate::Encoder;

/// Encoder for symbolic/categorical information (paper §3.1): each of `n`
/// categories gets an independent random hypervector, so distinct categories
/// are quasi-orthogonal and carry no spurious ordinal structure.
///
/// # Example
///
/// ```
/// use hdc_encode::CategoricalEncoder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let letters = CategoricalEncoder::new(26, 10_000, &mut rng)?;
/// let a = letters.encode(0);
/// let z = letters.encode(25);
/// assert!((a.normalized_hamming(z) - 0.5).abs() < 0.05);
/// # Ok::<(), hdc_encode::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CategoricalEncoder {
    table: HvTable,
}

impl CategoricalEncoder {
    /// Creates an encoder for `n` categories with fresh random
    /// hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if `n == 0` or
    /// [`HdcError::InvalidDimension`] if `dim == 0`.
    pub fn new(n: usize, dim: usize, rng: &mut impl Rng) -> Result<Self, HdcError> {
        let basis = RandomBasis::new(n, dim, rng)?;
        Self::from_basis(&basis)
    }

    /// Creates an encoder from an existing basis set (cloning its members).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if the basis is empty.
    pub fn from_basis<B: BasisSet + ?Sized>(basis: &B) -> Result<Self, HdcError> {
        Ok(Self {
            table: HvTable::from_basis(basis, 1)?,
        })
    }

    /// Number of categories.
    #[must_use]
    pub fn categories(&self) -> usize {
        self.table.len()
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Encodes category `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.categories()`.
    #[must_use]
    pub fn encode(&self, index: usize) -> &BinaryHypervector {
        assert!(
            index < self.table.len(),
            "category {index} out of range for {} categories",
            self.table.len()
        );
        self.table.get(index)
    }

    /// Decodes a (possibly noisy) hypervector to the most similar category.
    ///
    /// # Panics
    ///
    /// Panics if `hv` has a different dimensionality than the encoder.
    #[must_use]
    pub fn decode(&self, hv: &BinaryHypervector) -> usize {
        self.table.nearest(hv)
    }

    /// The stored category hypervectors.
    #[must_use]
    pub fn hypervectors(&self) -> &[BinaryHypervector] {
        self.table.hypervectors()
    }
}

impl Encoder<usize> for CategoricalEncoder {
    fn dim(&self) -> usize {
        self.table.dim()
    }

    fn encode_into(&self, input: &usize, mut out: HvMut<'_>) {
        out.copy_from(self.encode(*input).view());
    }

    fn check_input(&self, input: &usize) -> Result<(), HdcError> {
        check_symbol(*input, self.table.len())
    }
}

/// `Ok` if `symbol` indexes an alphabet of `symbols` entries.
pub(crate) fn check_symbol(symbol: usize, symbols: usize) -> Result<(), HdcError> {
    if symbol < symbols {
        Ok(())
    } else {
        Err(HdcError::SymbolOutOfRange {
            value: symbol as f64,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1_000)
    }

    #[test]
    fn categories_are_quasi_orthogonal() {
        let mut r = rng();
        let enc = CategoricalEncoder::new(10, 10_000, &mut r).unwrap();
        for i in 0..10 {
            for j in (i + 1)..10 {
                let d = enc.encode(i).normalized_hamming(enc.encode(j));
                assert!((d - 0.5).abs() < 0.05);
            }
        }
    }

    #[test]
    fn decode_inverts_encode_under_noise() {
        let mut r = rng();
        let enc = CategoricalEncoder::new(50, 10_000, &mut r).unwrap();
        for i in [0, 7, 49] {
            let noisy = enc.encode(i).corrupt(0.25, &mut r);
            assert_eq!(enc.decode(&noisy), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_bad_index() {
        let mut r = rng();
        let enc = CategoricalEncoder::new(3, 64, &mut r).unwrap();
        let _ = enc.encode(3);
    }

    #[test]
    fn check_input_rejects_bad_index() {
        let mut r = rng();
        let enc = CategoricalEncoder::new(3, 64, &mut r).unwrap();
        assert_eq!(enc.check_input(&2), Ok(()));
        assert_eq!(
            enc.check_input(&3),
            Err(HdcError::SymbolOutOfRange {
                value: 3.0,
                symbols: 3
            })
        );
    }

    #[test]
    fn rejects_empty() {
        let mut r = rng();
        assert!(CategoricalEncoder::new(0, 64, &mut r).is_err());
    }

    #[test]
    fn accessors() {
        let mut r = rng();
        let enc = CategoricalEncoder::new(4, 128, &mut r).unwrap();
        assert_eq!(enc.categories(), 4);
        assert_eq!(enc.dim(), 128);
        assert_eq!(enc.hypervectors().len(), 4);
    }
}
