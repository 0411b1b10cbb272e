use std::fmt;
use std::ops::{BitXor, BitXorAssign, Not};

use rand::Rng;

use crate::{kernels, HvRef};

const WORD_BITS: usize = 64;

/// A dense binary hypervector: a point of the hyperspace `H = {0, 1}^d`.
///
/// Bits are packed into `u64` words (least-significant bit first), so the
/// three HDC operations compile down to word-wide instructions:
///
/// * [`bind`](Self::bind) — word-wise XOR,
/// * bundling — see [`MajorityAccumulator`](crate::MajorityAccumulator),
/// * [`permute`](Self::permute) — cyclic bit rotation.
///
/// The dimensionality `d` is a runtime value; the paper (and every experiment
/// harness in this workspace) uses `d = 10,000`
/// ([`DEFAULT_DIMENSION`](crate::DEFAULT_DIMENSION)).
///
/// # Example
///
/// ```
/// use hdc_core::BinaryHypervector;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = BinaryHypervector::random(10_000, &mut rng);
/// let b = BinaryHypervector::random(10_000, &mut rng);
/// // Two independently sampled hypervectors are quasi-orthogonal.
/// assert!((a.normalized_hamming(&b) - 0.5).abs() < 0.05);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BinaryHypervector {
    dim: usize,
    words: Vec<u64>,
}

impl Clone for BinaryHypervector {
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            words: self.words.clone(),
        }
    }

    /// Copies `source` into `self`'s word buffer, which allocates nothing
    /// when the buffer already holds enough words (e.g. equal widths).
    fn clone_from(&mut self, source: &Self) {
        self.dim = source.dim;
        self.words.clone_from(&source.words);
    }
}

impl BinaryHypervector {
    /// Creates the all-zeros hypervector of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        Self {
            dim,
            words: vec![0; dim.div_ceil(WORD_BITS)],
        }
    }

    /// Creates the all-ones hypervector of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn ones(dim: usize) -> Self {
        let mut hv = Self::zeros(dim);
        for word in &mut hv.words {
            *word = !0;
        }
        hv.mask_tail();
        hv
    }

    /// Samples a hypervector uniformly at random from `{0, 1}^dim`.
    ///
    /// This is the distribution behind *random-hypervectors* (paper §3.1):
    /// every bit is i.i.d. `Bernoulli(1/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn random(dim: usize, rng: &mut impl Rng) -> Self {
        let mut hv = Self::zeros(dim);
        for word in &mut hv.words {
            *word = rng.random();
        }
        hv.mask_tail();
        hv
    }

    /// Builds a hypervector from a slice of booleans (`bits[i]` becomes bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        Self::from_fn(bits.len(), |i| bits[i])
    }

    /// Builds a hypervector by evaluating `f` at every bit index.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut hv = Self::zeros(dim);
        for i in 0..dim {
            if f(i) {
                hv.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            }
        }
        hv
    }

    /// The dimensionality `d` of this hypervector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed `u64` words backing this hypervector (LSB-first layout).
    ///
    /// Bits at positions `>= dim` in the final word are guaranteed to be zero.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a hypervector directly from packed words (LSB-first). Bits at
    /// positions `>= dim` in the final word are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `words.len() != dim.div_ceil(64)`.
    #[must_use]
    pub fn from_words(dim: usize, words: Vec<u64>) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        assert_eq!(
            words.len(),
            dim.div_ceil(WORD_BITS),
            "word count does not match dimension {dim}"
        );
        let mut hv = Self { dim, words };
        hv.mask_tail();
        hv
    }

    /// A borrowed [`HvRef`] view of this hypervector — the common currency
    /// between owned vectors and [`HypervectorBatch`](crate::HypervectorBatch)
    /// rows.
    #[must_use]
    pub fn view(&self) -> HvRef<'_> {
        HvRef::new(self.dim, &self.words)
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.dim,
            "bit index {index} out of range for dimension {}",
            self.dim
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.dim,
            "bit index {index} out of range for dimension {}",
            self.dim
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Inverts bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.dim,
            "bit index {index} out of range for dimension {}",
            self.dim
        );
        self.words[index / WORD_BITS] ^= 1 << (index % WORD_BITS);
    }

    /// Number of one-bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        kernels::count_ones(&self.words)
    }

    /// Binding `⊗` (element-wise XOR): associates two hypervectors and
    /// produces a result dissimilar to both operands. Binding is commutative
    /// and self-inverse: `a.bind(&a.bind(&b)) == b`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        self.assert_same_dim(other);
        let mut words = vec![0u64; self.words.len()];
        kernels::xor(&self.words, &other.words, &mut words);
        Self {
            dim: self.dim,
            words,
        }
    }

    /// In-place [`bind`](Self::bind).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn bind_assign(&mut self, other: &Self) {
        self.assert_same_dim(other);
        kernels::xor_into(&mut self.words, &other.words);
    }

    /// The permutation operator `Π^shift`: a cyclic shift that moves bit `i`
    /// to position `(i + shift) mod d`. Negative shifts rotate the other way,
    /// so `hv.permute(k).permute(-k) == hv`.
    ///
    /// Permutation is used to encode order (paper §2.1); the permuted vector
    /// is quasi-orthogonal to the input for almost all shifts.
    #[must_use]
    pub fn permute(&self, shift: isize) -> Self {
        let s = shift.rem_euclid(self.dim as isize) as usize;
        let mut words = vec![0u64; self.words.len()];
        kernels::permute_into(&self.words, self.dim, s, &mut words);
        Self {
            dim: self.dim,
            words,
        }
    }

    /// Inverse of [`permute`](Self::permute): `hv.permute(k).permute_inverse(k) == hv`.
    #[must_use]
    pub fn permute_inverse(&self, shift: isize) -> Self {
        self.permute(shift.wrapping_neg())
    }

    /// Hamming distance: the number of positions at which the two
    /// hypervectors differ.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        self.assert_same_dim(other);
        kernels::hamming(&self.words, &other.words)
    }

    /// Normalized Hamming distance `δ ∈ [0, 1]` (paper §2): Hamming distance
    /// divided by the dimensionality. Quasi-orthogonal vectors have `δ ≈ 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming(other) as f64 / self.dim as f64
    }

    /// Similarity `1 − δ` (paper §2).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn similarity(&self, other: &Self) -> f64 {
        1.0 - self.normalized_hamming(other)
    }

    /// Returns a copy in which every bit was flipped independently with
    /// probability `flip_probability`. Used for robustness / failure
    /// injection experiments.
    ///
    /// # Panics
    ///
    /// Panics if `flip_probability` is not in `[0, 1]`.
    #[must_use]
    pub fn corrupt(&self, flip_probability: f64, rng: &mut impl Rng) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_probability),
            "flip probability {flip_probability} must lie in [0, 1]"
        );
        let mut out = self.clone();
        for i in 0..self.dim {
            if rng.random_bool(flip_probability) {
                out.flip(i);
            }
        }
        out
    }

    /// Flips the bits at the provided positions (used by the legacy
    /// level-hypervector construction, paper §4).
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn flip_positions(&mut self, positions: &[usize]) {
        for &p in positions {
            self.flip(p);
        }
    }

    /// Iterates over the bits, LSB-first.
    ///
    /// ```
    /// use hdc_core::BinaryHypervector;
    /// let hv = BinaryHypervector::from_bits(&[true, false, true]);
    /// let bits: Vec<bool> = hv.bits().collect();
    /// assert_eq!(bits, [true, false, true]);
    /// ```
    #[must_use]
    pub fn bits(&self) -> Bits<'_> {
        Bits { hv: self, index: 0 }
    }

    /// Converts to the bipolar (±1) representation: bit 1 ↦ +1, bit 0 ↦ −1.
    #[must_use]
    pub fn to_bipolar(&self) -> crate::BipolarHypervector {
        crate::BipolarHypervector::from_fn(self.dim, |i| if self.get(i) { 1 } else { -1 })
    }

    fn assert_same_dim(&self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch: expected {}, found {}",
            self.dim, other.dim
        );
    }

    fn mask_tail(&mut self) {
        let rem = self.dim % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    #[cfg(test)]
    fn tail_is_clean(&self) -> bool {
        let rem = self.dim % WORD_BITS;
        rem == 0
            || self
                .words
                .last()
                .map_or(true, |w| w & !((1u64 << rem) - 1) == 0)
    }
}

impl fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 32;
        write!(f, "BinaryHypervector {{ dim: {}, bits: ", self.dim)?;
        for i in 0..self.dim.min(PREVIEW) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.dim > PREVIEW {
            write!(f, "…")?;
        }
        write!(f, " }}")
    }
}

impl fmt::Display for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hypervector(d={}, ones={})", self.dim, self.count_ones())
    }
}

impl BitXor for &BinaryHypervector {
    type Output = BinaryHypervector;

    /// `^` is the binding operation — see [`BinaryHypervector::bind`].
    fn bitxor(self, rhs: Self) -> BinaryHypervector {
        self.bind(rhs)
    }
}

impl BitXorAssign<&BinaryHypervector> for BinaryHypervector {
    fn bitxor_assign(&mut self, rhs: &BinaryHypervector) {
        self.bind_assign(rhs);
    }
}

impl Not for &BinaryHypervector {
    type Output = BinaryHypervector;

    /// Complements every bit (the vector at maximal distance `δ = 1`).
    fn not(self) -> BinaryHypervector {
        let mut out = BinaryHypervector {
            dim: self.dim,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }
}

/// Iterator over the bits of a [`BinaryHypervector`], created by
/// [`BinaryHypervector::bits`].
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    hv: &'a BinaryHypervector,
    index: usize,
}

impl Iterator for Bits<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.index >= self.hv.dim {
            return None;
        }
        let bit = self.hv.get(self.index);
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.hv.dim - self.index;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Bits<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn zeros_and_ones_counts() {
        for dim in [1, 63, 64, 65, 100, 10_000] {
            assert_eq!(BinaryHypervector::zeros(dim).count_ones(), 0);
            assert_eq!(BinaryHypervector::ones(dim).count_ones(), dim);
        }
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut rng = rng();
        let source = BinaryHypervector::random(1_000, &mut rng);
        let mut target = BinaryHypervector::random(1_000, &mut rng);
        let buffer = target.as_words().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.as_words().as_ptr(), buffer, "no reallocation");
        // Other widths are copied exactly too.
        for dim in [1, 64, 5_000] {
            let other = BinaryHypervector::random(dim, &mut rng);
            target.clone_from(&other);
            assert_eq!(target, other);
            assert!(target.tail_is_clean());
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn zero_dimension_panics() {
        let _ = BinaryHypervector::zeros(0);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let hv = BinaryHypervector::random(10_000, &mut rng());
        let ones = hv.count_ones();
        assert!((4_700..=5_300).contains(&ones), "ones = {ones}");
        assert!(hv.tail_is_clean());
    }

    #[test]
    fn get_set_flip_round_trip() {
        let mut hv = BinaryHypervector::zeros(130);
        hv.set(0, true);
        hv.set(129, true);
        hv.set(64, true);
        assert!(hv.get(0) && hv.get(64) && hv.get(129));
        assert_eq!(hv.count_ones(), 3);
        hv.flip(64);
        assert!(!hv.get(64));
        hv.set(0, false);
        assert_eq!(hv.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let hv = BinaryHypervector::zeros(10);
        let _ = hv.get(10);
    }

    #[test]
    fn bind_is_self_inverse() {
        let mut r = rng();
        let a = BinaryHypervector::random(10_000, &mut r);
        let b = BinaryHypervector::random(10_000, &mut r);
        assert_eq!(a.bind(&b).bind(&a), b);
        assert_eq!(a.bind(&a), BinaryHypervector::zeros(10_000));
    }

    #[test]
    fn bind_operator_matches_method() {
        let mut r = rng();
        let a = BinaryHypervector::random(512, &mut r);
        let b = BinaryHypervector::random(512, &mut r);
        assert_eq!(&a ^ &b, a.bind(&b));
        let mut c = a.clone();
        c ^= &b;
        assert_eq!(c, a.bind(&b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bind_dimension_mismatch_panics() {
        let a = BinaryHypervector::zeros(64);
        let b = BinaryHypervector::zeros(65);
        let _ = a.bind(&b);
    }

    #[test]
    fn complement_is_maximally_distant() {
        let hv = BinaryHypervector::random(777, &mut rng());
        let neg = !&hv;
        assert_eq!(hv.hamming(&neg), 777);
        assert!(neg.tail_is_clean());
    }

    #[test]
    fn hamming_metric_basics() {
        let mut r = rng();
        let a = BinaryHypervector::random(10_000, &mut r);
        let b = BinaryHypervector::random(10_000, &mut r);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert!((a.normalized_hamming(&b) - 0.5).abs() < 0.05);
        assert!((a.similarity(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permute_matches_naive_reference() {
        let mut r = rng();
        for dim in [1usize, 2, 63, 64, 65, 127, 128, 1000] {
            let hv = BinaryHypervector::random(dim, &mut r);
            for shift in [
                0isize,
                1,
                -1,
                7,
                63,
                64,
                65,
                -100,
                dim as isize,
                3 * dim as isize + 5,
            ] {
                let fast = hv.permute(shift);
                let s = shift.rem_euclid(dim as isize) as usize;
                let naive = BinaryHypervector::from_fn(dim, |i| hv.get((i + dim - s) % dim));
                assert_eq!(fast, naive, "dim={dim} shift={shift}");
                assert!(fast.tail_is_clean());
            }
        }
    }

    #[test]
    fn permute_is_invertible_and_distance_preserving() {
        let mut r = rng();
        let hv = BinaryHypervector::random(10_000, &mut r);
        let other = BinaryHypervector::random(10_000, &mut r);
        let p = hv.permute(31);
        assert_eq!(p.permute_inverse(31), hv);
        assert_eq!(
            hv.hamming(&other),
            hv.permute(31).hamming(&other.permute(31))
        );
        // A shifted hypervector is quasi-orthogonal to the original.
        assert!((hv.normalized_hamming(&p) - 0.5).abs() < 0.05);
    }

    #[test]
    fn corrupt_flips_expected_fraction() {
        let mut r = rng();
        let hv = BinaryHypervector::random(10_000, &mut r);
        let noisy = hv.corrupt(0.1, &mut r);
        let delta = hv.normalized_hamming(&noisy);
        assert!((delta - 0.1).abs() < 0.02, "delta = {delta}");
        assert_eq!(hv.corrupt(0.0, &mut r), hv);
    }

    #[test]
    fn from_bits_and_bits_round_trip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let hv = BinaryHypervector::from_bits(&pattern);
        let back: Vec<bool> = hv.bits().collect();
        assert_eq!(back, pattern);
        assert_eq!(hv.bits().len(), 200);
    }

    #[test]
    fn flip_positions_matches_individual_flips() {
        let mut a = BinaryHypervector::random(300, &mut rng());
        let b = a.clone();
        a.flip_positions(&[0, 5, 299]);
        assert_eq!(a.hamming(&b), 3);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let hv = BinaryHypervector::random(100, &mut rng());
        assert!(format!("{hv:?}").contains("dim: 100"));
        assert!(format!("{hv}").contains("d=100"));
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BinaryHypervector>();
    }

    #[test]
    fn from_words_masks_tail_and_round_trips() {
        let hv = BinaryHypervector::from_words(65, vec![!0u64, !0u64]);
        assert_eq!(hv.count_ones(), 65);
        assert!(hv.tail_is_clean());
        let back = BinaryHypervector::from_words(65, hv.as_words().to_vec());
        assert_eq!(back, hv);
        assert_eq!(hv.view().to_hypervector(), hv);
    }

    #[test]
    #[should_panic(expected = "word count does not match")]
    fn from_words_rejects_wrong_length() {
        let _ = BinaryHypervector::from_words(65, vec![0u64]);
    }

    proptest! {
        #[test]
        fn prop_bind_self_inverse(seed in 0u64..1000, dim in 1usize..400) {
            let mut r = StdRng::seed_from_u64(seed);
            let a = BinaryHypervector::random(dim, &mut r);
            let b = BinaryHypervector::random(dim, &mut r);
            prop_assert_eq!(a.bind(&b).bind(&a), b);
        }

        #[test]
        fn prop_bind_preserves_distance(seed in 0u64..1000, dim in 1usize..400) {
            // δ(a ⊗ c, b ⊗ c) = δ(a, b): binding is an isometry.
            let mut r = StdRng::seed_from_u64(seed);
            let a = BinaryHypervector::random(dim, &mut r);
            let b = BinaryHypervector::random(dim, &mut r);
            let c = BinaryHypervector::random(dim, &mut r);
            prop_assert_eq!(a.bind(&c).hamming(&b.bind(&c)), a.hamming(&b));
        }

        #[test]
        fn prop_permute_round_trip(seed in 0u64..1000, dim in 1usize..400, shift in -1000isize..1000) {
            let mut r = StdRng::seed_from_u64(seed);
            let hv = BinaryHypervector::random(dim, &mut r);
            prop_assert_eq!(hv.permute(shift).permute_inverse(shift), hv.clone());
            prop_assert_eq!(hv.permute(shift).count_ones(), hv.count_ones());
        }

        #[test]
        fn prop_triangle_inequality(seed in 0u64..1000, dim in 1usize..300) {
            let mut r = StdRng::seed_from_u64(seed);
            let a = BinaryHypervector::random(dim, &mut r);
            let b = BinaryHypervector::random(dim, &mut r);
            let c = BinaryHypervector::random(dim, &mut r);
            prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        }
    }
}
