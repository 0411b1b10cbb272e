use crate::{kernels, BinaryHypervector, HvMut, HvRef, TieBreak};

/// Exact majority bundling `⊕` of a bounded set of hypervectors, with the
/// per-dimension vote counts stored **bit-sliced**.
///
/// Where [`MajorityAccumulator`](crate::MajorityAccumulator) keeps one
/// signed `i32` counter per dimension, this bundle keeps the unsigned count
/// of one-bits as `⌊log2 n⌋ + 1` *counter planes* of packed words: bit `b`
/// of word `w` of plane `j` is bit `j` of the count of dimension
/// `64·w + b`. An input is added carry-save — one AND and one XOR per
/// plane and word, 64 dimensions at a time — and the `n`-th input only
/// ripples through the `⌊log2 n⌋ + 1` planes its count can reach.
/// Finalizing compares the planes with `⌊n/2⌋` the same way, so the whole
/// bundle stays in packed words and never widens a bit into a counter.
///
/// The result is bit-identical to pushing the same inputs into a
/// `MajorityAccumulator` and finalizing with the same [`TieBreak`]. What
/// the bundle gives up is what the encoders never use: subtraction,
/// weights, merging and random tie-breaking. The counts are unsigned and
/// only ever grow. The encoders bundle one sample's inputs (record fields,
/// sequence positions) this way; reuse one bundle across samples with
/// [`reset`](Self::reset), which keeps its buffers. The trainers' batched
/// fold counts a batch's rows per target this way too, then adds the
/// planes to their `i32` counters once with
/// [`MajorityAccumulator::push_bundle`](crate::MajorityAccumulator::push_bundle).
///
/// # Example
///
/// ```
/// use hdc_core::{BinaryHypervector, BitSlicedBundle, MajorityAccumulator, TieBreak};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(4);
/// let vs: Vec<_> = (0..6).map(|_| BinaryHypervector::random(1_000, &mut rng)).collect();
/// let mut bundle = BitSlicedBundle::new(1_000);
/// let mut reference = MajorityAccumulator::new(1_000);
/// for v in &vs {
///     bundle.push(v.view());
///     reference.push(v);
/// }
/// // Six inputs tie on some dimensions; both resolve them the same way.
/// assert_eq!(
///     bundle.finalize(TieBreak::Alternate),
///     reference.finalize(TieBreak::Alternate)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BitSlicedBundle {
    dim: usize,
    words: usize,
    count: usize,
    /// Plane-major counter planes: plane `j` is
    /// `planes[j·words..(j + 1)·words]`, one plane per bit of `count`.
    planes: Vec<u64>,
    /// The input in flight: the addend of plane 0, then the carry into
    /// each next plane.
    carry: Vec<u64>,
}

impl BitSlicedBundle {
    /// What one packed input word of a push costs in the word-ops
    /// `minipool`'s fork rule counts, on the scale
    /// [`kernels::ACCUMULATE_WORD_OPS`] uses (one word-op ≈ 0.9 ns, the
    /// slow end of a [`kernels::hamming`] word). Measured with the `bundle`
    /// group of the `kernels` bench at d = 10 000 on a 2-vCPU x86-64 host:
    /// a bound 18-input bundle, finalize included, took 4.7 µs — 1.7 ns per
    /// input word — against 59–75 µs through `i32` counters with the AVX2
    /// backend. Encoders that bundle state their per-row work as inputs ×
    /// words × this factor, and the trainers' batched fold as rows × words
    /// × this factor.
    pub const PUSH_WORD_OPS: usize = 2;

    /// Creates an empty bundle for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        let mut bundle = Self {
            dim: 0,
            words: 0,
            count: 0,
            planes: Vec::new(),
            carry: Vec::new(),
        };
        bundle.reset(dim);
        bundle
    }

    /// Empties the bundle and sizes it for dimensionality `dim`, keeping
    /// its buffers: after the first sample of a given size, bundling
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn reset(&mut self, dim: usize) {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        self.dim = dim;
        self.words = dim.div_ceil(64);
        self.count = 0;
        self.planes.clear();
        self.carry.resize(self.words, 0);
    }

    /// The dimensionality this bundle operates on.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of inputs pushed since the bundle was created or reset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds a hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push(&mut self, row: HvRef<'_>) {
        self.check_dim(row.dim());
        self.add(row.as_words().iter().copied());
    }

    /// Adds the binding `a ⊗ b` to the bundle without materializing it —
    /// the record encoders' key–value pair.
    ///
    /// # Panics
    ///
    /// Panics if either dimensionality differs from the bundle's.
    pub fn push_bound(&mut self, a: HvRef<'_>, b: HvRef<'_>) {
        self.check_dim(a.dim());
        self.check_dim(b.dim());
        self.add(a.as_words().iter().zip(b.as_words()).map(|(x, y)| x ^ y));
    }

    /// Adds the cyclic rotation `Π^shift` of a hypervector to the bundle
    /// (bit `i` moves to `(i + shift) mod d`) — the sequence encoder's
    /// position-permuted symbol. `shift` may exceed the dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push_permuted(&mut self, row: HvRef<'_>, shift: usize) {
        self.check_dim(row.dim());
        kernels::permute_into(row.as_words(), self.dim, shift % self.dim, &mut self.carry);
        let used = self.grow();
        ripple(&mut self.planes[..used], &mut self.carry);
    }

    /// Resolves the majority vote straight into a borrowed row: bit `i` is
    /// 1 iff more than half of the inputs had it set, and `tie` decides
    /// where exactly half did (only possible for an even count). The row is
    /// fully overwritten and its tail left clean.
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality differs from the bundle's.
    pub fn finalize_into(&self, tie: TieBreak, out: &mut HvMut<'_>) {
        self.check_dim(out.dim());
        // Bit i is set iff 2·count_i + t_i > 2·⌊n/2⌋, where t_i is the tie
        // bit when n is even and 0 otherwise. That compares the planes
        // against a constant LSB first, keeping one running word per
        // dimension group: start from the appended low bit t, then each
        // plane j gives `above & plane` where bit j of ⌊n/2⌋ is set and
        // `above | plane` where it is clear.
        let half = self.count / 2;
        let ties = if self.count % 2 == 0 {
            tie_word(tie)
        } else {
            0
        };
        let out_words = out.words_mut();
        out_words.fill(ties);
        for (j, plane) in self.planes.chunks_exact(self.words).enumerate() {
            if half >> j & 1 == 1 {
                for (above, &p) in out_words.iter_mut().zip(plane) {
                    *above &= p;
                }
            } else {
                for (above, &p) in out_words.iter_mut().zip(plane) {
                    *above |= p;
                }
            }
        }
        // Only an empty bundle's ties can reach the tail; clear it anyway.
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = out_words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Resolves the majority vote into an owned hypervector (see
    /// [`finalize_into`](Self::finalize_into)).
    #[must_use]
    pub fn finalize(&self, tie: TieBreak) -> BinaryHypervector {
        let mut words = vec![0u64; self.words];
        self.finalize_into(tie, &mut HvMut::new(self.dim, &mut words));
        BinaryHypervector::from_words(self.dim, words)
    }

    /// The counter planes, least significant first: `⌊log2 n⌋ + 1` packed
    /// slices for `n` inputs (none while empty).
    pub(crate) fn planes(&self) -> std::slice::ChunksExact<'_, u64> {
        self.planes.chunks_exact(self.words)
    }

    fn check_dim(&self, found: usize) {
        assert_eq!(
            self.dim, found,
            "dimension mismatch: expected {}, found {}",
            self.dim, found
        );
    }

    /// Counts one more input and returns how many plane words it ripples
    /// through: `⌊log2 n⌋ + 1` planes for the `n`-th input. The plane a
    /// power-of-two count first reaches is appended zeroed.
    fn grow(&mut self) -> usize {
        self.count += 1;
        let depth = (usize::BITS - self.count.leading_zeros()) as usize;
        let len = depth * self.words;
        if self.planes.len() < len {
            self.planes.resize(len, 0);
        }
        len
    }

    /// Adds one input, given word by word, carry-save: plane 0 takes the
    /// input itself, and the carry out of every plane ripples into the next.
    fn add(&mut self, input: impl Iterator<Item = u64>) {
        let used = self.grow();
        let (first, rest) = self.planes[..used].split_at_mut(self.words);
        for ((plane, carry), word) in first.iter_mut().zip(&mut self.carry).zip(input) {
            *carry = *plane & word;
            *plane ^= word;
        }
        ripple(rest, &mut self.carry);
    }
}

/// Adds the packed `carry` into consecutive counter planes (each
/// `carry.len()` words), leaving the carry out of the last one in `carry`
/// — zero whenever the planes can hold the count.
fn ripple(planes: &mut [u64], carry: &mut [u64]) {
    for plane in planes.chunks_exact_mut(carry.len()) {
        for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
            let sum = *p ^ *c;
            *c &= *p;
            *p = sum;
        }
    }
}

/// The 64 tie bits a [`TieBreak`] gives one packed word. A word holds
/// dimensions `64·w .. 64·w + 63`, so parity by index is parity by bit.
fn tie_word(tie: TieBreak) -> u64 {
    match tie {
        TieBreak::Zero => 0,
        TieBreak::One => !0,
        TieBreak::Alternate => 0x5555_5555_5555_5555,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MajorityAccumulator;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    const TIES: [TieBreak; 3] = [TieBreak::Zero, TieBreak::One, TieBreak::Alternate];

    /// Bundles `n` random vectors both ways and compares under every tie
    /// policy, finalizing into a dirty row to prove it is overwritten.
    fn assert_parity(seed: u64, dim: usize, n: usize) {
        let mut r = StdRng::seed_from_u64(seed);
        let mut bundle = BitSlicedBundle::new(dim);
        let mut reference = MajorityAccumulator::new(dim);
        for _ in 0..n {
            let hv = BinaryHypervector::random(dim, &mut r);
            bundle.push(hv.view());
            reference.push(&hv);
        }
        assert_eq!(bundle.len(), n);
        for tie in TIES {
            let mut words = BinaryHypervector::random(dim, &mut r).as_words().to_vec();
            bundle.finalize_into(tie, &mut HvMut::new(dim, &mut words));
            let expected = reference.finalize(tie);
            assert_eq!(
                words,
                expected.as_words(),
                "dim={dim} n={n} tie={tie:?} seed={seed}"
            );
        }
    }

    #[test]
    fn matches_the_counter_accumulator_on_and_off_the_word_grid() {
        for dim in [1usize, 63, 64, 65, 130, 1_000] {
            for n in 1..=40 {
                assert_parity(dim as u64 * 100 + n as u64, dim, n);
            }
        }
    }

    #[test]
    fn bound_and_permuted_pushes_match_their_owned_forms() {
        let mut r = StdRng::seed_from_u64(8);
        for dim in [1usize, 65, 300] {
            let mut bundle = BitSlicedBundle::new(dim);
            let mut reference = MajorityAccumulator::new(dim);
            for i in 0..7 {
                let a = BinaryHypervector::random(dim, &mut r);
                let b = BinaryHypervector::random(dim, &mut r);
                bundle.push_bound(a.view(), b.view());
                reference.push(&a.bind(&b));
                // Shifts past d wrap, as `permute` does.
                let shift = i * 97;
                bundle.push_permuted(a.view(), shift);
                reference.push(&a.permute(shift as isize));
            }
            for tie in TIES {
                assert_eq!(bundle.finalize(tie), reference.finalize(tie), "dim={dim}");
            }
        }
    }

    #[test]
    fn reset_reuses_the_bundle_across_dimensions() {
        let mut r = StdRng::seed_from_u64(9);
        let mut bundle = BitSlicedBundle::new(200);
        for _ in 0..9 {
            bundle.push(BinaryHypervector::random(200, &mut r).view());
        }
        bundle.reset(70);
        assert!(bundle.is_empty());
        assert_eq!(bundle.dim(), 70);
        let a = BinaryHypervector::random(70, &mut r);
        bundle.push(a.view());
        // A single input is its own majority: no stale plane leaks in.
        assert_eq!(bundle.finalize(TieBreak::One), a);
    }

    #[test]
    fn empty_bundle_is_all_ties_with_a_clean_tail() {
        let bundle = BitSlicedBundle::new(70);
        for tie in TIES {
            let reference = MajorityAccumulator::new(70).finalize(tie);
            assert_eq!(bundle.finalize(tie), reference, "tie={tie:?}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_dimension_mismatch_panics() {
        let mut bundle = BitSlicedBundle::new(8);
        bundle.push(BinaryHypervector::zeros(9).view());
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn zero_dimension_panics() {
        let _ = BitSlicedBundle::new(0);
    }

    // Even n exercises ties; every tie policy is checked.
    proptest! {
        #[test]
        fn prop_matches_majority_accumulator_off_the_word_grid(
            seed in 0u64..10_000,
            n in 1usize..=64,
            dim in 1usize..=200,
        ) {
            assert_parity(seed, dim, n);
        }

        #[test]
        fn prop_matches_majority_accumulator_at_paper_dimension(
            seed in 0u64..10_000,
            n in 1usize..=64,
        ) {
            assert_parity(seed, crate::DEFAULT_DIMENSION, n);
        }
    }
}
