use rand::Rng;

use crate::{kernels, BinaryHypervector, BitSlicedBundle, HvMut, HvRef};

/// Policy for resolving ties when a [`MajorityAccumulator`] is finalized and
/// a dimension has seen exactly as many ones as zeros.
///
/// Ties occur whenever an even number of hypervectors is bundled. The HDC
/// literature most commonly breaks them randomly (equivalent to bundling one
/// extra random hypervector), which keeps the result unbiased; deterministic
/// policies are provided for reproducible pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Resolve ties to `0`.
    #[default]
    Zero,
    /// Resolve ties to `1`.
    One,
    /// Alternate `0`/`1` by dimension index (deterministic, unbiased on
    /// average across dimensions).
    Alternate,
}

impl TieBreak {
    /// The bit this policy resolves a tie at dimension `index` to.
    #[must_use]
    pub fn bit(self, index: usize) -> bool {
        match self {
            TieBreak::Zero => false,
            TieBreak::One => true,
            TieBreak::Alternate => index % 2 == 0,
        }
    }
}

/// Exact majority bundling `⊕` over any number of hypervectors.
///
/// The bundling operation of HDC (paper §2.1) is an element-wise majority
/// vote. This accumulator keeps one signed counter per dimension
/// (`+1` per one-bit, `−1` per zero-bit), so hypervectors can be added *and
/// subtracted* — the latter is what makes retraining-style classifiers cheap.
///
/// # Example
///
/// ```
/// use hdc_core::{BinaryHypervector, MajorityAccumulator, TieBreak};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let vs: Vec<_> = (0..5).map(|_| BinaryHypervector::random(10_000, &mut rng)).collect();
/// let mut acc = MajorityAccumulator::new(10_000);
/// for v in &vs {
///     acc.push(v);
/// }
/// let bundle = acc.finalize(TieBreak::Zero);
/// // The bundle is similar to each of its five members…
/// for v in &vs {
///     assert!(bundle.normalized_hamming(v) < 0.45);
/// }
/// // …and quasi-orthogonal to an unrelated hypervector.
/// let other = BinaryHypervector::random(10_000, &mut rng);
/// assert!((bundle.normalized_hamming(&other) - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityAccumulator {
    counts: Vec<i32>,
    weight: i64,
}

impl MajorityAccumulator {
    /// Creates an empty accumulator for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        Self {
            counts: vec![0; dim],
            weight: 0,
        }
    }

    /// Reconstructs an accumulator from previously captured state — the
    /// inverse of reading [`counts`](Self::counts) and
    /// [`weight`](Self::weight), used by snapshot restore to resume
    /// training exactly where a saved accumulator left off. The counters
    /// are adopted verbatim, so a `from_parts` round trip is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    #[must_use]
    pub fn from_parts(counts: Vec<i32>, weight: i64) -> Self {
        assert!(
            !counts.is_empty(),
            "hypervector dimension must be at least 1"
        );
        Self { counts, weight }
    }

    /// The dimensionality this accumulator operates on.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// Net weight pushed so far (pushes minus subtractions).
    #[must_use]
    pub fn weight(&self) -> i64 {
        self.weight
    }

    /// `true` if nothing has been accumulated (all counters zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weight == 0 && self.counts.iter().all(|&c| c == 0)
    }

    /// The per-dimension signed counters.
    #[must_use]
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// Adds a hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push(&mut self, hv: &BinaryHypervector) {
        self.push_weighted(hv, 1);
    }

    /// Removes a hypervector from the bundle (used by retraining updates).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn subtract(&mut self, hv: &BinaryHypervector) {
        self.push_weighted(hv, -1);
    }

    /// Adds a hypervector with an integer weight (negative weights subtract).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push_weighted(&mut self, hv: &BinaryHypervector, weight: i32) {
        self.push_row_weighted(hv.view(), weight);
    }

    /// Adds a borrowed row view (e.g. one row of a
    /// [`HypervectorBatch`](crate::HypervectorBatch)) to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push_row(&mut self, row: HvRef<'_>) {
        self.push_row_weighted(row, 1);
    }

    /// Adds a borrowed row view with an integer weight (negative weights
    /// subtract). This is the word-slice hot path every other push funnels
    /// into — see [`kernels::accumulate`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push_row_weighted(&mut self, row: HvRef<'_>, weight: i32) {
        assert_eq!(
            self.counts.len(),
            row.dim(),
            "dimension mismatch: expected {}, found {}",
            self.counts.len(),
            row.dim()
        );
        kernels::accumulate(&mut self.counts, row.as_words(), weight);
        self.weight += i64::from(weight);
    }

    /// Adds every input of a [`BitSlicedBundle`]: the same counters as
    /// pushing its `n` inputs one by one, for one [`kernels::accumulate`]
    /// per counter plane instead of one per input. Plane `j` holds bit `j`
    /// of each dimension's count `c` of one-bits, so accumulating it with
    /// weight `2^j` adds `±2^j`; over the bundle's `p` planes that is
    /// `2c − (2^p − 1)`, and one constant `2^p − 1 − n` per counter makes
    /// it the `2c − n` that `n` single pushes add. Counting and adding are
    /// order-free integer sums, so the result is bit-identical. `n` must
    /// stay below `2^31`, as the `i32` counters already require.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn push_bundle(&mut self, bundle: &BitSlicedBundle) {
        assert_eq!(
            self.counts.len(),
            bundle.dim(),
            "dimension mismatch: expected {}, found {}",
            self.counts.len(),
            bundle.dim()
        );
        let mut top = 0i64;
        for (j, plane) in bundle.planes().enumerate() {
            kernels::accumulate(&mut self.counts, plane, 1 << j);
            top = (top << 1) | 1;
        }
        let n = bundle.len() as i64;
        let offset = (top - n) as i32;
        if offset != 0 {
            for count in &mut self.counts {
                *count += offset;
            }
        }
        self.weight += n;
    }

    /// Merges another accumulator into this one by adding its counters —
    /// the reduction step of parallel bundling. Because integer addition is
    /// commutative and associative, merging per-chunk partial accumulators
    /// yields exactly the counters a serial pass would have produced.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "dimension mismatch: expected {}, found {}",
            self.counts.len(),
            other.counts.len()
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.weight += other.weight;
    }

    /// Resolves the majority vote into a binary hypervector using a
    /// deterministic tie-break policy.
    #[must_use]
    pub fn finalize(&self, tie: TieBreak) -> BinaryHypervector {
        self.finalize_with(|i| tie.bit(i))
    }

    /// Resolves the majority vote straight into a borrowed row (e.g. one
    /// row of a [`HypervectorBatch`](crate::HypervectorBatch) arena) with a
    /// deterministic tie-break — the allocation-free form of
    /// [`finalize`](Self::finalize) batched encoders bundle through.
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality differs from the accumulator's.
    pub fn finalize_into(&self, tie: TieBreak, out: &mut HvMut<'_>) {
        out.set_majority(&self.counts, tie);
    }

    /// Resolves the majority vote, breaking ties uniformly at random
    /// (equivalent to bundling one additional random hypervector — the
    /// conventional unbiased choice).
    #[must_use]
    pub fn finalize_random(&self, rng: &mut impl Rng) -> BinaryHypervector {
        self.finalize_with(|_| rng.random_bool(0.5))
    }

    /// Shared finalization path: packs the counter signs into words via
    /// [`kernels::majority_into`], consulting `tie_bit` only at exact ties
    /// (in ascending dimension order, which keeps RNG tie-breaking
    /// reproducible).
    fn finalize_with(&self, tie_bit: impl FnMut(usize) -> bool) -> BinaryHypervector {
        let mut words = vec![0u64; self.counts.len().div_ceil(64)];
        kernels::majority_into(&self.counts, &mut words, tie_bit);
        BinaryHypervector::from_words(self.counts.len(), words)
    }

    /// Signed agreement between the accumulated counters and a query
    /// hypervector: `Σ_i (query_i == 1 ? counts_i : −counts_i)`.
    ///
    /// This is the dot product of the integer class vector with the
    /// bipolarized query, the similarity measure used when classifying
    /// against *non-binarized* class vectors (an accuracy-preserving
    /// alternative to majority-then-Hamming).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn dot_bipolar(&self, query: &BinaryHypervector) -> i64 {
        self.dot_bipolar_row(query.view())
    }

    /// [`dot_bipolar`](Self::dot_bipolar) over a borrowed row view — the
    /// word-slice form used by batched inference.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn dot_bipolar_row(&self, query: HvRef<'_>) -> i64 {
        assert_eq!(
            self.counts.len(),
            query.dim(),
            "dimension mismatch: expected {}, found {}",
            self.counts.len(),
            query.dim()
        );
        kernels::dot_bipolar(&self.counts, query.as_words())
    }

    /// Resets all counters to zero.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.weight = 0;
    }
}

impl Extend<BinaryHypervector> for MajorityAccumulator {
    fn extend<T: IntoIterator<Item = BinaryHypervector>>(&mut self, iter: T) {
        for hv in iter {
            self.push(&hv);
        }
    }
}

impl<'a> Extend<&'a BinaryHypervector> for MajorityAccumulator {
    fn extend<T: IntoIterator<Item = &'a BinaryHypervector>>(&mut self, iter: T) {
        for hv in iter {
            self.push(hv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn from_parts_round_trips_captured_state() {
        let mut r = rng();
        let mut acc = MajorityAccumulator::new(777);
        for _ in 0..5 {
            acc.push(&BinaryHypervector::random(777, &mut r));
        }
        let restored = MajorityAccumulator::from_parts(acc.counts().to_vec(), acc.weight());
        assert_eq!(restored, acc);
        // Training resumes identically on both copies.
        let extra = BinaryHypervector::random(777, &mut r);
        let mut resumed = restored;
        acc.push(&extra);
        resumed.push(&extra);
        assert_eq!(
            resumed.finalize(TieBreak::Alternate),
            acc.finalize(TieBreak::Alternate)
        );
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn from_parts_rejects_empty_counts() {
        let _ = MajorityAccumulator::from_parts(Vec::new(), 0);
    }

    #[test]
    fn majority_of_odd_set_is_exact() {
        // With three vectors the majority is unambiguous; verify bit-by-bit.
        let a = BinaryHypervector::from_bits(&[true, true, false, false, true]);
        let b = BinaryHypervector::from_bits(&[true, false, true, false, true]);
        let c = BinaryHypervector::from_bits(&[false, false, false, true, true]);
        let mut acc = MajorityAccumulator::new(5);
        acc.extend([&a, &b, &c]);
        let m = acc.finalize(TieBreak::Zero);
        let expected = BinaryHypervector::from_bits(&[true, false, false, false, true]);
        assert_eq!(m, expected);
    }

    #[test]
    fn bundle_is_similar_to_members() {
        let mut r = rng();
        let members: Vec<_> = (0..9)
            .map(|_| BinaryHypervector::random(10_000, &mut r))
            .collect();
        let mut acc = MajorityAccumulator::new(10_000);
        acc.extend(members.iter());
        let bundle = acc.finalize_random(&mut r);
        for m in &members {
            // E[δ] for 9 bundled vectors is ≈ 0.5 − C(8,4)/2^9 ≈ 0.36.
            let d = bundle.normalized_hamming(m);
            assert!(d < 0.42, "distance to member {d}");
        }
    }

    #[test]
    fn subtract_undoes_push() {
        let mut r = rng();
        let a = BinaryHypervector::random(256, &mut r);
        let b = BinaryHypervector::random(256, &mut r);
        let mut acc = MajorityAccumulator::new(256);
        acc.push(&a);
        acc.push(&b);
        acc.subtract(&b);
        let mut only_a = MajorityAccumulator::new(256);
        only_a.push(&a);
        assert_eq!(acc.counts(), only_a.counts());
        assert_eq!(acc.weight(), 1);
    }

    #[test]
    fn weighted_push_equals_repeated_push() {
        let mut r = rng();
        let a = BinaryHypervector::random(128, &mut r);
        let mut acc1 = MajorityAccumulator::new(128);
        acc1.push_weighted(&a, 3);
        let mut acc2 = MajorityAccumulator::new(128);
        for _ in 0..3 {
            acc2.push(&a);
        }
        assert_eq!(acc1, acc2);
    }

    #[test]
    fn tie_break_policies() {
        let a = BinaryHypervector::from_bits(&[true, false]);
        let b = BinaryHypervector::from_bits(&[false, true]);
        let mut acc = MajorityAccumulator::new(2);
        acc.push(&a);
        acc.push(&b);
        assert_eq!(acc.finalize(TieBreak::Zero).count_ones(), 0);
        assert_eq!(acc.finalize(TieBreak::One).count_ones(), 2);
        let alt = acc.finalize(TieBreak::Alternate);
        assert!(alt.get(0) && !alt.get(1));
    }

    #[test]
    fn finalize_into_matches_finalize() {
        let mut r = rng();
        for dim in [1usize, 64, 65, 200] {
            let mut acc = MajorityAccumulator::new(dim);
            for _ in 0..4 {
                acc.push(&BinaryHypervector::random(dim, &mut r));
            }
            for tie in [TieBreak::Zero, TieBreak::One, TieBreak::Alternate] {
                // Start from a dirty row to prove it is fully overwritten.
                let mut batch = crate::HypervectorBatch::zeros(dim, 1);
                batch
                    .row_mut(0)
                    .copy_from(BinaryHypervector::random(dim, &mut r).view());
                acc.finalize_into(tie, &mut batch.row_mut(0));
                assert_eq!(batch.to_hypervector(0), acc.finalize(tie), "dim={dim}");
            }
        }
    }

    #[test]
    fn random_tie_break_is_roughly_balanced() {
        let mut r = rng();
        let a = BinaryHypervector::random(10_000, &mut r);
        let mut acc = MajorityAccumulator::new(10_000);
        acc.push(&a);
        acc.subtract(&a);
        // All counters are zero: the finalized vector is pure tie-break.
        let out = acc.finalize_random(&mut r);
        let ones = out.count_ones();
        assert!((4_700..=5_300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn clear_resets() {
        let mut acc = MajorityAccumulator::new(8);
        acc.push(&BinaryHypervector::ones(8));
        assert!(!acc.is_empty());
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.weight(), 0);
    }

    #[test]
    fn dot_bipolar_identifies_member() {
        let mut r = rng();
        let members: Vec<_> = (0..6)
            .map(|_| BinaryHypervector::random(4_096, &mut r))
            .collect();
        let outsider = BinaryHypervector::random(4_096, &mut r);
        let mut acc = MajorityAccumulator::new(4_096);
        acc.extend(members.iter());
        for m in &members {
            assert!(acc.dot_bipolar(m) > acc.dot_bipolar(&outsider));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_dimension_mismatch_panics() {
        let mut acc = MajorityAccumulator::new(8);
        acc.push(&BinaryHypervector::zeros(9));
    }

    #[test]
    fn merge_matches_serial_accumulation() {
        let mut r = rng();
        let vs: Vec<_> = (0..8)
            .map(|_| BinaryHypervector::random(333, &mut r))
            .collect();
        let mut serial = MajorityAccumulator::new(333);
        serial.extend(vs.iter());
        serial.subtract(&vs[3]);

        let mut left = MajorityAccumulator::new(333);
        left.extend(vs[..4].iter());
        left.subtract(&vs[3]);
        let mut right = MajorityAccumulator::new(333);
        right.extend(vs[4..].iter());
        left.merge(&right);
        assert_eq!(left, serial);
        assert_eq!(left.weight(), serial.weight());
    }

    #[test]
    fn push_row_matches_push() {
        let mut r = rng();
        let hv = BinaryHypervector::random(130, &mut r);
        let mut by_owned = MajorityAccumulator::new(130);
        by_owned.push(&hv);
        let mut by_row = MajorityAccumulator::new(130);
        by_row.push_row(hv.view());
        assert_eq!(by_owned, by_row);
        assert_eq!(by_owned.dot_bipolar(&hv), by_row.dot_bipolar_row(hv.view()));
    }

    #[test]
    fn push_bundle_matches_per_row_pushes() {
        for dim in [1usize, 63, 64, 65, 10_000] {
            let mut r = StdRng::seed_from_u64(dim as u64);
            let rows: Vec<_> = (0..4_096)
                .map(|_| BinaryHypervector::random(dim, &mut r))
                .collect();
            // Start from counters that already hold something, so the
            // bundle is added onto state rather than onto zeros.
            let mut base = MajorityAccumulator::new(dim);
            base.push(&rows[0]);
            base.subtract(&rows[1]);
            for n in (0..=70).chain([4_096]) {
                let mut bundle = BitSlicedBundle::new(dim);
                let mut per_row = base.clone();
                for row in &rows[..n] {
                    bundle.push(row.view());
                    per_row.push_row(row.view());
                }
                let mut bundled = base.clone();
                bundled.push_bundle(&bundle);
                assert_eq!(bundled, per_row, "dim={dim} n={n}");
                assert_eq!(bundled.weight(), per_row.weight(), "dim={dim} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_bundle_dimension_mismatch_panics() {
        let mut acc = MajorityAccumulator::new(8);
        acc.push_bundle(&BitSlicedBundle::new(9));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_dimension_mismatch_panics() {
        let mut a = MajorityAccumulator::new(8);
        a.merge(&MajorityAccumulator::new(9));
    }

    proptest! {
        #[test]
        fn prop_single_vector_round_trips(seed in 0u64..500, dim in 1usize..300) {
            // Majority of a single vector is the vector itself.
            let mut r = StdRng::seed_from_u64(seed);
            let hv = BinaryHypervector::random(dim, &mut r);
            let mut acc = MajorityAccumulator::new(dim);
            acc.push(&hv);
            prop_assert_eq!(acc.finalize(TieBreak::Zero), hv);
        }

        #[test]
        fn prop_majority_bounded_by_counts(seed in 0u64..500, n in 1usize..12) {
            // Each finalized bit must agree with the sign of its counter.
            let mut r = StdRng::seed_from_u64(seed);
            let dim = 64;
            let mut acc = MajorityAccumulator::new(dim);
            for _ in 0..n {
                acc.push(&BinaryHypervector::random(dim, &mut r));
            }
            let out = acc.finalize(TieBreak::Zero);
            for (i, bit) in out.bits().enumerate() {
                let c = acc.counts()[i];
                prop_assert_eq!(bit, c > 0);
            }
        }
    }
}
