use hdc_core::{
    BinaryHypervector, BitSlicedBundle, HdcError, HvRef, HypervectorBatch, MajorityAccumulator,
    TieBreak,
};
use rand::Rng;

/// Incremental trainer for a [`CentroidClassifier`]: one majority
/// accumulator per class, fed with encoded training samples.
///
/// ```
/// use hdc_core::BinaryHypervector;
/// use hdc_learn::CentroidTrainer;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(11);
/// let mut trainer = CentroidTrainer::new(2, 10_000)?;
/// let a = BinaryHypervector::random(10_000, &mut rng);
/// let b = BinaryHypervector::random(10_000, &mut rng);
/// trainer.observe(&a, 0)?;
/// trainer.observe(&b, 1)?;
/// let model = trainer.finish(&mut rng);
/// assert_eq!(model.predict(&a), 0);
/// # Ok::<(), hdc_learn::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CentroidTrainer {
    accumulators: Vec<MajorityAccumulator>,
    counts: Vec<usize>,
}

impl CentroidTrainer {
    /// Creates a trainer for `classes` classes over `dim`-bit encodings.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if `classes == 0` or
    /// [`HdcError::InvalidDimension`] if `dim == 0`.
    pub fn new(classes: usize, dim: usize) -> Result<Self, HdcError> {
        if classes == 0 {
            return Err(HdcError::InvalidBasisSize {
                requested: 0,
                minimum: 1,
            });
        }
        if dim == 0 {
            return Err(HdcError::InvalidDimension(dim));
        }
        Ok(Self {
            accumulators: (0..classes)
                .map(|_| MajorityAccumulator::new(dim))
                .collect(),
            counts: vec![0; classes],
        })
    }

    /// Reconstructs a trainer from previously captured per-class
    /// accumulators and sample counts — the inverse of reading
    /// [`accumulator`](Self::accumulator) and [`counts`](Self::counts) per
    /// class, used by snapshot restore. The counters are adopted verbatim,
    /// so the restored trainer finalizes bit-identically and resumes
    /// training exactly where the saved one left off.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if no accumulators are
    /// supplied, [`HdcError::BatchLengthMismatch`] if `counts` does not
    /// hold one entry per class, and [`HdcError::DimensionMismatch`] if
    /// the accumulators disagree on dimensionality.
    pub fn from_parts(
        accumulators: Vec<MajorityAccumulator>,
        counts: Vec<usize>,
    ) -> Result<Self, HdcError> {
        let Some(first) = accumulators.first() else {
            return Err(HdcError::InvalidBasisSize {
                requested: 0,
                minimum: 1,
            });
        };
        if counts.len() != accumulators.len() {
            return Err(HdcError::BatchLengthMismatch {
                rows: accumulators.len(),
                labels: counts.len(),
            });
        }
        let dim = first.dim();
        if let Some(other) = accumulators.iter().find(|a| a.dim() != dim) {
            return Err(HdcError::DimensionMismatch {
                expected: dim,
                found: other.dim(),
            });
        }
        Ok(Self {
            accumulators,
            counts,
        })
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.accumulators.len()
    }

    /// Adds an encoded training sample for class `label`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown label.
    ///
    /// # Panics
    ///
    /// Panics if the sample's dimensionality differs from the trainer's.
    pub fn observe(&mut self, sample: &BinaryHypervector, label: usize) -> Result<(), HdcError> {
        self.observe_row(sample.view(), label)
    }

    /// Adds an encoded training sample supplied as a borrowed row view (e.g.
    /// one row of a [`HypervectorBatch`]) — the allocation-free form online
    /// ingestion loops feed observations through.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown label.
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality differs from the trainer's.
    pub fn observe_row(&mut self, row: HvRef<'_>, label: usize) -> Result<(), HdcError> {
        let classes = self.accumulators.len();
        let acc = self
            .accumulators
            .get_mut(label)
            .ok_or(HdcError::LabelOutOfRange { label, classes })?;
        acc.push_row(row);
        self.counts[label] += 1;
        Ok(())
    }

    /// Merges another trainer's accumulated state into this one by adding
    /// its per-class counters and sample counts — the reduction step of
    /// versioned online refresh, where a *delta* trainer collects live
    /// observations off to the side and is periodically folded into the
    /// base. Counter addition commutes, so the merged state is bit-identical
    /// to having observed every sample on one trainer, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the trainers disagree on class count or dimensionality.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.accumulators.len(),
            other.accumulators.len(),
            "class count mismatch: expected {}, found {}",
            self.accumulators.len(),
            other.accumulators.len()
        );
        for (dst, src) in self.accumulators.iter_mut().zip(&other.accumulators) {
            dst.merge(src);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// The accumulator of one class — the raw counter state a versioned
    /// snapshot is finalized from.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.classes()`.
    #[must_use]
    pub fn accumulator(&self, label: usize) -> &MajorityAccumulator {
        &self.accumulators[label]
    }

    /// Adds borrowed `(row, label)` samples in one bit-sliced pass: each
    /// class's rows are counted carry-save into a [`BitSlicedBundle`],
    /// which is then added to the class's counters once
    /// ([`MajorityAccumulator::push_bundle`]). Counter addition commutes,
    /// so the state is **bit-identical** to observing the samples one by
    /// one. A class without rows is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for the first unknown label
    /// (in which case nothing is accumulated).
    ///
    /// # Panics
    ///
    /// Panics if a row's dimensionality differs from the trainer's.
    pub fn observe_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (HvRef<'a>, usize)>,
    ) -> Result<(), HdcError> {
        let bundles = self.bundle_rows(rows)?;
        self.add_bundles(&bundles);
        Ok(())
    }

    /// Counts each class's rows into a bundle of its own.
    fn bundle_rows<'a>(
        &self,
        rows: impl IntoIterator<Item = (HvRef<'a>, usize)>,
    ) -> Result<Vec<BitSlicedBundle>, HdcError> {
        let classes = self.accumulators.len();
        let dim = self.accumulators[0].dim();
        let mut bundles: Vec<BitSlicedBundle> =
            (0..classes).map(|_| BitSlicedBundle::new(dim)).collect();
        for (row, label) in rows {
            bundles
                .get_mut(label)
                .ok_or(HdcError::LabelOutOfRange { label, classes })?
                .push(row);
        }
        Ok(bundles)
    }

    /// Adds one bundle per class to the counters and sample counts.
    fn add_bundles(&mut self, bundles: &[BitSlicedBundle]) {
        for ((acc, count), bundle) in self
            .accumulators
            .iter_mut()
            .zip(&mut self.counts)
            .zip(bundles)
        {
            acc.push_bundle(bundle);
            *count += bundle.len();
        }
    }

    /// Adds a whole batch of encoded samples in one bit-sliced pass (see
    /// [`observe_rows`](Self::observe_rows)). When the batch is large
    /// enough to fork, the rows are partitioned across the worker pool,
    /// each worker bundles its range per class, and the bundles are added
    /// to the counters in row order — still **bit-identical** to observing
    /// the samples one by one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `labels.len()` differs
    /// from `batch.len()` and [`HdcError::LabelOutOfRange`] for an unknown
    /// label (in which case nothing is accumulated).
    ///
    /// # Panics
    ///
    /// Panics if the batch's dimensionality differs from the trainer's.
    pub fn observe_batch(
        &mut self,
        batch: &HypervectorBatch,
        labels: &[usize],
    ) -> Result<(), HdcError> {
        if batch.len() != labels.len() {
            return Err(HdcError::BatchLengthMismatch {
                rows: batch.len(),
                labels: labels.len(),
            });
        }
        let dim = self.accumulators[0].dim();
        assert_eq!(
            dim,
            batch.dim(),
            "dimension mismatch: expected {}, found {}",
            dim,
            batch.dim()
        );
        let work = batch.len() * batch.words_per_row() * BitSlicedBundle::PUSH_WORD_OPS;
        let ranges = minipool::par_fold_ranges(
            batch.len(),
            work,
            |range| {
                Ok(vec![
                    self.bundle_rows(range.map(|i| (batch.row(i), labels[i])))?
                ])
            },
            |done: Result<Vec<_>, HdcError>, next| {
                let mut done = done?;
                done.extend(next?);
                Ok(done)
            },
        );
        for bundles in ranges.transpose()?.into_iter().flatten() {
            self.add_bundles(&bundles);
        }
        Ok(())
    }

    /// Number of samples observed per class.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Access to the per-class accumulators (used by
    /// [`AdaptiveClassifier`](crate::AdaptiveClassifier) for retraining).
    #[must_use]
    pub(crate) fn into_accumulators(self) -> Vec<MajorityAccumulator> {
        self.accumulators
    }

    /// Finalizes the per-class majorities into a classifier, breaking
    /// bundling ties randomly.
    #[must_use]
    pub fn finish(&self, rng: &mut impl Rng) -> CentroidClassifier {
        CentroidClassifier {
            class_vectors: self
                .accumulators
                .iter()
                .map(|a| a.finalize_random(rng))
                .collect(),
        }
    }

    /// Finalizes with a deterministic tie-break policy instead of an RNG:
    /// the same accumulated counters always yield the same classifier. This
    /// is what reproducible serving pipelines (`hdc-serve`'s `Model`) use,
    /// so refitting, resharding and replication cannot drift bit-wise.
    #[must_use]
    pub fn finish_deterministic(&self, tie: TieBreak) -> CentroidClassifier {
        CentroidClassifier {
            class_vectors: self.accumulators.iter().map(|a| a.finalize(tie)).collect(),
        }
    }
}

/// The paper's standard classification model (§2.2): one prototype
/// *class-vector* `Mᵢ = ⊕_{ℓ(x)=i} φ(x)` per class; a query is assigned to
/// the class whose vector is nearest in normalized Hamming distance.
///
/// Build it incrementally with [`CentroidTrainer`] or in one call with
/// [`CentroidClassifier::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CentroidClassifier {
    class_vectors: Vec<BinaryHypervector>,
}

impl CentroidClassifier {
    /// Fits a model from an iterator of `(encoded sample, label)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for zero classes/dimension or an out-of-range
    /// label.
    ///
    /// # Panics
    ///
    /// Panics if a sample's dimensionality differs from `dim`.
    pub fn fit<'a, I>(
        samples: I,
        classes: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, HdcError>
    where
        I: IntoIterator<Item = (&'a BinaryHypervector, usize)>,
    {
        let mut trainer = CentroidTrainer::new(classes, dim)?;
        for (hv, label) in samples {
            trainer.observe(hv, label)?;
        }
        Ok(trainer.finish(rng))
    }

    /// Fits a model from a contiguous batch of encoded samples in one
    /// parallel pass (see [`CentroidTrainer::observe_batch`]). Produces the
    /// same model as [`fit`](Self::fit) over the same samples and RNG.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for zero classes/dimension, a label count that
    /// differs from the batch length, or an out-of-range label.
    pub fn fit_batch(
        batch: &HypervectorBatch,
        labels: &[usize],
        classes: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, HdcError> {
        let mut trainer = CentroidTrainer::new(classes, batch.dim())?;
        trainer.observe_batch(batch, labels)?;
        Ok(trainer.finish(rng))
    }

    /// Creates a classifier directly from externally built class-vectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if no class-vectors are supplied.
    pub fn from_class_vectors(class_vectors: Vec<BinaryHypervector>) -> Result<Self, HdcError> {
        if class_vectors.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        Ok(Self { class_vectors })
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.class_vectors.len()
    }

    /// The prototype vector of a class.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.classes()`.
    #[must_use]
    pub fn class_vector(&self, label: usize) -> &BinaryHypervector {
        &self.class_vectors[label]
    }

    /// Estimated cost of classifying one row, in the word-ops `minipool`'s
    /// fork rule counts: one Hamming walk per class-vector.
    #[must_use]
    pub fn row_word_ops(&self) -> usize {
        self.class_vectors[0].as_words().len() * self.class_vectors.len()
    }

    /// Predicts the label of an encoded query: `argmin_i δ(φ(x̂), Mᵢ)`.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality differs from the model's.
    #[must_use]
    pub fn predict(&self, query: &BinaryHypervector) -> usize {
        hdc_core::similarity::nearest(query, &self.class_vectors)
            .expect("classifier always holds at least one class-vector")
            .0
    }

    /// Predicts and also returns the normalized distance to every
    /// class-vector (useful for confidence/margin analysis).
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_with_distances(&self, query: &BinaryHypervector) -> (usize, Vec<f64>) {
        let distances = hdc_core::similarity::distances(query, &self.class_vectors);
        let best = distances
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("distances are finite"))
            .expect("non-empty")
            .0;
        (best, distances)
    }

    /// Classifies a batch, returning predicted labels. Serial; prefer
    /// [`predict_batch_par`](Self::predict_batch_par) or
    /// [`predict_rows`](Self::predict_rows) for large batches.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality differs from the model's.
    pub fn predict_batch<'a, I>(&self, queries: I) -> Vec<usize>
    where
        I: IntoIterator<Item = &'a BinaryHypervector>,
    {
        queries.into_iter().map(|q| self.predict(q)).collect()
    }

    /// Classifies a slice of queries, forking across the worker pool when
    /// the batch pays for it. Queries are independent, so the labels are
    /// bit-identical to (and in the same order as) the serial
    /// [`predict_batch`](Self::predict_batch).
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_batch_par(&self, queries: &[BinaryHypervector]) -> Vec<usize> {
        let work = queries.len() * self.row_word_ops();
        minipool::par_map_indexed(queries, work, |_, q| self.predict(q))
    }

    /// Classifies every row of a contiguous [`HypervectorBatch`], forking
    /// across the worker pool when the batch pays for it — the
    /// allocation-free end of the batched inference path (rows are compared
    /// against the class-vectors through borrowed views).
    ///
    /// # Panics
    ///
    /// Panics if the batch's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_rows(&self, batch: &HypervectorBatch) -> Vec<usize> {
        let work = batch.len() * self.row_word_ops();
        minipool::par_generate(batch.len(), work, |i| {
            hdc_core::similarity::nearest_to_row(batch.row(i), &self.class_vectors)
                .expect("classifier always holds at least one class-vector")
                .0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2_468)
    }

    fn noisy_problem(
        rng: &mut StdRng,
        classes: usize,
        per_class: usize,
        noise: f64,
    ) -> (Vec<BinaryHypervector>, Vec<(BinaryHypervector, usize)>) {
        let protos: Vec<_> = (0..classes)
            .map(|_| BinaryHypervector::random(10_000, rng))
            .collect();
        let samples = (0..classes * per_class)
            .map(|i| {
                let c = i % classes;
                (protos[c].corrupt(noise, rng), c)
            })
            .collect();
        (protos, samples)
    }

    #[test]
    fn learns_noisy_prototypes() {
        let mut r = rng();
        let (protos, train) = noisy_problem(&mut r, 5, 20, 0.25);
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 5, 10_000, &mut r).unwrap();
        let mut correct = 0;
        let total = 200;
        for i in 0..total {
            let c = i % 5;
            let query = protos[c].corrupt(0.25, &mut r);
            if model.predict(&query) == c {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "accuracy {correct}/{total}"
        );
    }

    #[test]
    fn class_vector_is_closer_to_own_samples() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 3, 15, 0.2);
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 3, 10_000, &mut r).unwrap();
        for (hv, label) in &train {
            let own = model.class_vector(*label).normalized_hamming(hv);
            for other in 0..3 {
                if other != *label {
                    assert!(own < model.class_vector(other).normalized_hamming(hv));
                }
            }
        }
    }

    #[test]
    fn predict_with_distances_is_consistent() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 4, 10, 0.2);
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 4, 10_000, &mut r).unwrap();
        let q = &train[0].0;
        let (label, distances) = model.predict_with_distances(q);
        assert_eq!(label, model.predict(q));
        assert_eq!(distances.len(), 4);
        for d in &distances {
            assert!(*d >= distances[label]);
        }
    }

    #[test]
    fn trainer_counts_and_classes() {
        let mut r = rng();
        let mut trainer = CentroidTrainer::new(3, 256).unwrap();
        assert_eq!(trainer.classes(), 3);
        let hv = BinaryHypervector::random(256, &mut r);
        trainer.observe(&hv, 2).unwrap();
        trainer.observe(&hv, 2).unwrap();
        assert_eq!(trainer.counts(), &[0, 0, 2]);
    }

    #[test]
    fn from_parts_round_trips_trainer_state() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 3, 6, 0.25);
        let mut trainer = CentroidTrainer::new(3, 10_000).unwrap();
        for (hv, label) in &train {
            trainer.observe(hv, *label).unwrap();
        }
        let accumulators: Vec<MajorityAccumulator> =
            (0..3).map(|c| trainer.accumulator(c).clone()).collect();
        let mut restored =
            CentroidTrainer::from_parts(accumulators, trainer.counts().to_vec()).unwrap();
        assert_eq!(restored.counts(), trainer.counts());
        assert_eq!(
            restored.finish_deterministic(TieBreak::Alternate),
            trainer.finish_deterministic(TieBreak::Alternate)
        );
        // Training resumes identically on the restored copy.
        let extra = BinaryHypervector::random(10_000, &mut r);
        restored.observe(&extra, 1).unwrap();
        trainer.observe(&extra, 1).unwrap();
        assert_eq!(
            restored.finish_deterministic(TieBreak::Alternate),
            trainer.finish_deterministic(TieBreak::Alternate)
        );

        // Degenerate reconstructions are refused.
        assert!(CentroidTrainer::from_parts(vec![], vec![]).is_err());
        assert!(
            CentroidTrainer::from_parts(vec![MajorityAccumulator::new(64)], vec![0, 0]).is_err()
        );
        assert!(CentroidTrainer::from_parts(
            vec![MajorityAccumulator::new(64), MajorityAccumulator::new(32)],
            vec![0, 0]
        )
        .is_err());
    }

    #[test]
    fn rejects_out_of_range_label() {
        let mut r = rng();
        let mut trainer = CentroidTrainer::new(2, 64).unwrap();
        let hv = BinaryHypervector::random(64, &mut r);
        assert!(matches!(
            trainer.observe(&hv, 2),
            Err(HdcError::LabelOutOfRange {
                label: 2,
                classes: 2
            })
        ));
    }

    #[test]
    fn rejects_degenerate_construction() {
        assert!(CentroidTrainer::new(0, 64).is_err());
        assert!(CentroidTrainer::new(2, 0).is_err());
        assert!(CentroidClassifier::from_class_vectors(vec![]).is_err());
    }

    #[test]
    fn predict_batch_matches_predict() {
        let mut r = rng();
        let (protos, train) = noisy_problem(&mut r, 3, 10, 0.2);
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 3, 10_000, &mut r).unwrap();
        let queries: Vec<BinaryHypervector> =
            (0..9).map(|i| protos[i % 3].corrupt(0.2, &mut r)).collect();
        let batch = model.predict_batch(&queries);
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(model.predict(q), *b);
        }
    }

    #[test]
    fn fit_batch_is_bit_identical_to_serial_fit() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 4, 12, 0.25);
        let hvs: Vec<BinaryHypervector> = train.iter().map(|(h, _)| h.clone()).collect();
        let labels: Vec<usize> = train.iter().map(|(_, l)| *l).collect();
        let batch = HypervectorBatch::from_vectors(&hvs).unwrap();

        // Same RNG seed on both sides: identical counters mean identical
        // tie-break draws, so the models must match bit for bit.
        let mut rng_a = StdRng::seed_from_u64(77);
        let serial =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 4, 10_000, &mut rng_a)
                .unwrap();
        let mut rng_b = StdRng::seed_from_u64(77);
        let batched = CentroidClassifier::fit_batch(&batch, &labels, 4, &mut rng_b).unwrap();
        assert_eq!(serial, batched);
    }

    #[test]
    fn finish_deterministic_is_reproducible_and_matches_counters() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 3, 9, 0.25);
        let mut trainer = CentroidTrainer::new(3, 10_000).unwrap();
        for (hv, label) in &train {
            trainer.observe(hv, *label).unwrap();
        }
        let a = trainer.finish_deterministic(TieBreak::Alternate);
        let b = trainer.finish_deterministic(TieBreak::Alternate);
        assert_eq!(a, b);
        // Each class vector is the plain deterministic finalize of its
        // accumulator — and an odd per-class sample count leaves no ties, so
        // the random finish agrees too.
        let c = trainer.finish(&mut r);
        assert_eq!(a, c);
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let mut r = rng();
        let (protos, train) = noisy_problem(&mut r, 3, 10, 0.2);
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 3, 10_000, &mut r).unwrap();
        let queries: Vec<BinaryHypervector> = (0..23)
            .map(|i| protos[i % 3].corrupt(0.2, &mut r))
            .collect();
        let serial = model.predict_batch(&queries);
        assert_eq!(model.predict_batch_par(&queries), serial);
        let batch = HypervectorBatch::from_vectors(&queries).unwrap();
        assert_eq!(model.predict_rows(&batch), serial);
    }

    #[test]
    fn merge_of_split_trainers_matches_one_pass() {
        let mut r = rng();
        let (_, train) = noisy_problem(&mut r, 3, 8, 0.25);
        let mut whole = CentroidTrainer::new(3, 10_000).unwrap();
        for (hv, label) in &train {
            whole.observe(hv, *label).unwrap();
        }
        // Base sees the first half, a delta trainer collects the rest.
        let mut base = CentroidTrainer::new(3, 10_000).unwrap();
        let mut delta = CentroidTrainer::new(3, 10_000).unwrap();
        let split = train.len() / 2;
        for (hv, label) in &train[..split] {
            base.observe_row(hv.view(), *label).unwrap();
        }
        for (hv, label) in &train[split..] {
            delta.observe_row(hv.view(), *label).unwrap();
        }
        base.merge(&delta);
        assert_eq!(base.counts(), whole.counts());
        for label in 0..3 {
            assert_eq!(
                base.accumulator(label).counts(),
                whole.accumulator(label).counts(),
                "class {label}"
            );
        }
        assert_eq!(
            base.finish_deterministic(TieBreak::Alternate),
            whole.finish_deterministic(TieBreak::Alternate)
        );
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn merge_rejects_class_mismatch() {
        let mut a = CentroidTrainer::new(2, 64).unwrap();
        let b = CentroidTrainer::new(3, 64).unwrap();
        a.merge(&b);
    }

    #[test]
    fn observe_batch_validates_inputs() {
        let mut r = rng();
        let mut trainer = CentroidTrainer::new(2, 64).unwrap();
        let batch =
            HypervectorBatch::from_vectors(&[BinaryHypervector::random(64, &mut r)]).unwrap();
        assert!(matches!(
            trainer.observe_batch(&batch, &[0, 1]),
            Err(HdcError::BatchLengthMismatch { rows: 1, labels: 2 })
        ));
        assert!(matches!(
            trainer.observe_batch(&batch, &[2]),
            Err(HdcError::LabelOutOfRange {
                label: 2,
                classes: 2
            })
        ));
        // A failed call accumulates nothing.
        assert_eq!(trainer.counts(), &[0, 0]);
        trainer.observe_batch(&batch, &[1]).unwrap();
        assert_eq!(trainer.counts(), &[0, 1]);
    }

    /// The bit-sliced fold against one `observe` per row, with a class of
    /// one row and classes of none, for a batch on each side of the fork
    /// break-even.
    #[test]
    fn batched_fold_matches_per_row_observe() {
        let mut r = rng();
        let classes = 6;
        for n in [1usize, 2, 45, 4_000] {
            let rows: Vec<BinaryHypervector> = (0..n)
                .map(|_| BinaryHypervector::random(10_000, &mut r))
                .collect();
            // Class 1 gets the first row only; classes 2 and 5 get none.
            let labels: Vec<usize> = (0..n)
                .map(|i| match i {
                    0 => 1,
                    _ if i % 2 == 0 => 0,
                    _ if i % 3 == 0 => 3,
                    _ => 4,
                })
                .collect();
            let mut per_row = CentroidTrainer::new(classes, 10_000).unwrap();
            per_row.observe(&rows[0], 2).unwrap();
            let mut by_rows = per_row.clone();
            let mut by_batch = per_row.clone();
            for (hv, &label) in rows.iter().zip(&labels) {
                per_row.observe(hv, label).unwrap();
            }
            by_rows
                .observe_rows(
                    rows.iter()
                        .map(BinaryHypervector::view)
                        .zip(labels.iter().copied()),
                )
                .unwrap();
            let arena = HypervectorBatch::from_vectors(&rows).unwrap();
            by_batch.observe_batch(&arena, &labels).unwrap();
            for trainer in [&by_rows, &by_batch] {
                assert_eq!(trainer.counts(), per_row.counts(), "n={n}");
                for class in 0..classes {
                    assert_eq!(
                        trainer.accumulator(class),
                        per_row.accumulator(class),
                        "n={n} class {class}"
                    );
                }
            }
        }
        // An unknown label anywhere accumulates nothing.
        let mut trainer = CentroidTrainer::new(2, 64).unwrap();
        let hv = BinaryHypervector::random(64, &mut r);
        assert!(matches!(
            trainer.observe_rows([(hv.view(), 0), (hv.view(), 2), (hv.view(), 3)]),
            Err(HdcError::LabelOutOfRange {
                label: 2,
                classes: 2
            })
        ));
        assert_eq!(trainer.counts(), &[0, 0]);
        assert!(trainer.accumulator(0).is_empty());
    }

    #[test]
    fn untrained_class_is_never_catastrophic() {
        // A class that saw no samples gets a tie-broken random vector; it
        // must not absorb other classes' queries.
        let mut r = rng();
        let (protos, train) = noisy_problem(&mut r, 2, 20, 0.2);
        // Train a 3-class model but only feed classes 0 and 1.
        let model =
            CentroidClassifier::fit(train.iter().map(|(h, l)| (h, *l)), 3, 10_000, &mut r).unwrap();
        let mut correct = 0;
        for i in 0..100 {
            let c = i % 2;
            if model.predict(&protos[c].corrupt(0.2, &mut r)) == c {
                correct += 1;
            }
        }
        assert!(
            correct > 95,
            "accuracy {correct}/100 with an empty class present"
        );
    }
}
