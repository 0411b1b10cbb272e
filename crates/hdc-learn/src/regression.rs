use hdc_core::{
    kernels, BinaryHypervector, BitSlicedBundle, HdcError, HvRef, HypervectorBatch,
    MajorityAccumulator,
};
use hdc_encode::ScalarEncoder;
use rand::Rng;
use std::ops::Range;

/// How a [`RegressionModel`] stores and scores its bundled associations.
///
/// The paper describes bundling as an element-wise majority whose output
/// "represents the mean-vector of its inputs" (§2.1). The two readouts are
/// the two ways of honouring that:
///
/// * [`Readout::Binarized`] — the literal majority bit vector; inference is
///   Hamming distance. Compact (1 bit/dimension), but the sign function
///   discards magnitude. With *correlated* sample encodings (level and
///   circular sets draw each bit from only two span endpoints) the
///   magnitudes carry most of the information, and binarized readout can
///   degenerate to near-constant predictions.
/// * [`Readout::Integer`] — the raw per-dimension counters (the actual
///   mean-vector); inference scores each candidate label by the signed
///   agreement between the counters and `φ(x̂) ⊗ L_j`. Costs 32 bits per
///   dimension but preserves the superposition kernel exactly; this is the
///   readout the paper's regression results are consistent with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Readout {
    /// Majority-binarized model vector, Hamming inference.
    Binarized,
    /// Integer mean-vector, signed-agreement inference (default).
    #[default]
    Integer,
}

/// Incremental trainer for a [`RegressionModel`] (paper §2.3).
///
/// Each training pair `(φ(x), y)` contributes the bound hypervector
/// `φ(x) ⊗ φ_ℓ(y)` to a single bundle. The label encoding `φ_ℓ` must be
/// invertible, so it is a [`ScalarEncoder`] (level hypervectors over the
/// label range).
#[derive(Debug, Clone)]
pub struct RegressionTrainer {
    accumulator: MajorityAccumulator,
    label_encoder: ScalarEncoder,
    observed: usize,
    /// Reusable word buffer for the bound vector `φ(x) ⊗ φ_ℓ(y)` — one
    /// allocation for the trainer's whole lifetime, so the streaming
    /// [`observe_row`](Self::observe_row) path is allocation-free.
    scratch: Vec<u64>,
}

impl RegressionTrainer {
    /// Creates a trainer whose labels are encoded by `label_encoder`.
    #[must_use]
    pub fn new(label_encoder: ScalarEncoder) -> Self {
        let dim = label_encoder.dim();
        Self {
            accumulator: MajorityAccumulator::new(dim),
            label_encoder,
            observed: 0,
            scratch: vec![0u64; dim.div_ceil(64)],
        }
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.label_encoder.dim()
    }

    /// Number of observed training pairs.
    #[must_use]
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Reconstructs a trainer from previously captured state — the inverse
    /// of reading [`accumulator`](Self::accumulator) and
    /// [`observed`](Self::observed), used by snapshot restore. The counters
    /// are adopted verbatim, so the restored trainer finalizes
    /// bit-identically and resumes training where the saved one left off.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the accumulator's
    /// dimensionality differs from the label encoder's.
    pub fn from_parts(
        label_encoder: ScalarEncoder,
        accumulator: MajorityAccumulator,
        observed: usize,
    ) -> Result<Self, HdcError> {
        if accumulator.dim() != label_encoder.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: label_encoder.dim(),
                found: accumulator.dim(),
            });
        }
        let dim = label_encoder.dim();
        Ok(Self {
            accumulator,
            label_encoder,
            observed,
            scratch: vec![0u64; dim.div_ceil(64)],
        })
    }

    /// The label encoder `φ_ℓ`.
    #[must_use]
    pub fn label_encoder(&self) -> &ScalarEncoder {
        &self.label_encoder
    }

    /// The raw bundle accumulator — the counter state a snapshot captures.
    #[must_use]
    pub fn accumulator(&self) -> &MajorityAccumulator {
        &self.accumulator
    }

    /// Adds one `(encoded sample, label)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the sample's dimensionality differs from the label
    /// encoder's.
    pub fn observe(&mut self, sample: &BinaryHypervector, label: f64) {
        self.observe_row(sample.view(), label);
    }

    /// Adds one pair supplied as a borrowed row view (e.g. one row of a
    /// [`HypervectorBatch`]) — the allocation-free form online ingestion
    /// and batched fitting feed observations through. The bound vector
    /// `φ(x) ⊗ φ_ℓ(y)` is computed with one word-wise XOR into the
    /// trainer's reusable scratch buffer, bit-identically to
    /// [`observe`](Self::observe).
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality differs from the label encoder's.
    pub fn observe_row(&mut self, sample: HvRef<'_>, label: f64) {
        let dim = self.label_encoder.dim();
        assert_eq!(
            dim,
            sample.dim(),
            "dimension mismatch: expected {}, found {}",
            dim,
            sample.dim()
        );
        self.scratch.copy_from_slice(sample.as_words());
        kernels::xor_into(
            &mut self.scratch,
            self.label_encoder.encode(label).as_words(),
        );
        self.accumulator.push_row(HvRef::new(dim, &self.scratch));
        self.observed += 1;
    }

    /// Adds borrowed `(row, label)` pairs in one bit-sliced pass: each
    /// bound vector `φ(x) ⊗ φ_ℓ(y)` is counted carry-save into one
    /// [`BitSlicedBundle`] (never materialized), which is then added to the
    /// counters once ([`MajorityAccumulator::push_bundle`]).
    /// **Bit-identical** to observing the pairs one by one.
    ///
    /// # Panics
    ///
    /// Panics if a row's dimensionality differs from the label encoder's.
    pub fn observe_rows<'a>(&mut self, rows: impl IntoIterator<Item = (HvRef<'a>, f64)>) {
        let bundle = self.bundle_rows(rows);
        self.add_bundle(&bundle);
    }

    /// Counts the bound vectors of `rows` into one bundle.
    fn bundle_rows<'a>(&self, rows: impl IntoIterator<Item = (HvRef<'a>, f64)>) -> BitSlicedBundle {
        let mut bundle = BitSlicedBundle::new(self.label_encoder.dim());
        for (row, label) in rows {
            bundle.push_bound(row, self.label_encoder.encode(label).view());
        }
        bundle
    }

    fn add_bundle(&mut self, bundle: &BitSlicedBundle) {
        self.accumulator.push_bundle(bundle);
        self.observed += bundle.len();
    }

    /// Adds a whole batch of `(encoded sample, label)` pairs in one
    /// bit-sliced pass (see [`observe_rows`](Self::observe_rows)). When
    /// the batch is large enough to fork, rows are partitioned across the
    /// worker pool, each worker bundles its range, and the bundles are
    /// added to the counters in row order — still **bit-identical** to
    /// observing the pairs one by one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `labels.len()` differs
    /// from `batch.len()` (in which case nothing is accumulated).
    ///
    /// # Panics
    ///
    /// Panics if the batch's dimensionality differs from the label
    /// encoder's (unless the batch is empty).
    pub fn observe_batch(
        &mut self,
        batch: &HypervectorBatch,
        labels: &[f64],
    ) -> Result<(), HdcError> {
        if batch.len() != labels.len() {
            return Err(HdcError::BatchLengthMismatch {
                rows: batch.len(),
                labels: labels.len(),
            });
        }
        if batch.is_empty() {
            return Ok(());
        }
        let dim = self.label_encoder.dim();
        assert_eq!(
            dim,
            batch.dim(),
            "dimension mismatch: expected {}, found {}",
            dim,
            batch.dim()
        );
        let work = batch.len() * batch.words_per_row() * BitSlicedBundle::PUSH_WORD_OPS;
        let bundles = minipool::par_fold_ranges(
            batch.len(),
            work,
            |range| vec![self.bundle_rows(range.map(|i| (batch.row(i), labels[i])))],
            |mut done, next| {
                done.extend(next);
                done
            },
        );
        for bundle in bundles.into_iter().flatten() {
            self.add_bundle(&bundle);
        }
        Ok(())
    }

    /// Finalizes the bundle into a model with the chosen readout
    /// (`rng` is used for majority tie-breaking in the binarized form).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if no pairs were observed.
    pub fn finish_with(
        &self,
        readout: Readout,
        rng: &mut impl Rng,
    ) -> Result<RegressionModel, HdcError> {
        if self.observed == 0 {
            return Err(HdcError::EmptyInput);
        }
        let form = match readout {
            Readout::Binarized => ModelForm::Binary(self.accumulator.finalize_random(rng)),
            Readout::Integer => {
                ModelForm::counts_form(&self.label_encoder, self.accumulator.counts().to_vec())
            }
        };
        Ok(RegressionModel {
            form,
            label_encoder: self.label_encoder.clone(),
        })
    }

    /// Finalizes with the default [`Readout::Integer`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if no pairs were observed.
    pub fn finish(&self, rng: &mut impl Rng) -> Result<RegressionModel, HdcError> {
        self.finish_with(Readout::Integer, rng)
    }

    /// Finalizes the integer readout **deterministically**: no RNG is
    /// involved (the integer readout never breaks ties bit-wise), so the
    /// same accumulated counters always yield the same model — the property
    /// serving pipelines rely on for replication and snapshot restore.
    ///
    /// Unlike [`finish`](Self::finish) this also accepts an *empty*
    /// trainer: with all-zero counters every label scores zero and
    /// prediction degenerates to a constant grid point, which is the
    /// defined pre-training behaviour of an online-serving pipeline (the
    /// classification analogue finalizes all-zero class-vectors).
    #[must_use]
    pub fn finish_integer(&self) -> RegressionModel {
        RegressionModel {
            form: ModelForm::counts_form(&self.label_encoder, self.accumulator.counts().to_vec()),
            label_encoder: self.label_encoder.clone(),
        }
    }
}

/// The paper's regression model (§2.3): a single hypervector
/// `M = ⊕ᵢ φ(xᵢ) ⊗ φ_ℓ(yᵢ)` that *memorizes* sample–label associations in
/// superposition.
///
/// Prediction exploits the self-inverse property of binding:
/// `M ⊗ φ(x̂) ≈ φ_ℓ(ℓ(x̂)) + noise`; the noisy label vector is cleaned up
/// against the label encoder's level set and decoded with `φ_ℓ⁻¹`.
///
/// # Encoding quality matters
///
/// The effective regression kernel is the similarity profile of the *sample*
/// encoding `φ`. A single interpolation-level encoder has only two bit
/// sources per dimension (each level copies its bit from one of the two
/// span endpoints), so superposing many bound pairs degenerates towards the
/// global median. Binding several independently drawn encoders — as the
/// paper's Beijing encoding `Y ⊗ D ⊗ H` does — multiplies their correlation
/// profiles, sharpening the kernel and restoring resolution. Prefer
/// multi-factor sample encodings when accuracy matters.
///
/// # Example
///
/// ```
/// use hdc_encode::ScalarEncoder;
/// use hdc_learn::RegressionTrainer;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(17);
/// // Learn y = x over [0, 1] from 64 samples encoded with 32 input levels.
/// let input = ScalarEncoder::with_levels(0.0, 1.0, 32, 10_000, &mut rng)?;
/// let label = ScalarEncoder::with_levels(0.0, 1.0, 32, 10_000, &mut rng)?;
/// let mut trainer = RegressionTrainer::new(label);
/// for i in 0..64 {
///     let x = i as f64 / 63.0;
///     trainer.observe(input.encode(x), x);
/// }
/// let model = trainer.finish(&mut rng)?;
/// let y = model.predict(input.encode(0.5));
/// assert!((y - 0.5).abs() < 0.15, "predicted {y}");
/// # Ok::<(), hdc_learn::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegressionModel {
    form: ModelForm,
    label_encoder: ScalarEncoder,
}

#[derive(Debug, Clone)]
enum ModelForm {
    Binary(BinaryHypervector),
    Counts {
        counts: Vec<i32>,
        /// `Σ_{i ∈ ones(L_j)} counts[i]` per label — the query-independent
        /// half of the integer-readout score, precomputed at finalize time.
        label_sums: Vec<i64>,
        /// Coarse-to-fine acceleration tables; `None` below the size gate,
        /// in which case prediction always takes the full per-label walk.
        /// Boxed: the table is several `Vec`s wide and would otherwise
        /// dominate the enum's inline size.
        prune: Option<Box<PruneTable>>,
    },
}

impl ModelForm {
    /// Builds the integer-readout form: counters, per-label sums, and (when
    /// the model clears the size gate) the coarse-to-fine tables.
    fn counts_form(label_encoder: &ScalarEncoder, counts: Vec<i32>) -> Self {
        let label_sums: Vec<i64> = label_encoder
            .hypervectors()
            .iter()
            .map(|label_hv| {
                let mut sum = 0i64;
                kernels::for_each_set_bit(label_hv.as_words(), |i| {
                    sum += i64::from(counts[i]);
                });
                sum
            })
            .collect();
        let prune = PruneTable::build(label_encoder, &counts, &label_sums).map(Box::new);
        ModelForm::Counts {
            counts,
            label_sums,
            prune,
        }
    }
}

/// Don't build prune tables below this many packed words (= 1024 bits):
/// tiny models fit in cache and the full walk is already cheap.
const PRUNE_MIN_WORDS: usize = 16;
/// Don't build prune tables below this many label levels: the coarse pass
/// only pays when it can rule out many labels.
const PRUNE_MIN_LEVELS: usize = 4;
/// Shortlists up to this size pay individual exact tail walks; anything
/// larger (an inconclusive margin) falls back to the full-walk path, which
/// scores *every* level exactly via the flip chain.
const PRUNE_SHORTLIST_WALK_MAX: usize = 3;

/// Precomputed, query-independent tables for the coarse-to-fine integer
/// readout (built once at finalize time).
///
/// The exact score of level `j` for query `q` is
/// `score_j = Σ_{i ∈ ones(L_j)} (q_i ? −counts_i : counts_i)`. Splitting the
/// dimensions at word `prefix_words` (`split = prefix_words·64`) gives
/// `score_j = partial_j + tail_j` with
///
/// * `partial_j = prefix_label_sums[j] − 2·masked_sum(counts[..split],
///   L_j[..wc], q[..wc])` — **exact**, one cheap walk over the prefix
///   (1/8 of the vector) per label;
/// * `tail_j = tail_label_sums[j] − 2·tail_masked_j`, which satisfies
///   `|tail_j| ≤ tail_abs_bounds[j] = Σ_{i ∈ tail ones(L_j)} |counts_i|`
///   for **every** query (the bound is the all-signs-align worst case).
///
/// So `score_j ∈ [partial_j − bound_j, partial_j + bound_j]` with certainty,
/// and any level whose upper end sits below `max_k (partial_k − bound_k)`
/// cannot win — the shortlist keeps exactly the levels that still can. The
/// winner is therefore always found among the shortlist, and the selection
/// (including the last-max tie-break of the full walk) is bit-identical.
///
/// When the margin is inconclusive (most models: the worst-case bound is
/// loose), the fallback full walk is itself restructured: level encoders
/// produce label *chains* in which each bit flips only O(1) times from
/// `L_0` to `L_{m−1}`, so the tail masked sums of all `m` levels are
/// reproduced exactly from one full walk of `L_0`'s tail plus the
/// per-transition flip lists (`tail_flips`) — `O(d)` total instead of
/// `O(m·d)`. Integer addition is associative, so the reordered sums are the
/// same exact values the per-label walks produce.
#[derive(Debug, Clone)]
struct PruneTable {
    /// Number of packed words in the coarse prefix (`split = 64·prefix_words`).
    prefix_words: usize,
    /// `Σ_{i ∈ prefix ones(L_j)} counts[i]` per label.
    prefix_label_sums: Vec<i64>,
    /// `Σ_{i ∈ tail ones(L_j)} counts[i]` per label.
    tail_label_sums: Vec<i64>,
    /// `Σ_{i ∈ tail ones(L_j)} |counts[i]|` per label — the worst-case
    /// margin bound on the tail term.
    tail_abs_bounds: Vec<i64>,
    /// Flip events of the label chain within the prefix, grouped per
    /// transition by `prefix_flip_offsets`. The coarse partials are
    /// themselves computed chain-incrementally — one dense masked walk
    /// for `L_0`'s prefix, then these events. Exact i64 sums in a
    /// different association order, so the same integers.
    prefix_flips: SparseWalk,
    /// `prefix_flip_offsets[j]` = end of transition `j → j+1` in
    /// [`prefix_flips`](Self::prefix_flips) (one entry per transition).
    prefix_flip_offsets: Vec<u32>,
    /// Flip events of the label chain within the tail, grouped per
    /// transition by `tail_flip_offsets`.
    tail_flips: SparseWalk,
    /// `tail_flip_offsets[j]` = end of transition `j → j+1` in
    /// [`tail_flips`](Self::tail_flips) (one entry per transition).
    tail_flip_offsets: Vec<u32>,
}

/// A sparse list of bit positions paired with the exact signed counter
/// contribution each adds to the running masked overlap when the query
/// has that bit set: `+counts[idx]` for a 0→1 flip, `−counts[idx]` for a
/// 1→0 flip. Counters are frozen when the table is built, so baking them
/// in here turns the query-time walk into a branchless multiply-accumulate
/// over sequential 8-byte entries. (`build` rejects a counter of
/// `i32::MIN`, whose negation does not fit back in an `i32` — any other
/// value round-trips exactly.)
#[derive(Debug, Clone, Default)]
struct SparseWalk {
    /// Absolute bit indices into the query.
    idx: Vec<u32>,
    /// The signed contribution of each index (`±counts[idx]`).
    signed: Vec<i32>,
}

impl SparseWalk {
    fn push(&mut self, idx: u32, signed: i32) {
        self.idx.push(idx);
        self.signed.push(signed);
    }

    fn len(&self) -> usize {
        self.idx.len()
    }

    /// Adds `Σ signed[k] · q[idx[k]]` over `entries` to `overlap` — the
    /// exact (branchless) replay of one chain segment against the query.
    #[inline]
    fn apply(&self, entries: Range<usize>, overlap: &mut i64, qw: &[u64]) {
        for (&i, &s) in self.idx[entries.clone()].iter().zip(&self.signed[entries]) {
            let bit = (qw[(i >> 6) as usize] >> (i & 63)) & 1;
            *overlap += bit as i64 * i64::from(s);
        }
    }
}

/// Collects the flip events of a label chain over the word range
/// `[word_lo, word_hi)`, grouped per transition (one offsets entry per
/// transition), with their signed counter contributions baked in.
fn chain_flips(
    labels: &[BinaryHypervector],
    counts: &[i32],
    word_lo: usize,
    word_hi: usize,
) -> (SparseWalk, Vec<u32>) {
    let mut flips = SparseWalk::default();
    let mut offsets = Vec::with_capacity(labels.len().saturating_sub(1));
    for j in 1..labels.len() {
        let prev = labels[j - 1].as_words();
        let cur = labels[j].as_words();
        for w in word_lo..word_hi {
            let mut diff = prev[w] ^ cur[w];
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                let idx = w * 64 + bit;
                let c = counts[idx];
                let signed = if (cur[w] >> bit) & 1 == 1 { c } else { -c };
                flips.push(idx as u32, signed);
                diff &= diff - 1;
            }
        }
        offsets.push(flips.len() as u32);
    }
    (flips, offsets)
}

impl PruneTable {
    fn build(label_encoder: &ScalarEncoder, counts: &[i32], label_sums: &[i64]) -> Option<Self> {
        let labels = label_encoder.hypervectors();
        let levels = labels.len();
        let dim = counts.len();
        let words = dim.div_ceil(64);
        if words < PRUNE_MIN_WORDS || levels < PRUNE_MIN_LEVELS {
            return None;
        }
        // A counter of i32::MIN cannot be negated exactly in the packed
        // flip entries; unreachable from real training (counts move by ±1
        // per observation), but a restored snapshot could hold anything.
        if counts.contains(&i32::MIN) {
            return None;
        }
        let prefix_words = words / 8;
        let split = prefix_words * 64;
        // The flip chain only pays if the labels really are chain-like
        // (level/circular sets flip each bit O(1) times end to end; arbitrary
        // label sets would cost O(m·d) again).
        let mut total_flips = 0usize;
        for j in 1..levels {
            total_flips += kernels::hamming(labels[j - 1].as_words(), labels[j].as_words());
            if total_flips > 2 * dim {
                return None;
            }
        }
        let mut prefix_label_sums = Vec::with_capacity(levels);
        let mut tail_abs_bounds = Vec::with_capacity(levels);
        for label_hv in labels {
            let lw = label_hv.as_words();
            let mut pre = 0i64;
            kernels::for_each_set_bit(&lw[..prefix_words], |i| pre += i64::from(counts[i]));
            let mut bound = 0i64;
            kernels::for_each_set_bit(&lw[prefix_words..], |i| {
                bound += i64::from(counts[split + i].unsigned_abs());
            });
            prefix_label_sums.push(pre);
            tail_abs_bounds.push(bound);
        }
        let tail_label_sums: Vec<i64> = label_sums
            .iter()
            .zip(&prefix_label_sums)
            .map(|(&total, &pre)| total - pre)
            .collect();
        let (prefix_flips, prefix_flip_offsets) = chain_flips(labels, counts, 0, prefix_words);
        let (tail_flips, tail_flip_offsets) = chain_flips(labels, counts, prefix_words, words);
        Some(Self {
            prefix_words,
            prefix_label_sums,
            tail_label_sums,
            tail_abs_bounds,
            prefix_flips,
            prefix_flip_offsets,
            tail_flips,
            tail_flip_offsets,
        })
    }
}

impl RegressionModel {
    /// Fits a model in one pass over `(encoded sample, label)` pairs with
    /// the default [`Readout::Integer`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty training set.
    ///
    /// # Panics
    ///
    /// Panics if a sample's dimensionality differs from the label encoder's.
    pub fn fit<'a, I>(
        samples: I,
        label_encoder: ScalarEncoder,
        rng: &mut impl Rng,
    ) -> Result<Self, HdcError>
    where
        I: IntoIterator<Item = (&'a BinaryHypervector, f64)>,
    {
        Self::fit_with(samples, label_encoder, Readout::Integer, rng)
    }

    /// Fits a model with an explicit readout.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty training set.
    ///
    /// # Panics
    ///
    /// Panics if a sample's dimensionality differs from the label encoder's.
    pub fn fit_with<'a, I>(
        samples: I,
        label_encoder: ScalarEncoder,
        readout: Readout,
        rng: &mut impl Rng,
    ) -> Result<Self, HdcError>
    where
        I: IntoIterator<Item = (&'a BinaryHypervector, f64)>,
    {
        let mut trainer = RegressionTrainer::new(label_encoder);
        for (hv, y) in samples {
            trainer.observe(hv, y);
        }
        trainer.finish_with(readout, rng)
    }

    /// The readout this model was finalized with.
    #[must_use]
    pub fn readout(&self) -> Readout {
        match self.form {
            ModelForm::Binary(_) => Readout::Binarized,
            ModelForm::Counts { .. } => Readout::Integer,
        }
    }

    /// The label encoder `φ_ℓ`.
    #[must_use]
    pub fn label_encoder(&self) -> &ScalarEncoder {
        &self.label_encoder
    }

    /// Estimated cost of predicting one row, in the word-ops `minipool`'s
    /// fork rule counts: one walk per label level (the pruned integer
    /// readout measures close to that; the full walk costs more).
    #[must_use]
    pub fn row_word_ops(&self) -> usize {
        self.label_encoder.dim().div_ceil(64) * self.label_encoder.hypervectors().len()
    }

    /// Predicts the label of an encoded query:
    /// `φ_ℓ⁻¹(argmin_L δ(M ⊗ φ(x̂), L))`, with the distance evaluated
    /// against the binarized or integer model depending on the readout.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality differs from the model's.
    #[must_use]
    pub fn predict(&self, query: &BinaryHypervector) -> f64 {
        self.predict_row(query.view())
    }

    /// [`predict`](Self::predict) over a borrowed row view — the
    /// allocation-light path batched inference uses (no owned copy of the
    /// query is ever made).
    ///
    /// # Panics
    ///
    /// Panics if the view's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_row(&self, query: hdc_core::HvRef<'_>) -> f64 {
        match &self.form {
            ModelForm::Binary(model) => {
                // M ⊗ φ(x̂), computed word-wise into the single owned
                // buffer the decode needs anyway.
                assert_eq!(
                    model.dim(),
                    query.dim(),
                    "dimension mismatch: expected {}, found {}",
                    model.dim(),
                    query.dim()
                );
                let mut words = model.as_words().to_vec();
                hdc_core::kernels::xor_into(&mut words, query.as_words());
                let noisy_label = BinaryHypervector::from_words(model.dim(), words);
                self.label_encoder.decode(&noisy_label)
            }
            ModelForm::Counts {
                counts,
                label_sums,
                prune,
            } => {
                assert_eq!(
                    counts.len(),
                    query.dim(),
                    "dimension mismatch: expected {}, found {}",
                    counts.len(),
                    query.dim()
                );
                let best = match prune {
                    Some(table) => Self::best_level_pruned(
                        self.label_encoder.hypervectors(),
                        table,
                        counts,
                        query,
                    ),
                    None => Self::best_level_full(
                        self.label_encoder.hypervectors(),
                        counts,
                        label_sums,
                        query,
                    ),
                };
                self.label_encoder.value_of(best)
            }
        }
    }

    /// [`predict_row`](Self::predict_row) via the unaccelerated full
    /// per-label walk, ignoring any prune tables — the reference path the
    /// coarse-to-fine readout is proptest-compared against, and the
    /// "before" side of the readout benchmarks. Bit-identical to
    /// [`predict_row`](Self::predict_row) by construction (and by test).
    ///
    /// # Panics
    ///
    /// Panics if the view's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_row_full(&self, query: hdc_core::HvRef<'_>) -> f64 {
        match &self.form {
            ModelForm::Binary(_) => self.predict_row(query),
            ModelForm::Counts {
                counts, label_sums, ..
            } => {
                assert_eq!(
                    counts.len(),
                    query.dim(),
                    "dimension mismatch: expected {}, found {}",
                    counts.len(),
                    query.dim()
                );
                let best = Self::best_level_full(
                    self.label_encoder.hypervectors(),
                    counts,
                    label_sums,
                    query,
                );
                self.label_encoder.value_of(best)
            }
        }
    }

    /// Whether the integer readout carries coarse-to-fine prune tables
    /// (models below the size gate, and binarized models, do not).
    #[must_use]
    pub fn is_pruned(&self) -> bool {
        matches!(&self.form, ModelForm::Counts { prune: Some(_), .. })
    }

    /// The original integer readout: one full intersection walk per label.
    ///
    /// The soft unbinding M ⊗ φ(x̂): XOR with a one-bit inverts the
    /// majority bit, i.e. flips the counter's sign.
    /// score(L) = Σ_{b ∈ ones(L)} (q_b ? -counts_b : counts_b)
    ///          = Σ_{b ∈ ones(L)} counts_b
    ///            − 2·Σ_{b ∈ ones(L) ∧ ones(q)} counts_b.
    /// The first term is the precomputed `label_sums[j]`, so each label
    /// costs exactly one intersection walk and the query needs no
    /// flipped-counter buffer — allocation-free.
    fn best_level_full(
        labels: &[BinaryHypervector],
        counts: &[i32],
        label_sums: &[i64],
        query: hdc_core::HvRef<'_>,
    ) -> usize {
        labels
            .iter()
            .zip(label_sums)
            .enumerate()
            .map(|(j, (label_hv, &label_sum))| {
                let overlap =
                    hdc_core::kernels::masked_sum(counts, label_hv.as_words(), query.as_words());
                (j, label_sum - 2 * overlap)
            })
            .max_by_key(|&(_, score)| score)
            .expect("label encoder holds at least two levels")
            .0
    }

    /// The coarse-to-fine integer readout; returns the same level index as
    /// [`best_level_full`](Self::best_level_full) for every query.
    ///
    /// Coarse pass: exact partial scores over the prefix words for every
    /// label. The precomputed worst-case tail bounds turn each partial into
    /// a certain score interval; levels whose upper end is below the best
    /// lower end cannot win and are pruned. A small surviving shortlist
    /// pays individual exact tail walks; an inconclusive margin falls back
    /// to exact tail sums for *all* levels via the flip chain (see
    /// [`PruneTable`]). Ties resolve to the highest level index in both
    /// paths, exactly like the full walk's `max_by_key`.
    fn best_level_pruned(
        labels: &[BinaryHypervector],
        table: &PruneTable,
        counts: &[i32],
        query: hdc_core::HvRef<'_>,
    ) -> usize {
        let levels = labels.len();
        let qw = query.as_words();
        let wc = table.prefix_words;
        let split = wc * 64;
        // Coarse pass: exact prefix partials for every label, computed
        // chain-incrementally — L_0's prefix overlap once, then each
        // transition's few flip events, instead of one masked walk per
        // label. Exact i64 sums in a different association order: the
        // same integers a per-label walk produces.
        let mut partials = Vec::with_capacity(levels);
        // `L_0`'s base overlap pays one dense masked walk (the dispatched
        // kernel); every other level is a few chain deltas away.
        let mut prefix_overlap =
            kernels::masked_sum(&counts[..split], &labels[0].as_words()[..wc], &qw[..wc]);
        partials.push(table.prefix_label_sums[0] - 2 * prefix_overlap);
        let mut start = 0usize;
        for j in 1..levels {
            let end = table.prefix_flip_offsets[j - 1] as usize;
            table
                .prefix_flips
                .apply(start..end, &mut prefix_overlap, qw);
            start = end;
            partials.push(table.prefix_label_sums[j] - 2 * prefix_overlap);
        }
        let best_lower = partials
            .iter()
            .zip(&table.tail_abs_bounds)
            .map(|(&p, &b)| p - b)
            .max()
            .expect("label encoder holds at least two levels");
        let shortlist: Vec<usize> = (0..levels)
            .filter(|&j| partials[j] + table.tail_abs_bounds[j] >= best_lower)
            .collect();
        if shortlist.len() <= PRUNE_SHORTLIST_WALK_MAX {
            // Fine pass: only the shortlist pays an exact tail walk. Every
            // level that could possibly win is in the shortlist (excluded
            // levels sit strictly below some included level's exact score),
            // so the last-max scan over it reproduces the full argmax.
            let mut best_j = shortlist[0];
            let mut best = i64::MIN;
            for &j in &shortlist {
                let tail_overlap =
                    kernels::masked_sum(&counts[split..], &labels[j].as_words()[wc..], &qw[wc..]);
                let exact = partials[j] + table.tail_label_sums[j] - 2 * tail_overlap;
                if exact >= best {
                    best = exact;
                    best_j = j;
                }
            }
            best_j
        } else {
            // Inconclusive margin: fall back to the full walk, restructured
            // as one exact tail walk of L_0 plus chain deltas — every
            // level's score is computed exactly, none skipped.
            let mut tail_overlap =
                kernels::masked_sum(&counts[split..], &labels[0].as_words()[wc..], &qw[wc..]);
            let mut best = partials[0] + table.tail_label_sums[0] - 2 * tail_overlap;
            let mut best_j = 0;
            let mut start = 0usize;
            for (j, &partial) in partials.iter().enumerate().skip(1) {
                let end = table.tail_flip_offsets[j - 1] as usize;
                table.tail_flips.apply(start..end, &mut tail_overlap, qw);
                start = end;
                let exact = partial + table.tail_label_sums[j] - 2 * tail_overlap;
                if exact >= best {
                    best = exact;
                    best_j = j;
                }
            }
            best_j
        }
    }

    /// Predicts a batch of encoded queries. Serial; prefer
    /// [`predict_batch_par`](Self::predict_batch_par) or
    /// [`predict_rows`](Self::predict_rows) for large batches.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality differs from the model's.
    pub fn predict_batch<'a, I>(&self, queries: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'a BinaryHypervector>,
    {
        queries.into_iter().map(|q| self.predict(q)).collect()
    }

    /// Predicts a slice of queries, forking across the worker pool when the
    /// batch pays for it. Queries are independent, so the predictions are
    /// bit-identical to (and in the same order as) the serial
    /// [`predict_batch`](Self::predict_batch).
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_batch_par(&self, queries: &[BinaryHypervector]) -> Vec<f64> {
        let work = queries.len() * self.row_word_ops();
        minipool::par_map_indexed(queries, work, |_, q| self.predict(q))
    }

    /// Predicts every row of a contiguous [`HypervectorBatch`](hdc_core::HypervectorBatch),
    /// forking across the worker pool when the batch pays for it.
    ///
    /// # Panics
    ///
    /// Panics if the batch's dimensionality differs from the model's.
    #[must_use]
    pub fn predict_rows(&self, batch: &hdc_core::HypervectorBatch) -> Vec<f64> {
        let work = batch.len() * self.row_word_ops();
        minipool::par_generate(batch.len(), work, |i| self.predict_row(batch.row(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(97_531)
    }

    #[test]
    fn memorizes_single_association() {
        let mut r = rng();
        let label_enc = ScalarEncoder::with_levels(0.0, 10.0, 21, 10_000, &mut r).unwrap();
        let x = BinaryHypervector::random(10_000, &mut r);
        let mut trainer = RegressionTrainer::new(label_enc);
        trainer.observe(&x, 7.0);
        let model = trainer.finish(&mut r).unwrap();
        assert!((model.predict(&x) - 7.0).abs() < 0.51);
    }

    /// Two independent level encoders bound together — the multi-factor
    /// pattern the paper's Beijing encoding uses, which sharpens the
    /// regression kernel (see the type-level docs).
    fn two_factor_encoder(r: &mut StdRng) -> impl Fn(f64) -> BinaryHypervector {
        let e1 = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, r).unwrap();
        let e2 = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, r).unwrap();
        move |x: f64| e1.encode(x).bind(e2.encode(x))
    }

    #[test]
    fn learns_identity_function() {
        let mut r = rng();
        let enc = two_factor_encoder(&mut r);
        let label = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let pairs: Vec<(BinaryHypervector, f64)> = (0..200)
            .map(|i| {
                let x = i as f64 / 199.0;
                (enc(x), x)
            })
            .collect();
        let model =
            RegressionModel::fit(pairs.iter().map(|(h, y)| (h, *y)), label, &mut r).unwrap();
        // The superposition kernel still spans the interval, so edge
        // predictions shrink toward the interior; assert the honest
        // guarantees: a clear monotone trend, interior accuracy, and beating
        // the mean baseline.
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for i in 0..50 {
            let x = i as f64 / 49.0;
            preds.push(model.predict(&enc(x)));
            truths.push(x);
        }
        assert!(crate::metrics::mae(&preds, &truths) < 0.25);
        assert!(crate::metrics::r2(&preds, &truths) > 0.35);
        assert!(
            preds[44] - preds[5] > 0.15,
            "trend: {} -> {}",
            preds[5],
            preds[44]
        );
        let interior_err = (model.predict(&enc(0.5)) - 0.5).abs();
        assert!(interior_err < 0.2, "interior error {interior_err}");
    }

    #[test]
    fn learns_smooth_nonlinear_function() {
        let mut r = rng();
        let enc = two_factor_encoder(&mut r);
        let label = ScalarEncoder::with_levels(-1.0, 1.0, 48, 10_000, &mut r).unwrap();
        let f = |x: f64| (x * std::f64::consts::TAU).sin();
        let pairs: Vec<(BinaryHypervector, f64)> = (0..300)
            .map(|i| {
                let x = i as f64 / 299.0;
                (enc(x), f(x))
            })
            .collect();
        let model =
            RegressionModel::fit(pairs.iter().map(|(h, y)| (h, *y)), label, &mut r).unwrap();
        let mut sum_sq = 0.0;
        let n = 60;
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            let err = model.predict(&enc(x)) - f(x);
            sum_sq += err * err;
        }
        let mse = sum_sq / n as f64;
        // Variance of sin over [0,1] is 0.5; the superposition kernel damps
        // the amplitude, but the model must beat the mean predictor and
        // track the phase.
        assert!(mse < 0.4, "mse = {mse}");
        assert!(
            model.predict(&enc(0.25)) > model.predict(&enc(0.75)),
            "phase must be preserved"
        );
    }

    #[test]
    fn integer_readout_fixes_correlated_encodings() {
        // With a *single* level encoder the binarized readout degenerates
        // (see the Readout docs); the integer readout restores a usable
        // monotone fit. This is the readout ablation in miniature.
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let label_a = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let label_b = label_a.clone();
        let pairs: Vec<(BinaryHypervector, f64)> = (0..200)
            .map(|i| {
                let x = i as f64 / 199.0;
                (input.encode(x).clone(), x)
            })
            .collect();
        let binarized = RegressionModel::fit_with(
            pairs.iter().map(|(h, y)| (h, *y)),
            label_a,
            Readout::Binarized,
            &mut r,
        )
        .unwrap();
        let integer = RegressionModel::fit_with(
            pairs.iter().map(|(h, y)| (h, *y)),
            label_b,
            Readout::Integer,
            &mut r,
        )
        .unwrap();
        assert_eq!(binarized.readout(), Readout::Binarized);
        assert_eq!(integer.readout(), Readout::Integer);
        let spread =
            |m: &RegressionModel| m.predict(input.encode(0.95)) - m.predict(input.encode(0.05));
        assert!(
            spread(&integer) > spread(&binarized) + 0.1,
            "integer {} vs binarized {}",
            spread(&integer),
            spread(&binarized)
        );
        // The integer readout tracks the identity visibly.
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for i in 0..50 {
            let x = i as f64 / 49.0;
            preds.push(integer.predict(input.encode(x)));
            truths.push(x);
        }
        assert!(crate::metrics::r2(&preds, &truths) > 0.5);
    }

    #[test]
    fn multi_factor_encoding_sharpens_kernel() {
        // Documented behaviour: binding two independent level encoders gives
        // a visibly steeper identity fit than a single encoder.
        let mut r = rng();
        let single = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let label_a = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let model_single = RegressionModel::fit(
            (0..200).map(|i| {
                let x = i as f64 / 199.0;
                (single.encode(x), x)
            }),
            label_a,
            &mut r,
        )
        .unwrap();
        let spread_single =
            model_single.predict(single.encode(1.0)) - model_single.predict(single.encode(0.0));

        let enc = two_factor_encoder(&mut r);
        let label_b = ScalarEncoder::with_levels(0.0, 1.0, 64, 10_000, &mut r).unwrap();
        let pairs: Vec<(BinaryHypervector, f64)> = (0..200)
            .map(|i| {
                let x = i as f64 / 199.0;
                (enc(x), x)
            })
            .collect();
        let model_pair =
            RegressionModel::fit(pairs.iter().map(|(h, y)| (h, *y)), label_b, &mut r).unwrap();
        let spread_pair = model_pair.predict(&enc(1.0)) - model_pair.predict(&enc(0.0));
        assert!(
            spread_pair > spread_single + 0.1,
            "two-factor spread {spread_pair} vs single {spread_single}"
        );
    }

    #[test]
    fn observe_batch_is_bit_identical_to_serial_observe() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 32, 4_096, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 32, 4_096, &mut r).unwrap();
        let samples: Vec<BinaryHypervector> = (0..67)
            .map(|i| input.encode(i as f64 / 66.0).corrupt(0.02, &mut r))
            .collect();
        let values: Vec<f64> = (0..67).map(|i| i as f64 / 66.0).collect();
        let mut serial = RegressionTrainer::new(label.clone());
        for (hv, &y) in samples.iter().zip(&values) {
            serial.observe(hv, y);
        }
        let mut batched = RegressionTrainer::new(label.clone());
        let arena = HypervectorBatch::from_vectors(&samples).unwrap();
        batched.observe_batch(&arena, &values).unwrap();
        assert_eq!(batched.observed(), serial.observed());
        assert_eq!(batched.accumulator(), serial.accumulator());

        // A length mismatch accumulates nothing.
        let mut untouched = RegressionTrainer::new(label);
        assert!(matches!(
            untouched.observe_batch(&arena, &values[..10]),
            Err(HdcError::BatchLengthMismatch { .. })
        ));
        assert_eq!(untouched.observed(), 0);
        assert!(untouched.accumulator().is_empty());
    }

    /// The bit-sliced fold against one `observe` per row, for batches on
    /// each side of the fork break-even and for a single row.
    #[test]
    fn batched_fold_matches_per_row_observe() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 32, 10_000, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 24, 10_000, &mut r).unwrap();
        for n in [1usize, 2, 67, 4_000] {
            let values: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 96.0).collect();
            let samples: Vec<BinaryHypervector> = values
                .iter()
                .map(|&x| input.encode(x).corrupt(0.02, &mut r))
                .collect();
            let mut per_row = RegressionTrainer::new(label.clone());
            per_row.observe(&samples[0], 0.5);
            let mut by_rows = per_row.clone();
            let mut by_batch = per_row.clone();
            for (hv, &y) in samples.iter().zip(&values) {
                per_row.observe(hv, y);
            }
            by_rows.observe_rows(
                samples
                    .iter()
                    .map(BinaryHypervector::view)
                    .zip(values.iter().copied()),
            );
            let arena = HypervectorBatch::from_vectors(&samples).unwrap();
            by_batch.observe_batch(&arena, &values).unwrap();
            for trainer in [&by_rows, &by_batch] {
                assert_eq!(trainer.observed(), per_row.observed(), "n={n}");
                assert_eq!(trainer.accumulator(), per_row.accumulator(), "n={n}");
            }
        }
    }

    #[test]
    fn finish_integer_is_deterministic_and_matches_finish() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 16, 2_048, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 16, 2_048, &mut r).unwrap();
        let mut trainer = RegressionTrainer::new(label);
        for i in 0..40 {
            let x = i as f64 / 39.0;
            trainer.observe(input.encode(x), x);
        }
        let deterministic = trainer.finish_integer();
        let random = trainer.finish(&mut r).unwrap();
        // The integer readout never consults the RNG, so both forms agree
        // on every query.
        for i in 0..16 {
            let q = input.encode(i as f64 / 15.0);
            assert_eq!(deterministic.predict(q), random.predict(q));
        }
        // An empty trainer finalizes to a constant (defined) predictor
        // instead of erroring — the pre-training state of online serving.
        let empty =
            RegressionTrainer::new(ScalarEncoder::with_levels(0.0, 1.0, 8, 512, &mut r).unwrap())
                .finish_integer();
        let q = BinaryHypervector::random(512, &mut r);
        assert!((0.0..=1.0).contains(&empty.predict(&q)));
        assert_eq!(empty.predict(&q), empty.predict(&q));
    }

    #[test]
    fn from_parts_round_trips_trainer_state() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 16, 1_024, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 16, 1_024, &mut r).unwrap();
        let mut trainer = RegressionTrainer::new(label.clone());
        for i in 0..20 {
            let x = i as f64 / 19.0;
            trainer.observe(input.encode(x), x);
        }
        let mut restored = RegressionTrainer::from_parts(
            trainer.label_encoder().clone(),
            trainer.accumulator().clone(),
            trainer.observed(),
        )
        .unwrap();
        assert_eq!(restored.observed(), trainer.observed());
        // Training resumes identically, and the finalized models agree.
        restored.observe(input.encode(0.5), 0.5);
        trainer.observe(input.encode(0.5), 0.5);
        assert_eq!(restored.accumulator(), trainer.accumulator());
        let q = input.encode(0.3);
        assert_eq!(
            restored.finish_integer().predict(q),
            trainer.finish_integer().predict(q)
        );
        // A dimension mismatch is refused.
        assert!(matches!(
            RegressionTrainer::from_parts(label, MajorityAccumulator::new(64), 0),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_training_set_is_error() {
        let mut r = rng();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 8, 512, &mut r).unwrap();
        let trainer = RegressionTrainer::new(label);
        assert!(matches!(trainer.finish(&mut r), Err(HdcError::EmptyInput)));
    }

    #[test]
    fn trainer_accessors() {
        let mut r = rng();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 8, 512, &mut r).unwrap();
        let mut trainer = RegressionTrainer::new(label);
        assert_eq!(trainer.dim(), 512);
        assert_eq!(trainer.observed(), 0);
        trainer.observe(&BinaryHypervector::random(512, &mut r), 0.3);
        assert_eq!(trainer.observed(), 1);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 16, 4_096, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 16, 4_096, &mut r).unwrap();
        let model = RegressionModel::fit(
            (0..40).map(|i| {
                let x = i as f64 / 39.0;
                (input.encode(x), x)
            }),
            label,
            &mut r,
        )
        .unwrap();
        let queries: Vec<BinaryHypervector> = (0..5)
            .map(|i| input.encode(i as f64 / 4.0).clone())
            .collect();
        let batch = model.predict_batch(&queries);
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(model.predict(q), *b);
        }
        // The parallel forms are bit-identical to the serial loop.
        assert_eq!(model.predict_batch_par(&queries), batch);
        let arena = hdc_core::HypervectorBatch::from_vectors(&queries).unwrap();
        assert_eq!(model.predict_rows(&arena), batch);
    }

    #[test]
    fn pruned_readout_is_bit_identical_to_full_walk() {
        // Trained models across dimensionalities straddling the prune gate
        // and word boundaries: predict_row must equal predict_row_full on
        // every query, bit for bit.
        let mut r = rng();
        for dim in [1_000usize, 1_024, 2_050, 4_096] {
            let input = ScalarEncoder::with_levels(0.0, 1.0, 32, dim, &mut r).unwrap();
            let label = ScalarEncoder::with_levels(0.0, 1.0, 24, dim, &mut r).unwrap();
            let mut trainer = RegressionTrainer::new(label);
            for i in 0..80 {
                let x = i as f64 / 79.0;
                trainer.observe(&input.encode(x).corrupt(0.05, &mut r), x);
            }
            let model = trainer.finish_integer();
            assert!(model.is_pruned(), "dim={dim} should clear the gate");
            for i in 0..40 {
                let q = input.encode(i as f64 / 39.0).corrupt(0.1, &mut r);
                assert_eq!(
                    model.predict(&q),
                    model.predict_row_full(q.view()),
                    "dim={dim} query {i}"
                );
            }
        }
        // Below the gate no tables are built and both paths are the same code.
        let input = ScalarEncoder::with_levels(0.0, 1.0, 8, 512, &mut r).unwrap();
        let small =
            RegressionModel::fit([(input.encode(0.5), 0.5)], input.clone(), &mut r).unwrap();
        assert!(!small.is_pruned());
        let q = input.encode(0.3);
        assert_eq!(small.predict(q), small.predict_row_full(q.view()));
    }

    #[test]
    fn inconclusive_margin_falls_back_to_exact_full_walk() {
        // All-zero prefix counters make every coarse partial identical, so
        // no level can be ruled out: the margin is inconclusive and the
        // chain fallback must score every level exactly.
        let mut r = rng();
        let dim = 2_048usize;
        let label = ScalarEncoder::with_levels(0.0, 1.0, 16, dim, &mut r).unwrap();
        let mut counts_acc = MajorityAccumulator::new(dim);
        let probe = BinaryHypervector::random(dim, &mut r);
        counts_acc.push(&probe);
        counts_acc.push(&BinaryHypervector::random(dim, &mut r));
        counts_acc.push(&BinaryHypervector::random(dim, &mut r));
        let trainer = RegressionTrainer::from_parts(label.clone(), counts_acc, 3).unwrap();
        let model = trainer.finish_integer();
        assert!(model.is_pruned());
        for i in 0..24 {
            let q = BinaryHypervector::random(dim, &mut r);
            assert_eq!(model.predict(&q), model.predict_row_full(q.view()), "q {i}");
        }
        assert_eq!(model.predict(&probe), model.predict_row_full(probe.view()));
        // Now a genuinely flat-prefix model: the bundled vector is zero on
        // the whole prefix region, so every coarse partial ties exactly and
        // the shortlist is all levels — the chain fallback carries alone.
        let words = dim / 64;
        let wc = words / 8;
        let mut tail_only = vec![0u64; words];
        for w in tail_only.iter_mut().skip(wc) {
            *w = 0xA5A5_5A5A_0FF0_F00F;
        }
        let mut acc = MajorityAccumulator::new(dim);
        acc.push(&BinaryHypervector::from_words(dim, tail_only));
        let model_flat = RegressionTrainer::from_parts(label, acc, 1)
            .unwrap()
            .finish_integer();
        assert!(model_flat.is_pruned());
        for i in 0..24 {
            let q = BinaryHypervector::random(dim, &mut r);
            assert_eq!(
                model_flat.predict(&q),
                model_flat.predict_row_full(q.view()),
                "flat q {i}"
            );
        }
    }

    #[test]
    fn conclusive_margin_takes_the_shortlist_path() {
        // Zero tail counters give zero margin bounds, so the coarse pass
        // alone decides: the shortlist collapses to the exact leaders and
        // the tie-break must still match the full walk's last-max rule.
        let mut r = rng();
        let dim = 2_048usize;
        let label = ScalarEncoder::with_levels(0.0, 1.0, 16, dim, &mut r).unwrap();
        let words = dim / 64;
        let wc = words / 8;
        let mut prefix_only = vec![0u64; words];
        for w in prefix_only.iter_mut().take(wc) {
            *w = 0x3C3C_C3C3_1E1E_E1E1;
        }
        let mut acc = MajorityAccumulator::new(dim);
        acc.push(&BinaryHypervector::from_words(dim, prefix_only));
        let model = RegressionTrainer::from_parts(label, acc, 1)
            .unwrap()
            .finish_integer();
        assert!(model.is_pruned());
        for i in 0..32 {
            let q = BinaryHypervector::random(dim, &mut r);
            assert_eq!(model.predict(&q), model.predict_row_full(q.view()), "q {i}");
        }
        // The all-zeros query exercises pure ties: every masked_sum is 0 and
        // scores reduce to the label sums; both paths must pick the same
        // (last-max) level.
        let zero = BinaryHypervector::zeros(dim);
        assert_eq!(model.predict(&zero), model.predict_row_full(zero.view()));
    }

    #[test]
    fn model_accessors() {
        let mut r = rng();
        let input = ScalarEncoder::with_levels(0.0, 1.0, 8, 1_024, &mut r).unwrap();
        let label = ScalarEncoder::with_levels(0.0, 1.0, 8, 1_024, &mut r).unwrap();
        let model = RegressionModel::fit([(input.encode(0.5), 0.5)], label, &mut r).unwrap();
        assert_eq!(model.readout(), Readout::Integer);
        assert_eq!(model.label_encoder().levels(), 8);
    }
}
