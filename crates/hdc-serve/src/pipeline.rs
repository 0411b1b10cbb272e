//! The unified `Pipeline`/`Model` API: one typed builder over basis,
//! encoder and learner, one object to fit and serve — for **both** task
//! families the paper evaluates (classification, Table 1; regression over
//! circular variables, Table 2).
//!
//! Since PR 5 the builder is a thin fluent layer over the plain-data
//! [`PipelineSpec`](crate::PipelineSpec): every chain of builder calls
//! produces a spec value, and [`build`](ModelBuilder::build) hands it to
//! [`Pipeline::from_spec`], which is also exactly what
//! [`Pipeline::load`](crate::Pipeline) does when rebuilding a model from a
//! [`Snapshot`](crate::Snapshot). A pipeline is therefore a *value* you can
//! construct, inspect, hash and write to disk; the live [`Model`] is just
//! that value plus trainer state.

use std::fmt;
use std::path::Path;

use hdc_core::{BinaryHypervector, HdcError, HvMut, HypervectorBatch, TieBreak};
use hdc_encode::{Encoder, FieldSpec, Radians};
use hdc_learn::{metrics, CentroidClassifier, CentroidTrainer, RegressionModel, RegressionTrainer};
use rand::{rngs::StdRng, SeedableRng};

use crate::snapshot::Snapshot;
use crate::spec::{Basis, EncSpec, PipelineSpec, SpecInput, Task};

/// Object-safe seam over [`hdc_encode::Encoder`]: the methods a [`Model`]
/// and a serving runtime need (`dim`, in-place `encode_into`, the input
/// check a runtime handle runs before enqueueing, and the per-row work
/// estimate the batched fan-out forks on), without the generic
/// `encode_batch` that keeps the full trait from being boxed. Every
/// `Encoder<X> + Send + Sync + Debug` implements it via the blanket impl,
/// so `Box<dyn DynEncoder<X>>` erases the concrete encoder type while the
/// batched fan-out is rebuilt on top (see [`Model::encode_batch`]).
pub trait DynEncoder<X: ?Sized>: Send + Sync + fmt::Debug {
    /// Dimensionality `d` of the produced hypervectors.
    fn dim(&self) -> usize;

    /// Encodes `input` into the provided row, overwriting its contents.
    fn encode_into(&self, input: &X, out: HvMut<'_>);

    /// Checks `input` without encoding it (see
    /// [`hdc_encode::Encoder::check_input`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for an input `encode_into` would panic on.
    fn check_input(&self, input: &X) -> Result<(), HdcError>;

    /// Estimated word-ops to encode one input (see
    /// [`hdc_encode::Encoder::row_word_ops`]).
    fn row_word_ops(&self) -> usize;
}

impl<X: ?Sized, E> DynEncoder<X> for E
where
    E: Encoder<X> + Send + Sync + fmt::Debug,
{
    fn dim(&self) -> usize {
        Encoder::dim(self)
    }

    fn encode_into(&self, input: &X, out: HvMut<'_>) {
        Encoder::encode_into(self, input, out);
    }

    fn check_input(&self, input: &X) -> Result<(), HdcError> {
        Encoder::check_input(self, input)
    }

    fn row_word_ops(&self) -> usize {
        Encoder::row_word_ops(self)
    }
}

/// A buildable encoder specification: carries, at the type level, the input
/// type `Input` the finished [`Model`] will accept, and degrades to the
/// plain-data [`EncSpec`] the pipeline spec stores. Obtained from the
/// [`Enc`] constructors; consumed by [`ModelBuilder::build`].
pub trait EncoderSpec {
    /// The input type of the built encoder (and of the resulting model).
    type Input: ?Sized + SpecInput;

    /// The plain-data form of this spec (what [`PipelineSpec`] stores).
    fn data(&self) -> EncSpec;

    /// The basis family used when the builder's
    /// [`basis`](PipelineBuilder::basis) was never called — delegates to
    /// [`EncSpec::default_basis`], so defaults never quantize a linear
    /// range through a wrapping basis or vice versa.
    fn default_basis(&self) -> Basis {
        self.data().default_basis()
    }
}

/// Namespace of encoder-spec constructors, mirroring the encoder taxonomy
/// of `hdc-encode` (Aygun et al.'s survey): pick one per pipeline.
///
/// | Constructor | Model input | Backing encoder |
/// |---|---|---|
/// | [`Enc::scalar`] | `f64` | [`hdc_encode::ScalarEncoder`] |
/// | [`Enc::angle`] | [`Radians`] | [`hdc_encode::AngleEncoder`] |
/// | [`Enc::categorical`] | `usize` | [`hdc_encode::CategoricalEncoder`] |
/// | [`Enc::sequence`] | `[usize]` | [`hdc_encode::SequenceEncoder`] |
/// | [`Enc::record`] | `[f64]` | [`hdc_encode::FeatureRecordEncoder`] |
pub struct Enc;

impl Enc {
    /// A scalar pipeline over `[low, high]`, quantized into the basis's `m`
    /// levels.
    #[must_use]
    pub fn scalar(low: f64, high: f64) -> ScalarSpec {
        ScalarSpec { low, high }
    }

    /// An angle pipeline over `[0, 2π)`, quantized into the basis's `m`
    /// sectors (wrap-correct with a circular basis).
    #[must_use]
    pub fn angle() -> AngleSpec {
        AngleSpec
    }

    /// A categorical pipeline over `n` symbols (always a random basis —
    /// symbols carry no ordinal structure; the pipeline basis is ignored).
    #[must_use]
    pub fn categorical(n: usize) -> CategoricalSpec {
        CategoricalSpec { n }
    }

    /// A sequence pipeline over an alphabet of `n` symbols (position-
    /// permuted random symbol hypervectors; the pipeline basis is ignored).
    #[must_use]
    pub fn sequence(n: usize) -> SequenceSpec {
        SequenceSpec { n }
    }

    /// A record pipeline over raw `f64` feature rows, one [`FieldSpec`] per
    /// position; scalar and angle fields quantize through the pipeline
    /// basis.
    #[must_use]
    pub fn record(fields: Vec<FieldSpec>) -> RecordSpec {
        RecordSpec { fields }
    }
}

/// Spec built by [`Enc::scalar`].
#[derive(Debug, Clone, Copy)]
pub struct ScalarSpec {
    low: f64,
    high: f64,
}

impl EncoderSpec for ScalarSpec {
    type Input = f64;

    fn data(&self) -> EncSpec {
        EncSpec::Scalar {
            low: self.low,
            high: self.high,
        }
    }
}

/// Spec built by [`Enc::angle`].
#[derive(Debug, Clone, Copy)]
pub struct AngleSpec;

impl EncoderSpec for AngleSpec {
    type Input = Radians;

    fn data(&self) -> EncSpec {
        EncSpec::Angle
    }
}

/// Spec built by [`Enc::categorical`].
#[derive(Debug, Clone, Copy)]
pub struct CategoricalSpec {
    n: usize,
}

impl EncoderSpec for CategoricalSpec {
    type Input = usize;

    fn data(&self) -> EncSpec {
        EncSpec::Categorical { n: self.n }
    }
}

/// Spec built by [`Enc::sequence`].
#[derive(Debug, Clone, Copy)]
pub struct SequenceSpec {
    n: usize,
}

impl EncoderSpec for SequenceSpec {
    type Input = [usize];

    fn data(&self) -> EncSpec {
        EncSpec::Sequence { n: self.n }
    }
}

/// Spec built by [`Enc::record`].
#[derive(Debug, Clone)]
pub struct RecordSpec {
    fields: Vec<FieldSpec>,
}

impl EncoderSpec for RecordSpec {
    type Input = [f64];

    fn data(&self) -> EncSpec {
        EncSpec::Record {
            fields: self.fields.clone(),
        }
    }
}

/// Entry point of the unified API: [`Pipeline::builder`] starts a typed
/// builder chain ending in a [`Model`]; [`Pipeline::from_spec`] builds the
/// same model from a plain-data [`PipelineSpec`]; [`Pipeline::load`]
/// rebuilds a trained model from a [`Snapshot`] on disk.
///
/// ```
/// use hdc_serve::{Basis, Enc, Pipeline};
///
/// let mut model = Pipeline::builder(10_000)
///     .seed(7)
///     .classes(2)
///     .basis(Basis::Circular { m: 24, r: 0.0 })
///     .encoder(Enc::angle())
///     .build()?;
/// // Hours on the daily circle: morning (class 0) vs evening (class 1).
/// use hdc_serve::Radians;
/// let hours: Vec<Radians> = (0..24).map(|h| Radians::periodic(h as f64, 24.0)).collect();
/// let labels: Vec<usize> = (0..24).map(|h| usize::from(h >= 12)).collect();
/// model.fit_batch(&hours, &labels)?;
/// assert_eq!(model.predict(&Radians::periodic(9.0, 24.0)), 0);
/// assert_eq!(model.predict(&Radians::periodic(21.0, 24.0)), 1);
/// # Ok::<(), hdc_serve::HdcError>(())
/// ```
///
/// A regression pipeline differs only in the task:
///
/// ```
/// use hdc_serve::{Enc, Pipeline};
///
/// let mut model = Pipeline::builder(4_096)
///     .seed(3)
///     .regression(0.0, 1.0, 32)
///     .encoder(Enc::scalar(0.0, 1.0))
///     .build()?;
/// let xs: Vec<f64> = (0..64).map(|i| i as f64 / 63.0).collect();
/// model.fit_value_batch(&xs, &xs)?;
/// assert!((model.predict_value(&0.5) - 0.5).abs() < 0.2);
/// # Ok::<(), hdc_serve::HdcError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Starts a builder for `dim`-bit pipelines. Defaults: seed `0`,
    /// two-class classification, and — unless
    /// [`basis`](PipelineBuilder::basis) is called — the encoder spec's own
    /// [`default_basis`](EncSpec::default_basis) (`m = 16`: level for
    /// scalars, circular otherwise).
    #[must_use]
    pub fn builder(dim: usize) -> PipelineBuilder {
        PipelineBuilder {
            dim,
            seed: 0,
            basis: None,
            task: Task::Classification { classes: 2 },
        }
    }

    /// Builds a live [`Model`] from a plain-data [`PipelineSpec`] — the
    /// single construction path the builder, snapshots and warm restarts
    /// all funnel through. Deterministic: the same spec always yields a
    /// bit-identical (untrained) model.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::SpecMismatch`] if `X` is not the input type of
    /// the spec's encoder, and [`HdcError`] for invalid dimension, basis,
    /// encoder or task parameters.
    pub fn from_spec<X: ?Sized + SpecInput>(spec: PipelineSpec) -> Result<Model<X>, HdcError> {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let encoder = X::build_encoder(&spec.encoder, spec.dim, spec.basis, &mut rng)?;
        let state = TaskState::fresh(&spec, &mut rng)?;
        Ok(Model {
            spec,
            encoder,
            state,
        })
    }

    /// Rebuilds a trained [`Model`] from a [`Snapshot`] value: the spec
    /// header reconstructs the encoders deterministically, then the saved
    /// trainer accumulators are adopted verbatim — so the loaded model
    /// predicts **bit-identically** to the model that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::SpecMismatch`] for a wrong input type and
    /// [`HdcError::Snapshot`] for internally inconsistent state.
    pub fn from_snapshot<X: ?Sized + SpecInput>(snapshot: &Snapshot) -> Result<Model<X>, HdcError> {
        let mut model = Self::from_spec::<X>(snapshot.spec().clone())?;
        model.restore(snapshot)?;
        Ok(model)
    }

    /// Reads a [`Snapshot`] file and rebuilds its model — the warm-restart
    /// entry point pairing [`Model::save`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] for I/O failures or a corrupt file,
    /// and [`HdcError::SpecMismatch`] for a wrong input type.
    pub fn load<X: ?Sized + SpecInput>(path: impl AsRef<Path>) -> Result<Model<X>, HdcError> {
        Self::from_snapshot(&Snapshot::read(path)?)
    }
}

/// The untyped half of the builder: dimensionality, seed, basis family and
/// task. Calling [`encoder`](Self::encoder) fixes the input type and moves
/// to a [`ModelBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineBuilder {
    dim: usize,
    seed: u64,
    basis: Option<Basis>,
    task: Task,
}

impl PipelineBuilder {
    /// Seed of the pipeline's deterministic RNG (basis draws, keys).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The basis family scalar/angle/record encoders quantize through
    /// (overriding the spec's [`default_basis`](EncSpec::default_basis)).
    #[must_use]
    pub fn basis(mut self, basis: Basis) -> Self {
        self.basis = Some(basis);
        self
    }

    /// Classification over `classes` labels (shorthand for
    /// [`task`](Self::task) with [`Task::Classification`]).
    #[must_use]
    pub fn classes(mut self, classes: usize) -> Self {
        self.task = Task::Classification { classes };
        self
    }

    /// Regression over labels in `[low, high]` quantized into `levels`
    /// grid points (shorthand for [`task`](Self::task) with
    /// [`Task::Regression`]).
    #[must_use]
    pub fn regression(mut self, low: f64, high: f64, levels: usize) -> Self {
        self.task = Task::Regression { low, high, levels };
        self
    }

    /// The task family, as plain data.
    #[must_use]
    pub fn task(mut self, task: Task) -> Self {
        self.task = task;
        self
    }

    /// Selects the encoder spec, fixing the model's input type.
    #[must_use]
    pub fn encoder<S: EncoderSpec>(self, spec: S) -> ModelBuilder<S> {
        ModelBuilder { base: self, spec }
    }
}

/// The typed half of the builder: everything is configured, only
/// [`build`](Self::build) is left.
#[derive(Debug, Clone)]
pub struct ModelBuilder<S> {
    base: PipelineBuilder,
    spec: S,
}

impl<S: EncoderSpec> ModelBuilder<S> {
    /// The plain-data [`PipelineSpec`] this builder chain describes —
    /// inspect it, hash it, persist it, or [`build`](Self::build) it.
    #[must_use]
    pub fn spec(&self) -> PipelineSpec {
        let encoder = self.spec.data();
        let basis = self.base.basis.unwrap_or_else(|| encoder.default_basis());
        PipelineSpec {
            dim: self.base.dim,
            seed: self.base.seed,
            basis,
            encoder,
            task: self.base.task,
        }
    }

    /// Builds the [`Model`]: assembles the [`PipelineSpec`] and hands it to
    /// [`Pipeline::from_spec`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for invalid dimension, task, basis or encoder
    /// parameters.
    pub fn build(self) -> Result<Model<S::Input>, HdcError> {
        Pipeline::from_spec(self.spec())
    }
}

/// The task-specific half of a live model: trainer accumulators plus the
/// finalized head they deterministically refresh into. Shared with the
/// runtime (which moves it into its background trainer thread) and the
/// snapshot format (which captures/restores exactly this state).
pub(crate) enum TaskState {
    /// Centroid classification: per-class accumulators + finalized
    /// class-vectors.
    Classify {
        /// Accumulated per-class counters.
        trainer: CentroidTrainer,
        /// `trainer.finish_deterministic(TieBreak::Alternate)`.
        classifier: CentroidClassifier,
    },
    /// Associative regression: one bound-pair bundle + the finalized
    /// integer-readout model.
    Regress {
        /// Accumulated bundle counters.
        trainer: RegressionTrainer,
        /// `trainer.finish_integer()`.
        model: RegressionModel,
    },
}

impl TaskState {
    /// The untrained state for a spec — also consumes the spec's RNG
    /// stream deterministically (the regression label table is drawn right
    /// after the encoder), so `(spec, seed)` fully determines the state.
    pub(crate) fn fresh(spec: &PipelineSpec, rng: &mut StdRng) -> Result<Self, HdcError> {
        match spec.task {
            Task::Classification { classes } => {
                let trainer = CentroidTrainer::new(classes, spec.dim)?;
                let classifier = trainer.finish_deterministic(TieBreak::Alternate);
                Ok(TaskState::Classify {
                    trainer,
                    classifier,
                })
            }
            Task::Regression { low, high, levels } => {
                let label =
                    hdc_encode::ScalarEncoder::with_levels(low, high, levels, spec.dim, rng)?;
                let trainer = RegressionTrainer::new(label);
                let model = trainer.finish_integer();
                Ok(TaskState::Regress { trainer, model })
            }
        }
    }

    /// The task family this state serves.
    pub(crate) fn task_name(&self) -> &'static str {
        match self {
            TaskState::Classify { .. } => "classification",
            TaskState::Regress { .. } => "regression",
        }
    }

    /// Re-finalizes the head from the trainer accumulators (deterministic).
    pub(crate) fn refresh(&mut self) {
        match self {
            TaskState::Classify {
                trainer,
                classifier,
            } => *classifier = trainer.finish_deterministic(TieBreak::Alternate),
            TaskState::Regress { trainer, model } => *model = trainer.finish_integer(),
        }
    }
}

/// A complete HDC pipeline behind one object: basis-backed encoder plus the
/// task's trainer and finalized head, with per-sample and batched
/// (parallel, bit-identical) forms of every stage.
///
/// Built by [`Pipeline::builder`] / [`Pipeline::from_spec`] / loaded from a
/// [`Snapshot`]. `X` is the input type fixed by the [`Enc`] spec (`f64`,
/// [`Radians`], `usize`, `[usize]` or `[f64]`); the prediction type is
/// fixed by the spec's [`Task`]:
///
/// * [`Task::Classification`] — [`fit`](Self::fit)/
///   [`fit_batch`](Self::fit_batch)/[`predict`](Self::predict)/
///   [`evaluate`](Self::evaluate) over `usize` labels;
/// * [`Task::Regression`] — [`fit_value`](Self::fit_value)/
///   [`fit_value_batch`](Self::fit_value_batch)/
///   [`predict_value`](Self::predict_value)/
///   [`evaluate_mae`](Self::evaluate_mae) over `f64` labels.
///
/// Fallible mutation through the wrong family returns
/// [`HdcError::TaskMismatch`]; infallible hot-path reads (`predict*`)
/// panic, exactly like their dimension checks.
///
/// Training is incremental: every fit folds samples into the trainer
/// accumulators and deterministically re-finalizes the head, so the same
/// samples always produce a bit-identical model — the property sharded
/// serving and snapshot restore rely on.
pub struct Model<X: ?Sized> {
    spec: PipelineSpec,
    encoder: Box<dyn DynEncoder<X>>,
    state: TaskState,
}

impl<X: ?Sized> fmt::Debug for Model<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let observed = match &self.state {
            TaskState::Classify { trainer, .. } => trainer.counts().iter().sum(),
            TaskState::Regress { trainer, .. } => trainer.observed(),
        };
        f.debug_struct("Model")
            .field("spec", &self.spec)
            .field("observed", &observed)
            .field("encoder", &self.encoder)
            .finish()
    }
}

impl<X: ?Sized + Sync> Model<X> {
    /// Hypervector dimensionality `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.spec.dim
    }

    /// The plain-data spec this model was built from.
    #[must_use]
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The task family (as plain data).
    #[must_use]
    pub fn task(&self) -> Task {
        self.spec.task
    }

    /// The basis family this pipeline was built with.
    #[must_use]
    pub fn basis(&self) -> Basis {
        self.spec.basis
    }

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline (which has no class set).
    #[must_use]
    pub fn classes(&self) -> usize {
        match &self.state {
            TaskState::Classify { trainer, .. } => trainer.classes(),
            TaskState::Regress { .. } => {
                panic!("classes() requires a classification pipeline, found regression")
            }
        }
    }

    /// Total number of training samples observed (either task).
    #[must_use]
    pub fn observed(&self) -> usize {
        match &self.state {
            TaskState::Classify { trainer, .. } => trainer.counts().iter().sum(),
            TaskState::Regress { trainer, .. } => trainer.observed(),
        }
    }

    /// Number of training samples observed per class.
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        match &self.state {
            TaskState::Classify { trainer, .. } => trainer.counts(),
            TaskState::Regress { .. } => {
                panic!("counts() requires a classification pipeline, found regression")
            }
        }
    }

    /// The finalized classifier (the replicated state sharded serving
    /// copies onto every shard).
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline — use
    /// [`regressor`](Self::regressor).
    #[must_use]
    pub fn classifier(&self) -> &CentroidClassifier {
        match &self.state {
            TaskState::Classify { classifier, .. } => classifier,
            TaskState::Regress { .. } => {
                panic!("classifier() requires a classification pipeline, found regression")
            }
        }
    }

    /// The finalized regression model (integer readout).
    ///
    /// # Panics
    ///
    /// Panics on a classification pipeline — use
    /// [`classifier`](Self::classifier).
    #[must_use]
    pub fn regressor(&self) -> &RegressionModel {
        match &self.state {
            TaskState::Regress { model, .. } => model,
            TaskState::Classify { .. } => {
                panic!("regressor() requires a regression pipeline, found classification")
            }
        }
    }

    fn task_mismatch(&self, expected: &'static str) -> HdcError {
        HdcError::TaskMismatch {
            expected,
            found: self.state.task_name(),
        }
    }

    /// Encodes one sample into an owned hypervector.
    ///
    /// # Panics
    ///
    /// Panics on an input the encoder cannot encode (see
    /// [`hdc_encode::Encoder::check_input`]), e.g. a record of the wrong
    /// arity.
    #[must_use]
    pub fn encode(&self, input: &X) -> BinaryHypervector {
        let mut words = vec![0u64; self.spec.dim.div_ceil(64)];
        self.encoder
            .encode_into(input, HvMut::new(self.spec.dim, &mut words));
        BinaryHypervector::from_words(self.spec.dim, words)
    }

    /// Encodes a batch of samples into one contiguous arena, one row per
    /// input in order, forking across the worker pool when the batch pays
    /// for it — bit-identical to per-sample [`encode`](Self::encode) (rows
    /// are independent).
    ///
    /// # Panics
    ///
    /// Panics if any input is one the encoder cannot encode (see
    /// [`hdc_encode::Encoder::check_input`]), e.g. a record of the wrong
    /// arity.
    pub fn encode_batch<'a, I>(&self, inputs: I) -> HypervectorBatch
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        let refs: Vec<&X> = inputs.into_iter().collect();
        self.encode_refs(&refs)
    }

    /// The shared arena fill behind [`encode_batch`](Self::encode_batch):
    /// callers that must validate input counts first (against labels)
    /// collect the refs themselves, so validation failures cost nothing.
    fn encode_refs(&self, refs: &[&X]) -> HypervectorBatch {
        let encoder = self.encoder.as_ref();
        let work = refs.len() * encoder.row_word_ops();
        let mut batch = HypervectorBatch::zeros(self.spec.dim, refs.len());
        minipool::par_fill_indexed(&mut batch.rows_mut().collect::<Vec<_>>(), work, |i, row| {
            encoder.encode_into(refs[i], row.reborrow());
        });
        batch
    }

    /// Checks every input before any is encoded: a malformed one is an
    /// error instead of an encoder panic, and nothing is accumulated.
    fn check_inputs(&self, refs: &[&X]) -> Result<(), HdcError> {
        refs.iter()
            .try_for_each(|input| self.encoder.check_input(input))
    }

    /// Checks an input count against its per-sample values before any
    /// encoding work is spent.
    fn check_paired(refs: usize, values: usize) -> Result<(), HdcError> {
        if refs != values {
            return Err(HdcError::BatchLengthMismatch {
                rows: refs,
                labels: values,
            });
        }
        Ok(())
    }

    // --- classification surface -----------------------------------------

    /// Folds one labelled sample into the model and re-finalizes the
    /// class-vectors. For more than a handful of samples prefer
    /// [`fit_batch`](Self::fit_batch), which finalizes once per call.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown label, the
    /// encoder's input error for an input it cannot encode and
    /// [`HdcError::TaskMismatch`] on a regression pipeline.
    pub fn fit(&mut self, input: &X, label: usize) -> Result<(), HdcError> {
        if !matches!(self.state, TaskState::Classify { .. }) {
            return Err(self.task_mismatch("classification"));
        }
        self.encoder.check_input(input)?;
        let hv = self.encode(input);
        let TaskState::Classify { trainer, .. } = &mut self.state else {
            unreachable!("task checked above");
        };
        trainer.observe(&hv, label)?;
        self.state.refresh();
        Ok(())
    }

    /// Folds a batch of labelled samples into the model in one parallel
    /// encode + accumulate pass, then re-finalizes the class-vectors.
    /// Produces exactly the model repeated [`fit`](Self::fit) calls would.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `labels` does not match
    /// the number of inputs, [`HdcError::LabelOutOfRange`] for an unknown
    /// label, the encoder's input error for an input it cannot encode (in
    /// either case nothing is accumulated) and [`HdcError::TaskMismatch`]
    /// on a regression pipeline.
    pub fn fit_batch<'a, I>(&mut self, inputs: I, labels: &[usize]) -> Result<(), HdcError>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        if !matches!(self.state, TaskState::Classify { .. }) {
            return Err(self.task_mismatch("classification"));
        }
        let refs: Vec<&X> = inputs.into_iter().collect();
        Self::check_paired(refs.len(), labels.len())?;
        self.check_inputs(&refs)?;
        let batch = self.encode_refs(&refs);
        let TaskState::Classify { trainer, .. } = &mut self.state else {
            unreachable!("task checked above");
        };
        trainer.observe_batch(&batch, labels)?;
        self.state.refresh();
        Ok(())
    }

    /// Predicts the label of one sample.
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline — use
    /// [`predict_value`](Self::predict_value) — and on an input the
    /// encoder cannot encode (see [`hdc_encode::Encoder::check_input`]),
    /// e.g. a record of the wrong arity.
    #[must_use]
    pub fn predict(&self, input: &X) -> usize {
        self.classifier().predict(&self.encode(input))
    }

    /// Predicts a batch of samples: parallel batched encode into one arena,
    /// then parallel nearest-class-vector search over its rows.
    /// Bit-identical to per-sample [`predict`](Self::predict).
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline, and if any input is one the
    /// encoder cannot encode (see [`hdc_encode::Encoder::check_input`]).
    pub fn predict_batch<'a, I>(&self, inputs: I) -> Vec<usize>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        self.classifier().predict_rows(&self.encode_batch(inputs))
    }

    /// Predicts every row of an already encoded arena (the entry point
    /// sharded serving feeds routed query batches through).
    ///
    /// # Panics
    ///
    /// Panics on a regression pipeline, or if the batch's dimensionality
    /// differs from the model's.
    #[must_use]
    pub fn predict_encoded(&self, batch: &HypervectorBatch) -> Vec<usize> {
        self.classifier().predict_rows(batch)
    }

    /// Classification accuracy over a labelled evaluation set.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `labels` does not match
    /// the number of inputs, [`HdcError::EmptyInput`] for an empty set, the
    /// encoder's input error for an input it cannot encode and
    /// [`HdcError::TaskMismatch`] on a regression pipeline.
    pub fn evaluate<'a, I>(&self, inputs: I, labels: &[usize]) -> Result<f64, HdcError>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        let TaskState::Classify { classifier, .. } = &self.state else {
            return Err(self.task_mismatch("classification"));
        };
        let refs: Vec<&X> = inputs.into_iter().collect();
        Self::check_paired(refs.len(), labels.len())?;
        if refs.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        self.check_inputs(&refs)?;
        let batch = self.encode_refs(&refs);
        Ok(metrics::accuracy(&classifier.predict_rows(&batch), labels))
    }

    // --- regression surface ----------------------------------------------

    /// Folds one `(sample, value)` pair into the regression bundle and
    /// re-finalizes the integer readout. For more than a handful of
    /// samples prefer [`fit_value_batch`](Self::fit_value_batch).
    ///
    /// # Errors
    ///
    /// Returns the encoder's input error for an input it cannot encode and
    /// [`HdcError::TaskMismatch`] on a classification pipeline.
    pub fn fit_value(&mut self, input: &X, value: f64) -> Result<(), HdcError> {
        if !matches!(self.state, TaskState::Regress { .. }) {
            return Err(self.task_mismatch("regression"));
        }
        self.encoder.check_input(input)?;
        let hv = self.encode(input);
        let TaskState::Regress { trainer, .. } = &mut self.state else {
            unreachable!("task checked above");
        };
        trainer.observe(&hv, value);
        self.state.refresh();
        Ok(())
    }

    /// Folds a batch of `(sample, value)` pairs into the model in one
    /// parallel encode + bind + accumulate pass, then re-finalizes the
    /// readout. Produces exactly the model repeated
    /// [`fit_value`](Self::fit_value) calls would.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `values` does not match
    /// the number of inputs, the encoder's input error for an input it
    /// cannot encode (nothing is accumulated then) and
    /// [`HdcError::TaskMismatch`] on a classification pipeline.
    pub fn fit_value_batch<'a, I>(&mut self, inputs: I, values: &[f64]) -> Result<(), HdcError>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        if !matches!(self.state, TaskState::Regress { .. }) {
            return Err(self.task_mismatch("regression"));
        }
        let refs: Vec<&X> = inputs.into_iter().collect();
        Self::check_paired(refs.len(), values.len())?;
        self.check_inputs(&refs)?;
        let batch = self.encode_refs(&refs);
        let TaskState::Regress { trainer, .. } = &mut self.state else {
            unreachable!("task checked above");
        };
        trainer.observe_batch(&batch, values)?;
        self.state.refresh();
        Ok(())
    }

    /// Predicts the real-valued label of one sample.
    ///
    /// # Panics
    ///
    /// Panics on a classification pipeline — use
    /// [`predict`](Self::predict) — and on an input the encoder cannot
    /// encode (see [`hdc_encode::Encoder::check_input`]), e.g. a record of
    /// the wrong arity.
    #[must_use]
    pub fn predict_value(&self, input: &X) -> f64 {
        self.regressor().predict(&self.encode(input))
    }

    /// Predicts a batch of samples: parallel batched encode, then parallel
    /// integer-readout scoring per row. Bit-identical to per-sample
    /// [`predict_value`](Self::predict_value).
    ///
    /// # Panics
    ///
    /// Panics on a classification pipeline, and if any input is one the
    /// encoder cannot encode (see [`hdc_encode::Encoder::check_input`]).
    pub fn predict_value_batch<'a, I>(&self, inputs: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        self.regressor().predict_rows(&self.encode_batch(inputs))
    }

    /// Predicts every row of an already encoded arena — the entry point
    /// sharded value serving feeds routed query batches through.
    ///
    /// # Panics
    ///
    /// Panics on a classification pipeline, or if the batch's
    /// dimensionality differs from the model's.
    #[must_use]
    pub fn predict_values_encoded(&self, batch: &HypervectorBatch) -> Vec<f64> {
        self.regressor().predict_rows(batch)
    }

    /// Mean absolute error over a labelled evaluation set — the paper's
    /// Table 2 metric.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `values` does not match
    /// the number of inputs, [`HdcError::EmptyInput`] for an empty set, the
    /// encoder's input error for an input it cannot encode and
    /// [`HdcError::TaskMismatch`] on a classification pipeline.
    pub fn evaluate_mae<'a, I>(&self, inputs: I, values: &[f64]) -> Result<f64, HdcError>
    where
        I: IntoIterator<Item = &'a X>,
        X: 'a,
    {
        let TaskState::Regress { model, .. } = &self.state else {
            return Err(self.task_mismatch("regression"));
        };
        let refs: Vec<&X> = inputs.into_iter().collect();
        Self::check_paired(refs.len(), values.len())?;
        if refs.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        self.check_inputs(&refs)?;
        let batch = self.encode_refs(&refs);
        Ok(metrics::mae(&model.predict_rows(&batch), values))
    }

    // --- snapshot surface -------------------------------------------------

    /// Captures the model as a self-contained [`Snapshot`] value (spec +
    /// trainer accumulators; no item memories — those live in the serving
    /// fleet and are captured by the runtime's snapshot path).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::of_state(self.spec.clone(), &self.state, Vec::new())
    }

    /// Writes the model's [`snapshot`](Self::snapshot) to a file — the
    /// durable half of [`Pipeline::load`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HdcError> {
        self.snapshot().write(path)
    }

    /// Adopts the trainer state of `snapshot` (which must describe the
    /// same spec), re-finalizing the head — the in-place form of
    /// [`Pipeline::from_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] if the snapshot's spec differs from
    /// the model's or its state is internally inconsistent.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), HdcError> {
        if *snapshot.spec() != self.spec {
            return Err(HdcError::Snapshot(
                "snapshot spec does not match the model's spec".into(),
            ));
        }
        snapshot.restore_into(&mut self.state)
    }

    /// Decomposes the model into the pieces a long-running runtime takes
    /// ownership of: the spec, the boxed encoder and the task state.
    pub(crate) fn into_parts(self) -> (PipelineSpec, Box<dyn DynEncoder<X>>, TaskState) {
        (self.spec, self.encoder, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn angle_model(seed: u64) -> Model<Radians> {
        Pipeline::builder(4_096)
            .seed(seed)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap()
    }

    fn day_night() -> (Vec<Radians>, Vec<usize>) {
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(i as f64 / 2.0, 24.0))
            .collect();
        let labels: Vec<usize> = (0..48).map(|i| usize::from(i >= 24)).collect();
        (hours, labels)
    }

    #[test]
    fn builder_is_deterministic_per_seed() {
        let (hours, labels) = day_night();
        let mut a = angle_model(3);
        let mut b = angle_model(3);
        a.fit_batch(&hours, &labels).unwrap();
        b.fit_batch(&hours, &labels).unwrap();
        assert_eq!(a.classifier(), b.classifier());
        let mut c = angle_model(4);
        c.fit_batch(&hours, &labels).unwrap();
        assert_ne!(a.classifier(), c.classifier());
    }

    #[test]
    fn builder_chain_is_a_spec_value() {
        let chain = Pipeline::builder(2_048)
            .seed(11)
            .basis(Basis::Circular { m: 24, r: 0.5 })
            .classes(3)
            .encoder(Enc::angle());
        let spec = chain.spec();
        assert_eq!(
            spec,
            PipelineSpec {
                dim: 2_048,
                seed: 11,
                basis: Basis::Circular { m: 24, r: 0.5 },
                encoder: EncSpec::Angle,
                task: Task::Classification { classes: 3 },
            }
        );
        // Building through the builder and through the spec is the same
        // construction: bit-identical encoders.
        let (hours, labels) = day_night();
        let mut from_builder = chain.build().unwrap();
        let mut from_spec = Pipeline::from_spec::<Radians>(spec).unwrap();
        from_builder.fit_batch(&hours, &labels).unwrap();
        from_spec.fit_batch(&hours, &labels).unwrap();
        assert_eq!(from_builder.classifier(), from_spec.classifier());
    }

    #[test]
    fn fit_batch_matches_incremental_fit() {
        let (hours, labels) = day_night();
        let mut batched = angle_model(1);
        batched.fit_batch(&hours, &labels).unwrap();
        let mut incremental = angle_model(1);
        for (h, &l) in hours.iter().zip(&labels) {
            incremental.fit(h, l).unwrap();
        }
        assert_eq!(batched.classifier(), incremental.classifier());
        assert_eq!(batched.counts(), &[24, 24]);
        assert_eq!(batched.observed(), 48);
    }

    #[test]
    fn predict_batch_matches_per_sample() {
        let (hours, labels) = day_night();
        let mut model = angle_model(2);
        model.fit_batch(&hours, &labels).unwrap();
        let batched = model.predict_batch(&hours);
        let serial: Vec<usize> = hours.iter().map(|h| model.predict(h)).collect();
        assert_eq!(batched, serial);
        let encoded = model.encode_batch(&hours);
        assert_eq!(model.predict_encoded(&encoded), serial);
        let accuracy = model.evaluate(&hours, &labels).unwrap();
        assert!(accuracy > 0.9, "train accuracy {accuracy}");
    }

    #[test]
    fn scalar_and_categorical_and_sequence_pipelines_build() {
        let mut scalar = Pipeline::builder(2_048)
            .basis(Basis::Level { m: 16, r: 0.0 })
            .encoder(Enc::scalar(0.0, 1.0))
            .build()
            .unwrap();
        let xs = [0.1f64, 0.2, 0.8, 0.9];
        scalar.fit_batch(&xs, &[0, 0, 1, 1]).unwrap();
        assert_eq!(scalar.predict(&0.15), 0);
        assert_eq!(scalar.predict(&0.85), 1);

        let mut cat = Pipeline::builder(2_048)
            .classes(3)
            .encoder(Enc::categorical(9))
            .build()
            .unwrap();
        let symbols: Vec<usize> = (0..9).collect();
        let labels: Vec<usize> = symbols.iter().map(|s| s % 3).collect();
        cat.fit_batch(&symbols, &labels).unwrap();
        assert_eq!(cat.predict(&4), 1);

        let mut seq = Pipeline::builder(2_048)
            .encoder(Enc::sequence(5))
            .build()
            .unwrap();
        let seqs: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![0, 2, 1], vec![4, 3, 2], vec![3, 4, 2]];
        seq.fit_batch(seqs.iter().map(Vec::as_slice), &[0, 0, 1, 1])
            .unwrap();
        assert_eq!(seq.predict(&[0usize, 1, 2][..]), 0);
    }

    #[test]
    fn default_basis_is_per_spec() {
        // A scalar pipeline built without .basis() must not quantize its
        // linear range through a wrapping basis: the interval's ends stay
        // quasi-orthogonal under the Level default.
        let model = Pipeline::builder(4_096)
            .encoder(Enc::scalar(0.0, 100.0))
            .build()
            .unwrap();
        assert_eq!(model.basis(), Basis::Level { m: 16, r: 0.0 });
        let wrap = model.encode(&0.0).normalized_hamming(&model.encode(&100.0));
        assert!((wrap - 0.5).abs() < 0.06, "scalar ends wrapped: {wrap}");
        // Angle pipelines keep the circular default, and an explicit basis
        // always wins.
        let angle = Pipeline::builder(1_024)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        assert_eq!(angle.basis(), Basis::Circular { m: 16, r: 0.0 });
        let explicit = Pipeline::builder(1_024)
            .basis(Basis::Random { m: 8 })
            .encoder(Enc::scalar(0.0, 1.0))
            .build()
            .unwrap();
        assert_eq!(explicit.basis(), Basis::Random { m: 8 });
    }

    #[test]
    fn record_pipeline_classifies_feature_rows() {
        let mut model = Pipeline::builder(4_096)
            .seed(5)
            .classes(2)
            .basis(Basis::Circular { m: 16, r: 0.0 })
            .encoder(Enc::record(vec![
                FieldSpec::scalar(0.0, 1.0),
                FieldSpec::angle(),
            ]))
            .build()
            .unwrap();
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0.1 + 0.01 * i as f64 / 20.0, 0.3]
                } else {
                    vec![0.9 - 0.01 * i as f64 / 20.0, 3.1]
                }
            })
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        model
            .fit_batch(rows.iter().map(Vec::as_slice), &labels)
            .unwrap();
        assert_eq!(model.predict(&[0.12, 0.25][..]), 0);
        assert_eq!(model.predict(&[0.88, 3.2][..]), 1);
        assert!(format!("{model:?}").contains("Model"));
    }

    #[test]
    fn build_rejects_invalid_parameters() {
        assert!(Pipeline::builder(0).encoder(Enc::angle()).build().is_err());
        assert!(Pipeline::builder(64)
            .classes(0)
            .encoder(Enc::angle())
            .build()
            .is_err());
        assert!(Pipeline::builder(64)
            .basis(Basis::Circular { m: 8, r: 1.5 })
            .encoder(Enc::angle())
            .build()
            .is_err());
        assert!(Pipeline::builder(64)
            .encoder(Enc::scalar(1.0, 0.0))
            .build()
            .is_err());
        assert!(Pipeline::builder(64)
            .encoder(Enc::record(vec![]))
            .build()
            .is_err());
        // Degenerate regression tasks are refused too (inverted label
        // range; fewer than two levels).
        assert!(Pipeline::builder(64)
            .regression(1.0, 0.0, 8)
            .encoder(Enc::angle())
            .build()
            .is_err());
        assert!(Pipeline::builder(64)
            .regression(0.0, 1.0, 1)
            .encoder(Enc::angle())
            .build()
            .is_err());
    }

    #[test]
    fn fit_errors_leave_model_usable() {
        let (hours, labels) = day_night();
        let mut model = angle_model(6);
        model.fit_batch(&hours, &labels).unwrap();
        let before = model.classifier().clone();
        assert!(matches!(
            model.fit_batch(&hours, &labels[..10]),
            Err(HdcError::BatchLengthMismatch { .. })
        ));
        assert!(matches!(
            model.fit(&hours[0], 7),
            Err(HdcError::LabelOutOfRange { .. })
        ));
        assert_eq!(model.classifier(), &before);
        assert!(matches!(
            model.evaluate(&hours[..2], &labels[..3]),
            Err(HdcError::BatchLengthMismatch { .. })
        ));
        assert!(matches!(
            model.evaluate(&[], &[]),
            Err(HdcError::EmptyInput)
        ));
    }

    #[test]
    fn regression_pipeline_learns_and_batches_bit_identically() {
        let mut model = Pipeline::builder(8_192)
            .seed(17)
            .regression(0.0, 1.0, 32)
            .encoder(Enc::record(vec![
                FieldSpec::scalar(0.0, 1.0),
                FieldSpec::angle(),
            ]))
            .build()
            .unwrap();
        assert!(model.task().is_regression());
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let x = i as f64 / 119.0;
                vec![x, x * std::f64::consts::TAU]
            })
            .collect();
        let values: Vec<f64> = (0..120).map(|i| i as f64 / 119.0).collect();
        model
            .fit_value_batch(rows.iter().map(Vec::as_slice), &values)
            .unwrap();
        assert_eq!(model.observed(), 120);

        // Batched predictions are bit-identical to per-sample ones.
        let batched = model.predict_value_batch(rows.iter().map(Vec::as_slice));
        let serial: Vec<f64> = rows.iter().map(|r| model.predict_value(&r[..])).collect();
        assert_eq!(batched, serial);
        let encoded = model.encode_batch(rows.iter().map(Vec::as_slice));
        assert_eq!(model.predict_values_encoded(&encoded), serial);

        // The two-factor (scalar ⊗ angle) encoding tracks the identity.
        let mae = model
            .evaluate_mae(rows.iter().map(Vec::as_slice), &values)
            .unwrap();
        assert!(mae < 0.2, "train mae {mae}");

        // Batch fitting matches incremental fitting bit for bit.
        let mut incremental = Pipeline::builder(8_192)
            .seed(17)
            .regression(0.0, 1.0, 32)
            .encoder(Enc::record(vec![
                FieldSpec::scalar(0.0, 1.0),
                FieldSpec::angle(),
            ]))
            .build()
            .unwrap();
        for (row, &y) in rows.iter().zip(&values) {
            incremental.fit_value(&row[..], y).unwrap();
        }
        assert_eq!(
            incremental.predict_value_batch(rows.iter().map(Vec::as_slice)),
            batched
        );
    }

    #[test]
    fn task_mismatch_is_reported_not_misanswered() {
        let (hours, labels) = day_night();
        let mut classify = angle_model(8);
        classify.fit_batch(&hours, &labels).unwrap();
        assert!(matches!(
            classify.fit_value(&hours[0], 0.5),
            Err(HdcError::TaskMismatch {
                expected: "regression",
                found: "classification"
            })
        ));
        assert!(matches!(
            classify.fit_value_batch(&hours, &[0.0; 48]),
            Err(HdcError::TaskMismatch { .. })
        ));
        assert!(matches!(
            classify.evaluate_mae(&hours, &[0.0; 48]),
            Err(HdcError::TaskMismatch { .. })
        ));

        let mut regress = Pipeline::builder(1_024)
            .regression(0.0, 24.0, 24)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        assert!(matches!(
            regress.fit(&hours[0], 0),
            Err(HdcError::TaskMismatch {
                expected: "classification",
                found: "regression"
            })
        ));
        assert!(matches!(
            regress.fit_batch(&hours, &labels),
            Err(HdcError::TaskMismatch { .. })
        ));
        assert!(matches!(
            regress.evaluate(&hours, &labels),
            Err(HdcError::TaskMismatch { .. })
        ));
        // Fallible paths reported the mismatch without corrupting state.
        regress.fit_value(&hours[0], 12.0).unwrap();
        assert_eq!(regress.observed(), 1);
    }

    #[test]
    #[should_panic(expected = "requires a regression pipeline")]
    fn predict_value_panics_on_classification() {
        let model = angle_model(9);
        let _ = model.predict_value(&Radians(0.1));
    }

    #[test]
    #[should_panic(expected = "requires a classification pipeline")]
    fn predict_panics_on_regression() {
        let model = Pipeline::builder(512)
            .regression(0.0, 1.0, 8)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let _ = model.predict(&Radians(0.1));
    }

    #[test]
    fn malformed_rows_are_errors_and_nothing_is_accumulated() {
        // A 3-field record model: a 2-field row, or a category outside
        // 0..4, is an error from every `Result`-returning raw-input method,
        // and a refused batch accumulates none of its rows.
        let fields = || {
            vec![
                FieldSpec::scalar(0.0, 1.0),
                FieldSpec::angle(),
                FieldSpec::categorical(4),
            ]
        };
        let good = [0.5, 1.0, 2.0];
        let short = [0.5, 1.0];
        let bad_symbol = [0.5, 1.0, 9.0];
        let rows: [&[f64]; 2] = [&good, &bad_symbol];

        let mut regressor = Pipeline::builder(512)
            .seed(3)
            .regression(0.0, 1.0, 8)
            .encoder(Enc::record(fields()))
            .build()
            .unwrap();
        regressor.fit_value(&good[..], 0.3).unwrap();
        assert_eq!(
            regressor.fit_value(&short[..], 0.3),
            Err(HdcError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        );
        assert!(matches!(
            regressor.fit_value_batch(rows, &[0.1, 0.2]),
            Err(HdcError::SymbolOutOfRange { symbols: 4, .. })
        ));
        assert!(matches!(
            regressor.evaluate_mae(rows, &[0.1, 0.2]),
            Err(HdcError::SymbolOutOfRange { symbols: 4, .. })
        ));
        assert_eq!(regressor.observed(), 1);

        let mut classifier = Pipeline::builder(512)
            .seed(3)
            .classes(2)
            .encoder(Enc::record(fields()))
            .build()
            .unwrap();
        assert_eq!(
            classifier.fit(&short[..], 0),
            Err(HdcError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        );
        assert!(matches!(
            classifier.fit_batch(rows, &[0, 1]),
            Err(HdcError::SymbolOutOfRange { symbols: 4, .. })
        ));
        assert!(matches!(
            classifier.evaluate(rows, &[0, 1]),
            Err(HdcError::SymbolOutOfRange { symbols: 4, .. })
        ));
        assert_eq!(classifier.observed(), 0);
    }
}
