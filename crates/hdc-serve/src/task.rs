//! The task family behind one type each. The paper evaluates two learning
//! settings, centroid classification (§2.2, Table 1) and associative
//! regression (§2.3, Table 2). Every layer above this module (`Model`,
//! the runtime, the sharded fleet and the cluster) reaches them through
//! these types only:
//!
//! * [`Target`]: what one observation teaches, a label or a value;
//! * [`OnlineLearner`]: the task's accumulators. It is built fresh from a
//!   spec, folds one observation or a whole batch, replays logged fits and
//!   finishes into a head;
//! * [`Head`]: the finalized model, with one readout,
//!   [`answer`](Head::answer);
//! * [`Answers`]: a readout's rows, in request order.
//!
//! A new task head adds one variant to each of them here, plus its state
//! in the snapshot codec.

use std::ops::Range;

use hdc_core::{BinaryHypervector, HdcError, HypervectorBatch, TieBreak};
use hdc_learn::{CentroidClassifier, CentroidTrainer, RegressionModel, RegressionTrainer};
use hdc_store::WalRecord;
use rand::rngs::StdRng;

use crate::spec::{PipelineSpec, Task};

/// One served classification prediction: the label plus the id of the
/// [`Generation`](crate::Generation) that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted class label.
    pub label: usize,
    /// The generation that answered (monotonically increasing across
    /// online refreshes; `0` is the head the runtime was spawned with).
    pub generation: u64,
}

/// One served regression prediction: the real-valued label plus the id of
/// the [`Generation`](crate::Generation) that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValuePrediction {
    /// The predicted value (a grid point of the spec's label range).
    pub value: f64,
    /// The generation that answered.
    pub generation: u64,
}

/// The answers to one prediction request, one per row in request order.
/// The head decides the readout: a classifier answers with labels, a
/// regressor with values.
#[derive(Debug, Clone, PartialEq)]
pub enum Answers {
    /// A classifier's answers.
    Labels(Vec<Prediction>),
    /// A regressor's answers.
    Values(Vec<ValuePrediction>),
}

impl Answers {
    /// The empty answer of a `task` runtime.
    pub(crate) fn none(task: Task) -> Self {
        match task {
            Task::Classification { .. } => Answers::Labels(Vec::new()),
            Task::Regression { .. } => Answers::Values(Vec::new()),
        }
    }

    /// Number of answered rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Answers::Labels(labels) => labels.len(),
            Answers::Values(values) => values.len(),
        }
    }

    /// `true` when no row was answered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The labels of a classifier's answers.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] for a regressor's answers.
    pub fn into_labels(self) -> Result<Vec<Prediction>, HdcError> {
        match self {
            Answers::Labels(labels) => Ok(labels),
            Answers::Values(_) => Err(HdcError::TaskMismatch {
                expected: "classification",
                found: "regression",
            }),
        }
    }

    /// The values of a regressor's answers.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] for a classifier's answers.
    pub fn into_values(self) -> Result<Vec<ValuePrediction>, HdcError> {
        match self {
            Answers::Values(values) => Ok(values),
            Answers::Labels(_) => Err(HdcError::TaskMismatch {
                expected: "regression",
                found: "classification",
            }),
        }
    }

    /// The bare labels of a classifier's answers, without generations.
    pub(crate) fn labels(self) -> Result<Vec<usize>, HdcError> {
        Ok(self.into_labels()?.iter().map(|p| p.label).collect())
    }

    /// The bare values of a regressor's answers, without generations.
    pub(crate) fn values(self) -> Result<Vec<f64>, HdcError> {
        Ok(self.into_values()?.iter().map(|p| p.value).collect())
    }

    /// The answers at `rows`, each naming `generation`: one request's
    /// share of a served arena.
    pub(crate) fn slice(&self, rows: Range<usize>, generation: u64) -> Answers {
        match self {
            Answers::Labels(labels) => Answers::Labels(
                labels[rows]
                    .iter()
                    .map(|&p| Prediction { generation, ..p })
                    .collect(),
            ),
            Answers::Values(values) => Answers::Values(
                values[rows]
                    .iter()
                    .map(|&p| ValuePrediction { generation, ..p })
                    .collect(),
            ),
        }
    }

    /// Appends the answers to the rows that follow this request's: one
    /// request answered in several frames.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] if `more` has the other readout.
    pub(crate) fn append(&mut self, more: Answers) -> Result<(), HdcError> {
        match self {
            Answers::Labels(labels) => labels.extend(more.into_labels()?),
            Answers::Values(values) => values.extend(more.into_values()?),
        }
        Ok(())
    }
}

/// What one observation teaches the trainer: a class label for a
/// classifier, a real value for a regressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// A class label.
    Label(usize),
    /// A real-valued label.
    Value(f64),
}

impl Target {
    /// The write-ahead-log record of the encoded observation `hv`.
    pub(crate) fn record(self, hv: &BinaryHypervector) -> WalRecord {
        let hv = hv.clone();
        match self {
            Target::Label(label) => WalRecord::Fit {
                hv,
                label: label as u64,
            },
            Target::Value(value) => WalRecord::FitValue { hv, value },
        }
    }

    /// The logged observation of a fit record, if `record` is one.
    fn of_record(record: &WalRecord) -> Option<(&BinaryHypervector, Target)> {
        match record {
            WalRecord::Fit { hv, label } => Some((
                hv,
                Target::Label(usize::try_from(*label).unwrap_or(usize::MAX)),
            )),
            WalRecord::FitValue { hv, value } => Some((hv, Target::Value(*value))),
            WalRecord::Insert { .. } | WalRecord::Remove { .. } => None,
        }
    }

    /// The task family that learns from this target.
    fn task_name(self) -> &'static str {
        match self {
            Target::Label(_) => "classification",
            Target::Value(_) => "regression",
        }
    }

    /// Refuses a target a `task` learner cannot learn from: the other
    /// task's kind, or a class label out of range.
    pub(crate) fn check(self, task: Task) -> Result<(), HdcError> {
        match (self, task) {
            (Target::Label(label), Task::Classification { classes }) if label >= classes => {
                Err(HdcError::LabelOutOfRange { label, classes })
            }
            (Target::Label(_), Task::Classification { .. })
            | (Target::Value(_), Task::Regression { .. }) => Ok(()),
            (target, task) => Err(HdcError::TaskMismatch {
                expected: target.task_name(),
                found: task.name(),
            }),
        }
    }

    fn label(self) -> Option<usize> {
        match self {
            Target::Label(label) => Some(label),
            Target::Value(_) => None,
        }
    }

    fn value(self) -> Option<f64> {
        match self {
            Target::Value(value) => Some(value),
            Target::Label(_) => None,
        }
    }
}

/// The online trainer state of a task: its accumulators. A [`Model`]
/// holds one beside its finalized [`Head`], a runtime's trainer thread
/// owns one, and [`Runtime::shutdown`](crate::Runtime::shutdown) hands it
/// back for persistence, inspection or warm restart.
///
/// [`Model`]: crate::Model
#[derive(Debug, Clone)]
pub enum OnlineLearner {
    /// Classification accumulators.
    Classify(CentroidTrainer),
    /// Regression accumulators.
    Regress(RegressionTrainer),
}

impl OnlineLearner {
    /// The untrained learner of a spec. It draws from the spec's RNG
    /// stream right after the encoder (the regression label table), so
    /// `(spec, seed)` fully determines it.
    pub(crate) fn fresh(spec: &PipelineSpec, rng: &mut StdRng) -> Result<Self, HdcError> {
        Ok(match spec.task {
            Task::Classification { classes } => {
                OnlineLearner::Classify(CentroidTrainer::new(classes, spec.dim)?)
            }
            Task::Regression { low, high, levels } => {
                OnlineLearner::Regress(RegressionTrainer::new(
                    hdc_encode::ScalarEncoder::with_levels(low, high, levels, spec.dim, rng)?,
                ))
            }
        })
    }

    /// The classification trainer, if this is a classification learner.
    #[must_use]
    pub fn as_classify(&self) -> Option<&CentroidTrainer> {
        match self {
            OnlineLearner::Classify(trainer) => Some(trainer),
            OnlineLearner::Regress(_) => None,
        }
    }

    /// The regression trainer, if this is a regression learner.
    #[must_use]
    pub fn as_regress(&self) -> Option<&RegressionTrainer> {
        match self {
            OnlineLearner::Regress(trainer) => Some(trainer),
            OnlineLearner::Classify(_) => None,
        }
    }

    /// Total observations folded in.
    #[must_use]
    pub fn observed(&self) -> usize {
        match self {
            OnlineLearner::Classify(trainer) => trainer.counts().iter().sum(),
            OnlineLearner::Regress(trainer) => trainer.observed(),
        }
    }

    fn task_name(&self) -> &'static str {
        match self {
            OnlineLearner::Classify(_) => "classification",
            OnlineLearner::Regress(_) => "regression",
        }
    }

    /// Folds one encoded observation into the accumulators.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] for the other task's target and
    /// [`HdcError::LabelOutOfRange`] for an unknown class label.
    ///
    /// # Panics
    ///
    /// Panics if `hv`'s dimensionality differs from the trainer's.
    pub(crate) fn observe(
        &mut self,
        hv: &BinaryHypervector,
        target: Target,
    ) -> Result<(), HdcError> {
        match (self, target) {
            (OnlineLearner::Classify(trainer), Target::Label(label)) => trainer.observe(hv, label),
            (OnlineLearner::Regress(trainer), Target::Value(value)) => {
                trainer.observe(hv, value);
                Ok(())
            }
            (learner, target) => Err(HdcError::TaskMismatch {
                expected: target.task_name(),
                found: learner.task_name(),
            }),
        }
    }

    /// Folds every row of `batch` with its target through the trainer's
    /// forked `observe_batch`, bit-identical to one
    /// [`observe`](Self::observe) per row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] for a target of the other task,
    /// and the trainer's error (a length mismatch or an unknown class
    /// label); nothing is accumulated then.
    pub(crate) fn observe_batch(
        &mut self,
        batch: &HypervectorBatch,
        targets: &[Target],
    ) -> Result<(), HdcError> {
        let found = self.task_name();
        let mismatch = |target: &Target| HdcError::TaskMismatch {
            expected: target.task_name(),
            found,
        };
        match self {
            OnlineLearner::Classify(trainer) => {
                let labels = targets
                    .iter()
                    .map(|target| target.label().ok_or_else(|| mismatch(target)))
                    .collect::<Result<Vec<_>, _>>()?;
                trainer.observe_batch(batch, &labels)
            }
            OnlineLearner::Regress(trainer) => {
                let values = targets
                    .iter()
                    .map(|target| target.value().ok_or_else(|| mismatch(target)))
                    .collect::<Result<Vec<_>, _>>()?;
                trainer.observe_batch(batch, &values)
            }
        }
    }

    /// Folds every fit among logged `records` into the accumulators in one
    /// bit-sliced pass that reads each hypervector in place, and returns how
    /// many it folded. Each fit first meets the checks a live fit meets, so
    /// a bad record folds nothing and fails recovery loudly.
    pub(crate) fn replay(
        &mut self,
        records: &[WalRecord],
        task: Task,
        dim: usize,
    ) -> Result<usize, HdcError> {
        let fits = || records.iter().filter_map(Target::of_record);
        let mut folded = 0;
        for (hv, target) in fits() {
            if hv.dim() != dim {
                return Err(HdcError::Storage(format!(
                    "logged fit has dimension {}, model expects {dim}",
                    hv.dim()
                )));
            }
            target
                .check(task)
                .map_err(|e| HdcError::Storage(format!("replaying fit: {e}")))?;
            folded += 1;
        }
        match self {
            OnlineLearner::Classify(trainer) => trainer
                .observe_rows(fits().filter_map(|(hv, target)| Some((hv.view(), target.label()?))))
                .map_err(|e| HdcError::Storage(format!("replaying fit: {e}")))?,
            OnlineLearner::Regress(trainer) => trainer
                .observe_rows(fits().filter_map(|(hv, target)| Some((hv.view(), target.value()?)))),
        }
        Ok(folded)
    }

    /// Finalizes the current accumulators into a [`Head`] (deterministic
    /// for both tasks).
    pub(crate) fn finish(&self) -> Head {
        match self {
            OnlineLearner::Classify(trainer) => {
                Head::Classes(trainer.finish_deterministic(TieBreak::Alternate))
            }
            OnlineLearner::Regress(trainer) => Head::Values(trainer.finish_integer()),
        }
    }
}

/// The finalized, task-specific model: what a [`Model`](crate::Model)
/// predicts with, what each runtime [`Generation`](crate::Generation)
/// publishes, and what a [`ShardedModel`](crate::ShardedModel) replicates.
/// A head is stateless at serving time, so a key decides only where a
/// query is answered, never the answer.
#[derive(Debug, Clone)]
pub enum Head {
    /// Nearest-class-vector classification.
    Classes(CentroidClassifier),
    /// Integer-readout associative regression.
    Values(RegressionModel),
}

impl From<CentroidClassifier> for Head {
    fn from(classifier: CentroidClassifier) -> Self {
        Head::Classes(classifier)
    }
}

impl Head {
    /// Query dimensionality `d` this head answers.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Head::Classes(classifier) => classifier.class_vector(0).dim(),
            Head::Values(model) => model.label_encoder().dim(),
        }
    }

    /// The task family name, for diagnostics.
    #[must_use]
    pub fn task_name(&self) -> &'static str {
        match self {
            Head::Classes(_) => "classification",
            Head::Values(_) => "regression",
        }
    }

    /// The one readout: answers every row of `rows`, in order, with labels
    /// from a classifier or values from a regressor, forking across the
    /// worker pool when the batch pays for it. Every answer names
    /// generation `0`; a runtime names the generation that served it.
    ///
    /// # Panics
    ///
    /// Panics if the batch's dimensionality differs from the head's.
    #[must_use]
    pub fn answer(&self, rows: &HypervectorBatch) -> Answers {
        match self {
            Head::Classes(classifier) => Answers::Labels(
                classifier
                    .predict_rows(rows)
                    .into_iter()
                    .map(|label| Prediction {
                        label,
                        generation: 0,
                    })
                    .collect(),
            ),
            Head::Values(model) => Answers::Values(
                model
                    .predict_rows(rows)
                    .into_iter()
                    .map(|value| ValuePrediction {
                        value,
                        generation: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// The classifier of a classification head.
    ///
    /// # Panics
    ///
    /// Panics on a regression head — use [`regressor`](Self::regressor).
    #[must_use]
    pub fn classifier(&self) -> &CentroidClassifier {
        match self {
            Head::Classes(classifier) => classifier,
            Head::Values(_) => {
                panic!("classifier() requires a classification pipeline, found regression")
            }
        }
    }

    /// The regression model of a regression head.
    ///
    /// # Panics
    ///
    /// Panics on a classification head — use
    /// [`classifier`](Self::classifier).
    #[must_use]
    pub fn regressor(&self) -> &RegressionModel {
        match self {
            Head::Values(model) => model,
            Head::Classes(_) => {
                panic!("regressor() requires a regression pipeline, found classification")
            }
        }
    }
}
