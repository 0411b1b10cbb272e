//! Durable snapshots: the compact binary state a pipeline (or a whole
//! serving runtime) writes to disk and reloads on spawn, making restarts
//! **warm** — the restored model predicts bit-identically to the one that
//! was saved.
//!
//! # What is captured
//!
//! A [`Snapshot`] is three sections:
//!
//! 1. the [`PipelineSpec`] header — everything needed to rebuild encoders
//!    and label tables deterministically from `(spec, seed)`; no
//!    hypervector table is ever serialized, because the spec *is* the
//!    table (every constructor is deterministic per seed);
//! 2. the trainer accumulators — per-class counter tables for
//!    classification, the bound-pair bundle counters for regression; the
//!    finalized heads are **derived** state
//!    (`finish_deterministic`/`finish_integer`) and are recomputed on
//!    load, which is what makes the restore exact rather than approximate;
//! 3. the keyed item memories of a serving fleet (empty for a bare
//!    [`Model::save`](crate::Model::save)).
//!
//! # Format
//!
//! ```text
//! snapshot := "HDCS" magic, u16 version (=1), spec, state, items
//! spec     := the PipelineSpec canonical encoding (see hdc_serve::spec)
//! state    := 0x00 classify: u32 classes,
//!                  classes × { u64 count, i64 weight, dim × i32 }
//!           | 0x01 regress:  u64 observed, i64 weight, dim × i32
//! items    := u32 n, n × { u64-len utf8 key, u32 dim, words × u64 }
//! ```
//!
//! All integers are big-endian; truncation, trailing bytes, unknown tags
//! and cross-field inconsistencies (e.g. a counter table that does not
//! match the spec's dimensionality) all fail parsing with
//! [`HdcError::Snapshot`] — a corrupt file can never half-load.

use std::io;
use std::path::Path;

use hdc_core::{BinaryHypervector, HdcError, MajorityAccumulator};
use hdc_learn::{CentroidTrainer, RegressionTrainer};

use crate::spec::{PipelineSpec, Task};
use crate::task::OnlineLearner;
use hdc_store::codec::{self, Cursor};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HDCS";

/// Version tag of the snapshot layout (bumped on changes;
/// [`Snapshot::from_bytes`] rejects unknown versions).
pub const SNAPSHOT_VERSION: u16 = 1;

fn snap_err(context: &str, error: impl std::fmt::Display) -> HdcError {
    HdcError::Snapshot(format!("{context}: {error}"))
}

/// The captured trainer state, as plain counters.
#[derive(Debug, Clone, PartialEq)]
enum StateSnapshot {
    /// Per-class sample counts and accumulator counters.
    Classify {
        counts: Vec<u64>,
        accumulators: Vec<(Vec<i32>, i64)>,
    },
    /// Observation count and bundle counters.
    Regress {
        observed: u64,
        counts: Vec<i32>,
        weight: i64,
    },
}

/// A self-contained, durable capture of a pipeline: spec header, trainer
/// accumulators and (for runtime snapshots) the keyed item memories.
///
/// Produced by [`Model::snapshot`](crate::Model::snapshot)/
/// [`Model::save`](crate::Model::save) and by a live
/// [`RuntimeHandle::snapshot`](crate::RuntimeHandle::snapshot); consumed
/// by [`Pipeline::load`](crate::Pipeline)/
/// [`Pipeline::from_snapshot`](crate::Pipeline) and by
/// [`RuntimeConfig::load_snapshot`](crate::RuntimeConfig). The restore is
/// **bit-exact**: accumulators are adopted verbatim and heads re-finalized
/// deterministically, so a save → load → predict round trip answers
/// identically to the model that was saved.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    spec: PipelineSpec,
    state: StateSnapshot,
    items: Vec<(String, BinaryHypervector)>,
}

impl Snapshot {
    /// Captures a learner's accumulators, beside `items` (pub(crate):
    /// callers go through [`Model::snapshot`](crate::Model::snapshot) or
    /// the runtime).
    pub(crate) fn capture(
        spec: PipelineSpec,
        learner: &OnlineLearner,
        items: Vec<(String, BinaryHypervector)>,
    ) -> Self {
        let state = match learner {
            OnlineLearner::Classify(trainer) => StateSnapshot::Classify {
                counts: trainer.counts().iter().map(|&c| c as u64).collect(),
                accumulators: (0..trainer.classes())
                    .map(|class| {
                        let acc = trainer.accumulator(class);
                        (acc.counts().to_vec(), acc.weight())
                    })
                    .collect(),
            },
            OnlineLearner::Regress(trainer) => StateSnapshot::Regress {
                observed: trainer.observed() as u64,
                counts: trainer.accumulator().counts().to_vec(),
                weight: trainer.accumulator().weight(),
            },
        };
        Self { spec, state, items }
    }

    /// The pipeline spec this snapshot was captured from.
    #[must_use]
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Total training observations captured in the trainer state.
    #[must_use]
    pub fn observed(&self) -> u64 {
        match &self.state {
            StateSnapshot::Classify { counts, .. } => counts.iter().sum(),
            StateSnapshot::Regress { observed, .. } => *observed,
        }
    }

    /// The captured keyed item-memory entries (empty for bare model
    /// snapshots).
    #[must_use]
    pub fn items(&self) -> &[(String, BinaryHypervector)] {
        &self.items
    }

    /// Moves the captured item-memory entries out (the runtime feeds them
    /// back into its sharded fleet on spawn).
    pub(crate) fn take_items(&mut self) -> Vec<(String, BinaryHypervector)> {
        std::mem::take(&mut self.items)
    }

    /// Swaps the captured item-memory entries for `items` — the cluster
    /// router streams a donor's trainer state with a *different* item
    /// partition to a warm-joining shard.
    pub(crate) fn replace_items(&mut self, items: Vec<(String, BinaryHypervector)>) {
        self.items = items;
    }

    /// Adopts this snapshot's counters into an already built (same-spec)
    /// learner.
    pub(crate) fn restore(&self, learner: &mut OnlineLearner) -> Result<(), HdcError> {
        let dim = self.spec.dim;
        match (learner, &self.state) {
            (
                OnlineLearner::Classify(trainer),
                StateSnapshot::Classify {
                    counts,
                    accumulators,
                },
            ) => {
                if accumulators.len() != trainer.classes() || counts.len() != trainer.classes() {
                    return Err(HdcError::Snapshot(format!(
                        "snapshot holds {} classes, spec expects {}",
                        accumulators.len(),
                        trainer.classes()
                    )));
                }
                let rebuilt: Vec<MajorityAccumulator> = accumulators
                    .iter()
                    .map(|(class_counts, weight)| {
                        if class_counts.len() != dim {
                            return Err(HdcError::Snapshot(format!(
                                "class counter table of {} entries does not match dim {dim}",
                                class_counts.len()
                            )));
                        }
                        Ok(MajorityAccumulator::from_parts(
                            class_counts.clone(),
                            *weight,
                        ))
                    })
                    .collect::<Result<_, _>>()?;
                let sample_counts = counts
                    .iter()
                    .map(|&c| {
                        usize::try_from(c)
                            .map_err(|_| HdcError::Snapshot(format!("count {c} exceeds usize")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                *trainer = CentroidTrainer::from_parts(rebuilt, sample_counts)?;
            }
            (
                OnlineLearner::Regress(trainer),
                StateSnapshot::Regress {
                    observed,
                    counts,
                    weight,
                },
            ) => {
                if counts.len() != dim {
                    return Err(HdcError::Snapshot(format!(
                        "bundle counter table of {} entries does not match dim {dim}",
                        counts.len()
                    )));
                }
                let observed = usize::try_from(*observed).map_err(|_| {
                    HdcError::Snapshot(format!("observation count {observed} exceeds usize"))
                })?;
                *trainer = RegressionTrainer::from_parts(
                    trainer.label_encoder().clone(),
                    MajorityAccumulator::from_parts(counts.clone(), *weight),
                    observed,
                )?;
            }
            _ => {
                return Err(HdcError::Snapshot(
                    "snapshot task does not match the spec's task".into(),
                ))
            }
        }
        Ok(())
    }

    /// The snapshot's canonical binary encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.spec.dim * 4);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        codec::put_u16(&mut buf, SNAPSHOT_VERSION);
        buf.extend_from_slice(&self.spec.to_bytes());
        match &self.state {
            StateSnapshot::Classify {
                counts,
                accumulators,
            } => {
                buf.push(0);
                codec::put_u32(&mut buf, accumulators.len() as u32);
                for (count, (class_counts, weight)) in counts.iter().zip(accumulators) {
                    codec::put_u64(&mut buf, *count);
                    codec::put_i64(&mut buf, *weight);
                    for &c in class_counts {
                        codec::put_i32(&mut buf, c);
                    }
                }
            }
            StateSnapshot::Regress {
                observed,
                counts,
                weight,
            } => {
                buf.push(1);
                codec::put_u64(&mut buf, *observed);
                codec::put_i64(&mut buf, *weight);
                for &c in counts {
                    codec::put_i32(&mut buf, c);
                }
            }
        }
        codec::put_u32(&mut buf, self.items.len() as u32);
        for (key, hv) in &self.items {
            // u64-prefixed keys: local inserts accept any key length (only
            // the wire protocol caps keys at u16), so the snapshot writer
            // must never be able to panic on one.
            codec::put_long_string(&mut buf, key);
            codec::put_hv(&mut buf, hv).expect(
                "item dimensionality equals the spec's, which fits u32 for any buildable model",
            );
        }
        buf
    }

    /// Decodes a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] for bad magic, unknown versions,
    /// truncation, trailing bytes or internally inconsistent state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HdcError> {
        fn snap(e: io::Error) -> HdcError {
            HdcError::Snapshot(e.to_string())
        }
        let mut cursor = Cursor::new(bytes);
        let magic = cursor.take(4).map_err(snap)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(HdcError::Snapshot("bad magic; not a snapshot file".into()));
        }
        let version = cursor.u16().map_err(snap)?;
        if version != SNAPSHOT_VERSION {
            return Err(HdcError::Snapshot(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let spec = PipelineSpec::read_from(&mut cursor)?;
        let dim = spec.dim;
        let state = match cursor.take(1).map_err(snap)?[0] {
            0 => {
                let classes = cursor.u32().map_err(snap)? as usize;
                if let Task::Classification {
                    classes: spec_classes,
                } = spec.task
                {
                    if classes != spec_classes {
                        return Err(HdcError::Snapshot(format!(
                            "state holds {classes} classes, spec declares {spec_classes}"
                        )));
                    }
                } else {
                    return Err(HdcError::Snapshot(
                        "classification state under a regression spec".into(),
                    ));
                }
                // Every declared count clamps its preallocation by the
                // bytes actually present: a corrupt dim/classes header
                // fails on the first missing read instead of reserving
                // gigabytes up front.
                let mut counts = Vec::with_capacity(classes.min(cursor.remaining() / 16));
                let mut accumulators = Vec::with_capacity(classes.min(cursor.remaining() / 16));
                for _ in 0..classes {
                    counts.push(cursor.u64().map_err(snap)?);
                    let weight = cursor.i64().map_err(snap)?;
                    let mut class_counts = Vec::with_capacity(dim.min(cursor.remaining() / 4));
                    for _ in 0..dim {
                        class_counts.push(cursor.i32().map_err(snap)?);
                    }
                    accumulators.push((class_counts, weight));
                }
                StateSnapshot::Classify {
                    counts,
                    accumulators,
                }
            }
            1 => {
                if !spec.task.is_regression() {
                    return Err(HdcError::Snapshot(
                        "regression state under a classification spec".into(),
                    ));
                }
                let observed = cursor.u64().map_err(snap)?;
                let weight = cursor.i64().map_err(snap)?;
                let mut counts = Vec::with_capacity(dim.min(cursor.remaining() / 4));
                for _ in 0..dim {
                    counts.push(cursor.i32().map_err(snap)?);
                }
                StateSnapshot::Regress {
                    observed,
                    counts,
                    weight,
                }
            }
            tag => return Err(HdcError::Snapshot(format!("unknown state tag {tag}"))),
        };
        let item_count = cursor.u32().map_err(snap)? as usize;
        let mut items = Vec::with_capacity(item_count.min(1 << 16));
        for _ in 0..item_count {
            let key = cursor.long_string().map_err(snap)?;
            let hv = cursor.hv().map_err(snap)?;
            if hv.dim() != dim {
                return Err(HdcError::Snapshot(format!(
                    "item '{key}' has dim {}, spec expects {dim}",
                    hv.dim()
                )));
            }
            items.push((key, hv));
        }
        cursor.finish().map_err(snap)?;
        Ok(Self { spec, state, items })
    }

    /// Writes the snapshot to a file atomically (see
    /// [`hdc_store::atomic_write`]): a crash or a power cut mid-write never
    /// leaves a truncated or empty snapshot behind.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] on I/O failure.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), HdcError> {
        let path = path.as_ref();
        hdc_store::atomic_write(path, &self.to_bytes())
            .map_err(|e| snap_err(&format!("writing {}", path.display()), e))
    }

    /// Reads a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] on I/O failure or a corrupt file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, HdcError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| snap_err(&format!("reading {}", path.display()), e))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enc, Pipeline, Radians};

    fn trained_classifier() -> crate::Model<Radians> {
        let mut model = Pipeline::builder(257)
            .seed(5)
            .classes(3)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let hours: Vec<Radians> = (0..30)
            .map(|i| Radians::periodic(f64::from(i), 30.0))
            .collect();
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        model.fit_batch(&hours, &labels).unwrap();
        model
    }

    #[test]
    fn classification_snapshot_round_trips_bit_identically() {
        let model = trained_classifier();
        let snapshot = model.snapshot();
        assert_eq!(snapshot.observed(), 30);
        let bytes = snapshot.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        let restored = Pipeline::from_snapshot::<Radians>(&decoded).unwrap();
        assert_eq!(restored.classifier(), model.classifier());
        assert_eq!(restored.counts(), model.counts());
        // Training resumes identically after the round trip.
        let mut a = restored;
        let mut b = trained_classifier();
        a.fit(&Radians(0.37), 1).unwrap();
        b.fit(&Radians(0.37), 1).unwrap();
        assert_eq!(a.classifier(), b.classifier());
    }

    #[test]
    fn regression_snapshot_round_trips_bit_identically() {
        let mut model = Pipeline::builder(320)
            .seed(9)
            .regression(0.0, 24.0, 24)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        let values: Vec<f64> = (0..48).map(|i| f64::from(i) / 2.0).collect();
        model.fit_value_batch(&hours, &values).unwrap();

        let snapshot = model.snapshot();
        let decoded = Snapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        let restored = Pipeline::from_snapshot::<Radians>(&decoded).unwrap();
        for hour in &hours {
            assert_eq!(restored.predict_value(hour), model.predict_value(hour));
        }
        assert_eq!(restored.observed(), model.observed());
    }

    #[test]
    fn save_and_load_files() {
        let model = trained_classifier();
        let path =
            std::env::temp_dir().join(format!("hdc-snapshot-test-{}.hdcs", std::process::id()));
        model.save(&path).unwrap();
        let restored = Pipeline::load::<Radians>(&path).unwrap();
        assert_eq!(restored.classifier(), model.classifier());
        // The wrong input type is refused with a spec mismatch.
        assert!(matches!(
            Pipeline::load::<f64>(&path),
            Err(HdcError::SpecMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Pipeline::load::<Radians>(&path),
            Err(HdcError::Snapshot(_))
        ));
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let model = trained_classifier();
        let bytes = model.snapshot().to_bytes();
        // Truncations never parse.
        for cut in [0, 3, 5, 10, bytes.len() - 1] {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage never parses.
        let mut long = bytes.clone();
        long.push(7);
        assert!(Snapshot::from_bytes(&long).is_err());
        // Bad magic and bad version are named errors.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad_magic),
            Err(HdcError::Snapshot(reason)) if reason.contains("magic")
        ));
        let mut bad_version = bytes;
        bad_version[4] = 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(HdcError::Snapshot(reason)) if reason.contains("version")
        ));
    }

    #[test]
    fn item_keys_beyond_the_wire_cap_survive_the_round_trip() {
        use crate::spec::{Basis, EncSpec};
        use hdc_core::BinaryHypervector;

        // Local inserts accept any key length (only the wire protocol caps
        // keys at u16), so the snapshot writer must neither panic nor
        // truncate on one.
        let spec = PipelineSpec {
            dim: 257,
            seed: 1,
            basis: Basis::Circular { m: 8, r: 0.0 },
            encoder: EncSpec::Angle,
            task: Task::Classification { classes: 2 },
        };
        let learner = OnlineLearner::Classify(CentroidTrainer::new(2, 257).unwrap());
        let long_key = "k".repeat(70_000);
        let snapshot = Snapshot::capture(
            spec,
            &learner,
            vec![(long_key.clone(), BinaryHypervector::zeros(257))],
        );
        let decoded = Snapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(decoded.items().len(), 1);
        assert_eq!(decoded.items()[0].0, long_key);
    }

    #[test]
    fn absurd_dim_header_fails_fast_without_a_huge_allocation() {
        use crate::spec::{Basis, EncSpec};
        use hdc_store::codec;

        // A corrupt/crafted header declaring dim = 2^40 must fail on the
        // first missing counter read — the clamped preallocations reserve
        // no more than the bytes actually present.
        let spec = PipelineSpec {
            dim: 1 << 40,
            seed: 0,
            basis: Basis::Random { m: 4 },
            encoder: EncSpec::Angle,
            task: Task::Regression {
                low: 0.0,
                high: 1.0,
                levels: 8,
            },
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        codec::put_u16(&mut bytes, SNAPSHOT_VERSION);
        bytes.extend_from_slice(&spec.to_bytes());
        bytes.push(1); // regression state tag
        codec::put_u64(&mut bytes, 0); // observed
        codec::put_i64(&mut bytes, 0); // weight
                                       // …and no counter table at all.
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(HdcError::Snapshot(_))
        ));
    }

    #[test]
    fn restore_rejects_mismatched_spec() {
        let model = trained_classifier();
        let snapshot = model.snapshot();
        let mut other = Pipeline::builder(257)
            .seed(6) // different seed → different spec
            .classes(3)
            .encoder(Enc::angle())
            .build()
            .unwrap();
        assert!(matches!(
            other.restore(&snapshot),
            Err(HdcError::Snapshot(_))
        ));
    }
}
