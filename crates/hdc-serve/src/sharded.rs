//! The item shards of one runtime, placed over the hyperdimensional
//! consistent-hash ring.
//!
//! A [`ShardedModel`] partitions the *stateful* half of a serving fleet —
//! per-key item memories — across a fixed set of shards placed on an
//! [`HdcHashRing`], and holds the *stateless* half — the finalized
//! [`Head`] — once. A key decides only where an item is stored, never what
//! an answer is: a query batch is answered whole by the head's one readout
//! ([`Head::answer`]), so predictions are **bit-identical** to the
//! unsharded [`Model`](crate::Model) for any shard count.
//!
//! The shard count is fixed when the fleet is built. Resharding happens
//! between processes only: [`ClusterRouter::join`](crate::ClusterRouter::join)
//! and [`ClusterRouter::leave`](crate::ClusterRouter::leave) move items over
//! a ring built the same way, and because its positions are circular
//! hypervectors a membership change remaps only about `1/n` of the keys —
//! the scheme circular hypervectors were invented for (Heddes et al.,
//! DAC 2022).
//!
//! A [`Runtime`](crate::Runtime) keeps its item memories in a
//! `ShardedModel`; its dispatcher answers every query with the head of the
//! generation it has adopted.

use std::hash::Hash;

use hdc_core::{BinaryHypervector, HdcError, HypervectorBatch, ItemMemory};
use hdc_hash::HdcHashRing;
use hdc_learn::{CentroidClassifier, RegressionModel};
use rand::{rngs::StdRng, SeedableRng};

use crate::task::{Answers, Head};
use crate::Model;

/// Ring geometry of a [`ShardedModel`]: how many sectors the consistent-
/// hash circle is quantized into, the dimensionality of the ring's own
/// (routing-only) hypervectors, and how many virtual replicas each shard
/// occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Number of ring sectors (circular basis size).
    pub positions: usize,
    /// Dimensionality of the ring's position hypervectors. Independent of
    /// the model dimensionality — routing only compares ring vectors.
    pub dim: usize,
    /// Virtual nodes per shard (more replicas smooth the load).
    pub replicas: usize,
}

impl Default for RingConfig {
    /// 128 sectors of 1,024-bit hypervectors, 4 virtual replicas per shard.
    fn default() -> Self {
        Self {
            positions: 128,
            dim: 1_024,
            replicas: 4,
        }
    }
}

/// A serving fleet for one trained [`Head`] (classifier or regressor):
/// one head answering every query, item memories sharded over a
/// consistent-hash ring by key.
///
/// `K` is the key type of the sharded item memories (stored per-key
/// hypervectors, e.g. cached encodings or per-entity profiles); placement
/// accepts any `Hash` key type.
///
/// ```
/// use hdc_serve::{Basis, Enc, Pipeline, Radians, ShardedModel};
///
/// let mut model = Pipeline::builder(4_096)
///     .seed(11)
///     .basis(Basis::Circular { m: 24, r: 0.0 })
///     .encoder(Enc::angle())
///     .build()?;
/// let hours: Vec<Radians> = (0..24).map(|h| Radians::periodic(h as f64, 24.0)).collect();
/// let labels: Vec<usize> = (0..24).map(|h| usize::from(h >= 12)).collect();
/// model.fit_batch(&hours, &labels)?;
///
/// // Serve the same classifier over three item shards.
/// let fleet: ShardedModel<String> = ShardedModel::from_model(&model, 3, 0)?;
/// let keys: Vec<String> = (0..24).map(|i| format!("sensor-{i}")).collect();
/// let queries = model.encode_batch(&hours);
/// let sharded = fleet.predict_batch(&keys, &queries)?;
/// // Keys never change answers: bit-identical to the unsharded model.
/// assert_eq!(sharded, model.predict_encoded(&queries));
/// # Ok::<(), hdc_serve::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedModel<K: Hash + Eq + Clone = u64> {
    head: Head,
    dim: usize,
    ring: HdcHashRing<usize>,
    /// Shard `id`'s item memory sits at index `id`.
    shards: Vec<ItemMemory<K>>,
}

impl<K: Hash + Eq + Clone> ShardedModel<K> {
    /// Creates a classification fleet of `shards` shards serving
    /// `classifier` over `dim`-bit queries, with the default
    /// [`RingConfig`]. The ring's circular basis is drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if `shards == 0` (and
    /// propagates invalid ring geometry).
    pub fn new(
        classifier: CentroidClassifier,
        dim: usize,
        shards: usize,
        seed: u64,
    ) -> Result<Self, HdcError> {
        Self::with_head(classifier.into(), dim, shards, RingConfig::default(), seed)
    }

    /// The task-polymorphic constructor every other constructor funnels
    /// into: a fleet serving any [`Head`] (classification *or* regression)
    /// over `dim`-bit queries.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] if `shards == 0`, `dim == 0` or the ring
    /// geometry is invalid.
    pub fn with_head(
        head: Head,
        dim: usize,
        shards: usize,
        config: RingConfig,
        seed: u64,
    ) -> Result<Self, HdcError> {
        if shards == 0 {
            return Err(HdcError::InvalidBasisSize {
                requested: 0,
                minimum: 1,
            });
        }
        if dim == 0 {
            return Err(HdcError::InvalidDimension(dim));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring =
            HdcHashRing::with_replicas(config.positions, config.dim, config.replicas, &mut rng)?;
        for id in 0..shards {
            ring.add_node(id);
        }
        Ok(Self {
            head,
            dim,
            ring,
            shards: (0..shards).map(|_| ItemMemory::new()).collect(),
        })
    }

    /// Builds a fleet straight from a trained [`Model`], replicating its
    /// finalized head (classifier or regressor, per the model's task).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidBasisSize`] if `shards == 0`.
    pub fn from_model<X: ?Sized + Sync>(
        model: &Model<X>,
        shards: usize,
        seed: u64,
    ) -> Result<Self, HdcError> {
        Self::with_head(
            model.head().clone(),
            model.dim(),
            shards,
            RingConfig::default(),
            seed,
        )
    }

    /// Number of live shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ids of the shards, `0..shard_count()`.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<usize> {
        (0..self.shards.len()).collect()
    }

    /// Query dimensionality `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes of the replicated classifier.
    ///
    /// # Panics
    ///
    /// Panics on a regression fleet (which has no class set).
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classifier().classes()
    }

    /// The replicated head (classifier or regressor).
    #[must_use]
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The replicated classifier.
    ///
    /// # Panics
    ///
    /// Panics on a regression fleet — use [`regressor`](Self::regressor).
    #[must_use]
    pub fn classifier(&self) -> &CentroidClassifier {
        self.head.classifier()
    }

    /// The replicated regression model.
    ///
    /// # Panics
    ///
    /// Panics on a classification fleet — use
    /// [`classifier`](Self::classifier).
    #[must_use]
    pub fn regressor(&self) -> &RegressionModel {
        self.head.regressor()
    }

    /// Swaps in a new head. The fleet holds one head for every shard, so
    /// one swap is atomic for the whole fleet: every query batch served
    /// after this call sees the new head, none sees a mix.
    ///
    /// The class *count* (or label table) may change between heads; the
    /// dimensionality may not.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the new head's
    /// dimensionality differs from the fleet's.
    pub fn set_head(&mut self, head: Head) -> Result<(), HdcError> {
        let found = head.dim();
        if found != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                found,
            });
        }
        self.head = head;
        Ok(())
    }

    /// All stored `(key, hypervector)` entries across every shard, in
    /// shard order — what a runtime snapshot captures.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &BinaryHypervector)> {
        self.shards.iter().flat_map(ItemMemory::iter)
    }

    /// Per-shard `(id, entry count)`, in id order — the load signal serving
    /// metrics export.
    #[must_use]
    pub fn shard_loads(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(ItemMemory::len)
            .enumerate()
            .collect()
    }

    /// Total number of stored item-memory entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(ItemMemory::len).sum()
    }

    /// `true` if no shard stores any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries stored on one shard, or `None` for an unknown id.
    #[must_use]
    pub fn shard_len(&self, id: usize) -> Option<usize> {
        self.shards.get(id).map(ItemMemory::len)
    }

    /// The shard that owns a key (most similar ring position).
    #[must_use]
    pub fn shard_of<Q: Hash>(&self, key: &Q) -> usize {
        *self
            .ring
            .lookup(key)
            .expect("a sharded model always keeps at least one shard")
    }

    /// Stores `hv` under `key` in the owning shard's item memory, returning
    /// the previous entry if the key was already stored. The shard set
    /// never changes, so a key always has the same owner.
    ///
    /// # Panics
    ///
    /// Panics if `hv`'s dimensionality differs from the fleet's.
    pub fn insert(&mut self, key: K, hv: BinaryHypervector) -> Option<BinaryHypervector> {
        assert_eq!(
            self.dim,
            hv.dim(),
            "dimension mismatch: expected {}, found {}",
            self.dim,
            hv.dim()
        );
        let owner = self.shard_of(&key);
        self.shards[owner].insert(key, hv)
    }

    /// Removes a stored entry from its owning shard, returning it if the
    /// key was stored.
    pub fn remove(&mut self, key: &K) -> Option<BinaryHypervector> {
        let owner = self.shard_of(key);
        self.shards[owner].remove(key)
    }

    /// Looks up a stored entry on its owning shard.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&BinaryHypervector> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Predicts one encoded query with the fleet's head.
    ///
    /// # Panics
    ///
    /// Panics on a regression fleet, or if the query's dimensionality
    /// differs from the fleet's.
    #[must_use]
    pub fn predict(&self, query: &BinaryHypervector) -> usize {
        self.classifier().predict(query)
    }

    /// Predicts one encoded query's real-valued label.
    ///
    /// # Panics
    ///
    /// Panics on a classification fleet, or if the query's dimensionality
    /// differs from the fleet's.
    #[must_use]
    pub fn predict_value(&self, query: &BinaryHypervector) -> f64 {
        self.regressor().predict(query)
    }

    /// Groups a keyed batch by owning shard: for each shard, in id order,
    /// the input row indices whose keys it owns, in input order. Empty
    /// groups are included so load imbalance is visible. Queries are never
    /// routed; this is where items with these keys would be stored.
    #[must_use]
    pub fn route<Q: Hash>(&self, keys: &[Q]) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> =
            (0..self.shards.len()).map(|id| (id, Vec::new())).collect();
        for (row, key) in keys.iter().enumerate() {
            groups[self.shard_of(key)].1.push(row);
        }
        groups
    }

    /// Serves a query batch: the head's batched readout answers every row,
    /// in input order. `keys` must match `queries` in length, but a key
    /// never picks the answer, so the labels are bit-identical to the
    /// unsharded [`Model::predict_encoded`](crate::Model::predict_encoded)
    /// for any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `keys` and `queries`
    /// disagree in length, [`HdcError::DimensionMismatch`] if the batch
    /// dimensionality differs from the fleet's, and
    /// [`HdcError::TaskMismatch`] on a regression fleet.
    pub fn predict_batch<Q: Hash>(
        &self,
        keys: &[Q],
        queries: &HypervectorBatch,
    ) -> Result<Vec<usize>, HdcError> {
        self.answer(keys, queries)?.labels()
    }

    /// Serves a **value** query batch — the regression form of
    /// [`predict_batch`](Self::predict_batch). Bit-identical to the
    /// unsharded
    /// [`Model::predict_values_encoded`](crate::Model::predict_values_encoded)
    /// for any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::BatchLengthMismatch`] if `keys` and `queries`
    /// disagree in length, [`HdcError::DimensionMismatch`] if the batch
    /// dimensionality differs from the fleet's, and
    /// [`HdcError::TaskMismatch`] on a classification fleet.
    pub fn predict_values<Q: Hash>(
        &self,
        keys: &[Q],
        queries: &HypervectorBatch,
    ) -> Result<Vec<f64>, HdcError> {
        self.answer(keys, queries)?.values()
    }

    /// Checks a keyed batch's length and dimensionality, then answers it
    /// with the head.
    fn answer<Q>(&self, keys: &[Q], queries: &HypervectorBatch) -> Result<Answers, HdcError> {
        if keys.len() != queries.len() {
            return Err(HdcError::BatchLengthMismatch {
                rows: queries.len(),
                labels: keys.len(),
            });
        }
        if !queries.is_empty() && queries.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                found: queries.dim(),
            });
        }
        Ok(self.head.answer(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn classifier(rng: &mut StdRng, classes: usize, dim: usize) -> CentroidClassifier {
        let protos: Vec<BinaryHypervector> = (0..classes)
            .map(|_| BinaryHypervector::random(dim, rng))
            .collect();
        CentroidClassifier::from_class_vectors(protos).unwrap()
    }

    fn fleet(shards: usize) -> (ShardedModel<String>, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let model = ShardedModel::new(classifier(&mut rng, 4, 1_024), 1_024, shards, 9).unwrap();
        (model, rng)
    }

    #[test]
    fn construction_and_accessors() {
        let (fleet, _) = fleet(3);
        assert_eq!(fleet.shard_count(), 3);
        assert_eq!(fleet.shard_ids(), vec![0, 1, 2]);
        assert_eq!(fleet.dim(), 1_024);
        assert_eq!(fleet.classes(), 4);
        assert!(fleet.is_empty());
        assert_eq!(fleet.shard_len(1), Some(0));
        assert_eq!(fleet.shard_len(9), None);
        assert!(ShardedModel::<u64>::new(fleet.classifier().clone(), 1_024, 0, 0).is_err());
        assert!(ShardedModel::<u64>::new(fleet.classifier().clone(), 0, 2, 0).is_err());
    }

    #[test]
    fn predict_batch_is_bit_identical_to_replicated_classifier() {
        let (fleet, mut rng) = fleet(4);
        let queries: Vec<BinaryHypervector> = (0..50)
            .map(|_| BinaryHypervector::random(1_024, &mut rng))
            .collect();
        let keys: Vec<String> = (0..50).map(|i| format!("key-{i}")).collect();
        let batch = HypervectorBatch::from_vectors(&queries).unwrap();
        let sharded = fleet.predict_batch(&keys, &batch).unwrap();
        assert_eq!(sharded, fleet.classifier().predict_rows(&batch));
        for (query, label) in queries.iter().zip(&sharded) {
            assert_eq!(fleet.predict(query), *label);
        }
    }

    #[test]
    fn predict_batch_validates_inputs() {
        let (fleet, mut rng) = fleet(2);
        let batch =
            HypervectorBatch::from_vectors(&[BinaryHypervector::random(1_024, &mut rng)]).unwrap();
        assert!(matches!(
            fleet.predict_batch(&["a", "b"], &batch),
            Err(HdcError::BatchLengthMismatch { rows: 1, labels: 2 })
        ));
        let wrong =
            HypervectorBatch::from_vectors(&[BinaryHypervector::random(512, &mut rng)]).unwrap();
        assert!(matches!(
            fleet.predict_batch(&["a"], &wrong),
            Err(HdcError::DimensionMismatch { .. })
        ));
        let empty = HypervectorBatch::new(1_024);
        assert_eq!(
            fleet.predict_batch::<&str>(&[], &empty).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn item_memory_is_sharded_and_rebalances() {
        let (mut fleet, mut rng) = fleet(3);
        let entries: Vec<(String, BinaryHypervector)> = (0..60)
            .map(|i| {
                (
                    format!("item-{i}"),
                    BinaryHypervector::random(1_024, &mut rng),
                )
            })
            .collect();
        for (key, hv) in &entries {
            assert!(fleet.insert(key.clone(), hv.clone()).is_none());
        }
        assert_eq!(fleet.len(), 60);
        // Every entry lives exactly on its owning shard.
        for (key, hv) in &entries {
            assert_eq!(fleet.get(key), Some(hv));
            let owner = fleet.shard_of(key);
            assert!(fleet.shard_len(owner).unwrap() > 0);
        }

        // The per-shard loads add up to every entry.
        let loads: usize = fleet.shard_loads().iter().map(|(_, n)| n).sum();
        assert_eq!(loads, 60);
    }

    #[test]
    fn insert_replaces_across_shards() {
        let (mut fleet, mut rng) = fleet(4);
        let first = BinaryHypervector::random(1_024, &mut rng);
        let second = BinaryHypervector::random(1_024, &mut rng);
        fleet.insert("k".to_string(), first.clone());
        let old = fleet.insert("k".to_string(), second.clone());
        assert_eq!(old, Some(first));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.get(&"k".to_string()), Some(&second));
    }

    #[test]
    fn route_covers_every_row_once() {
        let (fleet, _) = fleet(3);
        let keys: Vec<u32> = (0..40).collect();
        let groups = fleet.route(&keys);
        assert_eq!(groups.len(), 3);
        let mut seen = vec![false; keys.len()];
        for (id, rows) in &groups {
            assert!(fleet.shard_ids().contains(id));
            for &row in rows {
                assert!(!seen[row], "row {row} routed twice");
                seen[row] = true;
                assert_eq!(fleet.shard_of(&keys[row]), *id);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn set_classifier_swaps_answers_fleet_wide() {
        let (mut fleet, mut rng) = fleet(3);
        let query = BinaryHypervector::random(1_024, &mut rng);
        let before = fleet.predict(&query);
        // A replacement classifier whose class 0 is exactly the query must
        // win; the swap changes every shard's answers at once.
        let mut vectors: Vec<BinaryHypervector> = (0..4)
            .map(|_| BinaryHypervector::random(1_024, &mut rng))
            .collect();
        vectors[0] = query.clone();
        let replacement = CentroidClassifier::from_class_vectors(vectors).unwrap();
        fleet.set_head(Head::Classes(replacement)).unwrap();
        assert_eq!(fleet.predict(&query), 0);
        let _ = before;
        // Dimensionality is load-bearing; a mismatched generation is refused.
        let wrong = classifier(&mut rng, 2, 512);
        assert!(matches!(
            fleet.set_head(Head::Classes(wrong)),
            Err(HdcError::DimensionMismatch {
                expected: 1_024,
                found: 512
            })
        ));
    }

    #[test]
    fn remove_and_loads_and_remap_fraction() {
        let (mut fleet, mut rng) = fleet(3);
        let hv = BinaryHypervector::random(1_024, &mut rng);
        assert!(fleet.remove(&"ghost".to_string()).is_none());
        fleet.insert("a".to_string(), hv.clone());
        assert_eq!(fleet.shard_loads().iter().map(|(_, n)| n).sum::<usize>(), 1);
        assert_eq!(fleet.remove(&"a".to_string()), Some(hv));
        assert!(fleet.is_empty());
    }

    #[test]
    fn regression_fleet_is_bit_identical_to_the_unsharded_model() {
        use crate::{Enc, Pipeline};

        let mut model = Pipeline::builder(2_048)
            .seed(13)
            .regression(0.0, 1.0, 32)
            .encoder(Enc::scalar(0.0, 1.0))
            .build()
            .unwrap();
        let xs: Vec<f64> = (0..80).map(|i| i as f64 / 79.0).collect();
        model.fit_value_batch(&xs, &xs).unwrap();
        let queries = model.encode_batch(&xs);
        let expected = model.predict_values_encoded(&queries);

        for shards in [1usize, 2, 5] {
            let fleet: ShardedModel<String> = ShardedModel::from_model(&model, shards, 3).unwrap();
            assert!(matches!(fleet.head(), Head::Values(_)));
            assert_eq!(fleet.head().task_name(), "regression");
            let keys: Vec<String> = (0..xs.len()).map(|i| format!("s{i}")).collect();
            assert_eq!(
                fleet.predict_values(&keys, &queries).unwrap(),
                expected,
                "{shards} shards"
            );
            // Single-query form agrees row by row.
            assert_eq!(
                fleet.predict_value(&queries.row(7).to_hypervector()),
                expected[7]
            );
            // The classification surface reports the task mismatch.
            assert!(matches!(
                fleet.predict_batch(&keys, &queries),
                Err(HdcError::TaskMismatch {
                    expected: "classification",
                    found: "regression"
                })
            ));
        }
        // And the other direction: a classification fleet refuses values.
        let (fleet, mut rng) = fleet(2);
        let batch =
            HypervectorBatch::from_vectors(&[BinaryHypervector::random(1_024, &mut rng)]).unwrap();
        assert!(matches!(
            fleet.predict_values(&["a"], &batch),
            Err(HdcError::TaskMismatch {
                expected: "regression",
                found: "classification"
            })
        ));
    }

    #[test]
    fn random_key_types_route_consistently() {
        let (fleet, mut rng) = fleet(5);
        for _ in 0..20 {
            let key: u64 = rng.random();
            assert_eq!(fleet.shard_of(&key), fleet.shard_of(&key));
        }
    }
}
