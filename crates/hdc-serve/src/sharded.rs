//! Sharded serving over the hyperdimensional consistent-hash ring.
//!
//! A [`ShardedModel`] partitions the *stateful* half of a serving fleet —
//! per-key item memories — across shards placed on an
//! [`HdcHashRing`], while the *stateless* half — the finalized class
//! vectors — is replicated onto every shard. Query batches are routed by
//! key to their owning shards, predicted per shard with the batched
//! parallel `predict_rows` path, and merged back in input order.
//!
//! Because the classifier is replicated and deterministic, predictions are
//! **bit-identical** to the unsharded [`Model`](crate::Model) for *any*
//! shard count and any churn history — resharding only moves keys, never
//! answers. And because the ring's positions are circular hypervectors,
//! [`add_shard`](ShardedModel::add_shard)/[`remove_shard`](ShardedModel::remove_shard)
//! remap only the expected `1/n` fraction of keys, degrading gracefully
//! exactly as in the scheme circular hypervectors were invented for
//! (Heddes et al., DAC 2022).

use std::collections::HashMap;
use std::hash::Hash;

use hdc_core::{BinaryHypervector, HdcError, HypervectorBatch, ItemMemory};
use hdc_hash::HdcHashRing;
use hdc_learn::{CentroidClassifier, RegressionModel};
use rand::{rngs::StdRng, SeedableRng};

use crate::Model;

/// The replicated, task-specific half of a serving fleet: the finalized
/// model every shard answers queries with. Classification fleets replicate
/// a [`CentroidClassifier`]; regression fleets replicate a
/// [`RegressionModel`] (integer readout). Either way the head is
/// *stateless* at serving time — swapping it (online-learning generation
/// publishes) is one fleet-wide assignment, and routing only ever decides
/// *where* a query is answered, never *what* the answer is.
#[derive(Debug, Clone)]
pub enum Head {
    /// Nearest-class-vector classification.
    Classes(CentroidClassifier),
    /// Integer-readout associative regression.
    Values(RegressionModel),
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
}

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

/// A serving fleet for one trained classifier: replicated class vectors,
/// sharded item memories, consistent-hash routing.
///
/// `K` is the key type of the sharded item memories (stored per-key
/// hypervectors, e.g. cached encodings or per-entity profiles); routing
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
/// // Serve the same classifier from three shards.
/// let fleet: ShardedModel<String> = ShardedModel::from_model(&model, 3, 0)?;
/// let keys: Vec<String> = (0..24).map(|i| format!("sensor-{i}")).collect();
/// let queries = model.encode_batch(&hours);
/// let sharded = fleet.predict_batch(&keys, &queries)?;
/// // Routing never changes answers: bit-identical to the unsharded model.
/// assert_eq!(sharded, model.predict_encoded(&queries));
/// # Ok::<(), hdc_serve::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedModel<K: Hash + Eq + Clone = u64> {
    head: Head,
    dim: usize,
    ring: HdcHashRing<usize>,
    shards: Vec<(usize, ItemMemory<K>)>,
    next_shard_id: usize,
    last_remap: Option<(usize, usize)>,
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
        Self::with_head(
            Head::Classes(classifier),
            dim,
            shards,
            RingConfig::default(),
            seed,
        )
    }

    /// [`new`](Self::new) with an explicit ring geometry.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] if `shards == 0` or the ring geometry is
    /// invalid.
    pub fn with_ring(
        classifier: CentroidClassifier,
        dim: usize,
        shards: usize,
        config: RingConfig,
        seed: u64,
    ) -> Result<Self, HdcError> {
        Self::with_head(Head::Classes(classifier), dim, shards, config, seed)
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
        let mut shard_memories = Vec::with_capacity(shards);
        for id in 0..shards {
            ring.add_node(id);
            shard_memories.push((id, ItemMemory::new()));
        }
        Ok(Self {
            head,
            dim,
            ring,
            shards: shard_memories,
            next_shard_id: shards,
            last_remap: None,
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
        let head = if model.task().is_classification() {
            Head::Classes(model.classifier().clone())
        } else {
            Head::Values(model.regressor().clone())
        };
        Self::with_head(head, model.dim(), shards, RingConfig::default(), seed)
    }

    /// Number of live shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ids of the live shards, in creation order.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<usize> {
        self.shards.iter().map(|(id, _)| *id).collect()
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
        match &self.head {
            Head::Classes(classifier) => classifier,
            Head::Values(_) => {
                panic!("classifier() requires a classification fleet, found regression")
            }
        }
    }

    /// The replicated regression model.
    ///
    /// # Panics
    ///
    /// Panics on a classification fleet — use
    /// [`classifier`](Self::classifier).
    #[must_use]
    pub fn regressor(&self) -> &RegressionModel {
        match &self.head {
            Head::Values(model) => model,
            Head::Classes(_) => {
                panic!("regressor() requires a regression fleet, found classification")
            }
        }
    }

    /// Swaps in a new replicated head across every shard at once — the hook
    /// versioned online learning publishes generations through. Because the
    /// head is replicated (not sharded), one swap is atomic for the whole
    /// fleet: every query batch served after this call sees the new
    /// generation, none sees a mix.
    ///
    /// The class *count* (or label table) may change between generations;
    /// the dimensionality may not.
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

    /// [`set_head`](Self::set_head) for a classification generation.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the new class-vectors'
    /// dimensionality differs from the fleet's.
    pub fn set_classifier(&mut self, classifier: CentroidClassifier) -> Result<(), HdcError> {
        self.set_head(Head::Classes(classifier))
    }

    /// All stored `(key, hypervector)` entries across every shard, in
    /// shard-creation order — what a runtime snapshot captures before
    /// shutdown.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &BinaryHypervector)> {
        self.shards.iter().flat_map(|(_, memory)| memory.iter())
    }

    /// Per-shard entry counts, in creation order — the load signal serving
    /// metrics export.
    #[must_use]
    pub fn shard_loads(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|(id, memory)| (*id, memory.len()))
            .collect()
    }

    /// The fraction of stored entries moved by the most recent
    /// [`add_shard`](Self::add_shard)/[`remove_shard`](Self::remove_shard)
    /// rebalance, or `None` if the fleet has never resharded (or held no
    /// entries when it did). Consistent hashing promises this stays near
    /// `1/n`; metrics surface it so a misbehaving ring is visible.
    #[must_use]
    pub fn last_remap_fraction(&self) -> Option<f64> {
        self.last_remap
            .map(|(moved, total)| moved as f64 / total.max(1) as f64)
    }

    /// Total number of stored item-memory entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|(_, memory)| memory.len()).sum()
    }

    /// `true` if no shard stores any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries stored on one shard, or `None` for an unknown id.
    #[must_use]
    pub fn shard_len(&self, id: usize) -> Option<usize> {
        self.shards
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, memory)| memory.len())
    }

    /// The shard a key routes to (most similar ring position).
    #[must_use]
    pub fn shard_of<Q: Hash>(&self, key: &Q) -> usize {
        *self
            .ring
            .lookup(key)
            .expect("a sharded model always keeps at least one shard")
    }

    /// Adds a shard, rebalancing: every stored entry whose key now routes
    /// to the new shard migrates there (and nothing else moves — the
    /// consistent-hashing guarantee). Returns the new shard's id.
    pub fn add_shard(&mut self) -> usize {
        let id = self.next_shard_id;
        self.next_shard_id += 1;
        self.ring.add_node(id);
        self.shards.push((id, ItemMemory::new()));
        let moved = self.rebalance();
        let total = self.len();
        if total > 0 {
            self.last_remap = Some((moved, total));
        }
        id
    }

    /// Removes a shard, redistributing its stored entries to their new
    /// owners. Returns `false` (and does nothing) for an unknown id or if
    /// this is the last shard — a fleet never drops its only copy of the
    /// sharded state.
    pub fn remove_shard(&mut self, id: usize) -> bool {
        if self.shards.len() <= 1 {
            return false;
        }
        let Some(position) = self.shards.iter().position(|(sid, _)| *sid == id) else {
            return false;
        };
        self.ring.remove_node(&id);
        let (_, memory) = self.shards.remove(position);
        let moved = memory.len();
        for (key, hv) in memory.into_entries() {
            self.insert(key, hv);
        }
        let total = self.len();
        if total > 0 {
            self.last_remap = Some((moved, total));
        }
        true
    }

    /// Moves every entry that no longer lives on its owning shard, returning
    /// how many moved. Called by [`add_shard`](Self::add_shard); idempotent.
    fn rebalance(&mut self) -> usize {
        let mut moves: Vec<(K, BinaryHypervector)> = Vec::new();
        for index in 0..self.shards.len() {
            let id = self.shards[index].0;
            let ring = &self.ring;
            let misplaced: Vec<K> = self.shards[index]
                .1
                .iter()
                .filter(|(key, _)| ring.lookup(*key) != Some(&id))
                .map(|(key, _)| key.clone())
                .collect();
            for key in misplaced {
                let hv = self.shards[index]
                    .1
                    .remove(&key)
                    .expect("key was just listed");
                moves.push((key, hv));
            }
        }
        let moved = moves.len();
        for (key, hv) in moves {
            self.insert(key, hv);
        }
        moved
    }

    /// Stores `hv` under `key` in the owning shard's item memory, returning
    /// the previous entry if the key was already stored (possibly on a
    /// different shard — the old copy is dropped from there).
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
        let mut previous = None;
        for (id, memory) in &mut self.shards {
            if *id != owner {
                if let Some(old) = memory.remove(&key) {
                    previous = Some(old);
                }
            }
        }
        let (_, memory) = self
            .shards
            .iter_mut()
            .find(|(id, _)| *id == owner)
            .expect("owner is a live shard");
        memory.insert(key, hv).or(previous)
    }

    /// Removes a stored entry from its owning shard, returning it if the
    /// key was stored.
    pub fn remove(&mut self, key: &K) -> Option<BinaryHypervector> {
        let owner = self.shard_of(key);
        self.shards
            .iter_mut()
            .find(|(id, _)| *id == owner)
            .and_then(|(_, memory)| memory.remove(key))
    }

    /// Looks up a stored entry on its owning shard.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&BinaryHypervector> {
        let owner = self.shard_of(key);
        self.shards
            .iter()
            .find(|(id, _)| *id == owner)
            .and_then(|(_, memory)| memory.get(key))
    }

    /// Predicts one encoded query (served by whichever shard — the head is
    /// replicated, so no routing is needed for a single stateless
    /// prediction).
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

    /// Routes a keyed batch: for each shard (in creation order) the input
    /// row indices it serves, in input order. Empty groups are included so
    /// load imbalance is visible.
    #[must_use]
    pub fn route<Q: Hash>(&self, keys: &[Q]) -> Vec<(usize, Vec<usize>)> {
        let index_of: HashMap<usize, usize> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, (id, _))| (*id, index))
            .collect();
        let mut groups: Vec<(usize, Vec<usize>)> = self
            .shards
            .iter()
            .map(|(id, _)| (*id, Vec::new()))
            .collect();
        for (row, key) in keys.iter().enumerate() {
            let owner = self.shard_of(key);
            groups[index_of[&owner]].1.push(row);
        }
        groups
    }

    /// Serves a keyed query batch: routes each row to its owning shard,
    /// runs the batched `predict_rows` path per shard across the worker
    /// pool, and merges the labels back in input order.
    ///
    /// Bit-identical to the unsharded
    /// [`Model::predict_encoded`](crate::Model::predict_encoded) for any
    /// shard count: routing decides *where* a query is answered, never
    /// *what* the answer is.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression fleet,
    /// [`HdcError::BatchLengthMismatch`] if `keys` and `queries` disagree
    /// in length and [`HdcError::DimensionMismatch`] if the batch
    /// dimensionality differs from the fleet's.
    pub fn predict_batch<Q: Hash + Sync>(
        &self,
        keys: &[Q],
        queries: &HypervectorBatch,
    ) -> Result<Vec<usize>, HdcError> {
        let Head::Classes(classifier) = &self.head else {
            return Err(HdcError::TaskMismatch {
                expected: "classification",
                found: self.head.task_name(),
            });
        };
        self.predict_routed(keys, queries, classifier.row_word_ops(), |sub| {
            classifier.predict_rows(sub)
        })
    }

    /// Serves a keyed **value** query batch — the regression twin of
    /// [`predict_batch`](Self::predict_batch): route per shard, batched
    /// integer-readout `predict_rows` per shard on the worker pool, merge
    /// in input order. Bit-identical to the unsharded
    /// [`Model::predict_values_encoded`](crate::Model::predict_values_encoded)
    /// for any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification fleet,
    /// [`HdcError::BatchLengthMismatch`] if `keys` and `queries` disagree
    /// in length and [`HdcError::DimensionMismatch`] if the batch
    /// dimensionality differs from the fleet's.
    pub fn predict_values<Q: Hash + Sync>(
        &self,
        keys: &[Q],
        queries: &HypervectorBatch,
    ) -> Result<Vec<f64>, HdcError> {
        let Head::Values(model) = &self.head else {
            return Err(HdcError::TaskMismatch {
                expected: "regression",
                found: self.head.task_name(),
            });
        };
        self.predict_routed(keys, queries, model.row_word_ops(), |sub| {
            model.predict_rows(sub)
        })
    }

    /// The shared routed-serving path behind both prediction types: route
    /// rows to shards, ship each shard its own contiguous sub-batch (what a
    /// real fleet would put on the wire), run the head's batched predictor
    /// per shard fanned out across the pool when the batch's work
    /// (`row_word_ops` per row) pays for it, and merge the answers back in
    /// input order. Workers write disjoint groups and the merge is by input
    /// order, so the output is deterministic regardless of scheduling.
    fn predict_routed<Q: Hash + Sync, T: Default + Clone + Send>(
        &self,
        keys: &[Q],
        queries: &HypervectorBatch,
        row_word_ops: usize,
        predict: impl Fn(&HypervectorBatch) -> Vec<T> + Sync,
    ) -> Result<Vec<T>, HdcError> {
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
        let groups = self.route(keys);
        let sub_batches: Vec<HypervectorBatch> = groups
            .iter()
            .map(|(_, rows)| {
                let mut sub = HypervectorBatch::with_capacity(self.dim, rows.len());
                for &row in rows {
                    sub.push_row(queries.row(row));
                }
                sub
            })
            .collect();
        let work = queries.len() * row_word_ops;
        let per_shard: Vec<Vec<T>> =
            minipool::par_map_indexed(&sub_batches, work, |_, sub| predict(sub));
        let mut merged = vec![T::default(); queries.len()];
        for ((_, rows), answers) in groups.iter().zip(&per_shard) {
            for (&row, answer) in rows.iter().zip(answers) {
                merged[row] = answer.clone();
            }
        }
        Ok(merged)
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
        // Every entry lives exactly on its routed shard.
        for (key, hv) in &entries {
            assert_eq!(fleet.get(key), Some(hv));
            let owner = fleet.shard_of(key);
            assert!(fleet.shard_len(owner).unwrap() > 0);
        }

        // Growing the fleet moves only the keys the ring reassigns…
        let owners_before: Vec<usize> = entries.iter().map(|(k, _)| fleet.shard_of(k)).collect();
        let new_shard = fleet.add_shard();
        let mut moved = 0;
        for ((key, hv), owner_before) in entries.iter().zip(&owners_before) {
            let owner_after = fleet.shard_of(key);
            if owner_after != *owner_before {
                assert_eq!(owner_after, new_shard, "movers must land on the new shard");
                moved += 1;
            }
            // …and no entry is ever lost or stale.
            assert_eq!(fleet.get(key), Some(hv));
        }
        assert!(moved < entries.len(), "a graceful reshard moves a fraction");
        assert_eq!(fleet.len(), 60);

        // Shrinking redistributes the removed shard's entries.
        assert!(fleet.remove_shard(new_shard));
        assert!(!fleet.remove_shard(new_shard));
        assert_eq!(fleet.len(), 60);
        for ((key, hv), owner_before) in entries.iter().zip(&owners_before) {
            assert_eq!(
                fleet.shard_of(key),
                *owner_before,
                "removal restores owners"
            );
            assert_eq!(fleet.get(key), Some(hv));
        }
    }

    #[test]
    fn last_shard_cannot_be_removed() {
        let (mut fleet, mut rng) = fleet(2);
        fleet.insert(
            "only".to_string(),
            BinaryHypervector::random(1_024, &mut rng),
        );
        assert!(fleet.remove_shard(0));
        assert!(!fleet.remove_shard(1), "the last shard must survive");
        assert_eq!(fleet.shard_count(), 1);
        assert_eq!(fleet.len(), 1);
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
        fleet.set_classifier(replacement).unwrap();
        assert_eq!(fleet.predict(&query), 0);
        let _ = before;
        // Dimensionality is load-bearing; a mismatched generation is refused.
        let wrong = classifier(&mut rng, 2, 512);
        assert!(matches!(
            fleet.set_classifier(wrong),
            Err(HdcError::DimensionMismatch {
                expected: 1_024,
                found: 512
            })
        ));
    }

    #[test]
    fn remove_and_loads_and_remap_fraction() {
        let (mut fleet, mut rng) = fleet(3);
        assert!(fleet.last_remap_fraction().is_none());
        let hv = BinaryHypervector::random(1_024, &mut rng);
        assert!(fleet.remove(&"ghost".to_string()).is_none());
        fleet.insert("a".to_string(), hv.clone());
        assert_eq!(fleet.shard_loads().iter().map(|(_, n)| n).sum::<usize>(), 1);
        assert_eq!(fleet.remove(&"a".to_string()), Some(hv));
        assert!(fleet.is_empty());
        // Churn with no entries records no remap fraction…
        let id = fleet.add_shard();
        assert!(fleet.last_remap_fraction().is_none());
        assert!(fleet.remove_shard(id));
        // …and with entries it stays a proper fraction.
        for i in 0..50 {
            fleet.insert(format!("k{i}"), BinaryHypervector::random(1_024, &mut rng));
        }
        let id = fleet.add_shard();
        let fraction = fleet.last_remap_fraction().expect("entries were moved");
        assert!((0.0..1.0).contains(&fraction), "fraction {fraction}");
        assert!(fleet.remove_shard(id));
        assert!(fleet.last_remap_fraction().is_some());
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
