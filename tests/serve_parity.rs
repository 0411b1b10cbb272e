//! Property tests for the serving layer: sharded prediction must be
//! **bit-identical** to the unsharded [`Model`] for any shard count, and
//! the item shards must keep every key's latest entry. Resharding happens
//! only in the cluster, whose remap is checked by `hdc-hash`'s ring tests
//! and the cluster join/leave tests.

use hdc::serve::Radians;
use hdc::{
    Basis, BinaryHypervector, Enc, HypervectorBatch, ItemMemory, Model, Pipeline, ShardedModel,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A small trained angle pipeline (day/night over the 24-hour circle).
fn trained_model(dim: usize, seed: u64) -> Model<Radians> {
    let mut model = Pipeline::builder(dim)
        .seed(seed)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let hours: Vec<Radians> = (0..48)
        .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
        .collect();
    let labels: Vec<usize> = (0..48).map(|i| usize::from(i >= 24)).collect();
    model
        .fit_batch(&hours, &labels)
        .expect("valid training set");
    model
}

proptest! {
    /// Acceptance criterion: `ShardedModel::predict_batch` over any shard
    /// count (including ≥ 2) is bit-identical to the unsharded `Model`.
    #[test]
    fn sharded_predictions_match_unsharded_model(
        seed in 0u64..50,
        shards in 1usize..7,
        dim in 200usize..400,
        queries in 1usize..60,
    ) {
        let model = trained_model(dim, seed);
        let fleet: ShardedModel<String> =
            ShardedModel::from_model(&model, shards, seed ^ 0xA5).expect("valid fleet");
        prop_assert_eq!(fleet.shard_count(), shards);

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let inputs: Vec<Radians> = (0..queries)
            .map(|_| Radians(rng.random_range(0.0f64..7.0)))
            .collect();
        let keys: Vec<String> = (0..queries).map(|i| format!("user-{i}")).collect();

        let encoded = model.encode_batch(&inputs);
        let unsharded = model.predict_encoded(&encoded);
        prop_assert_eq!(&unsharded, &model.predict_batch(&inputs));
        let sharded = fleet.predict_batch(&keys, &encoded).expect("routable batch");
        prop_assert_eq!(&sharded, &unsharded);
    }
}

/// `ItemMemory::remove` edge cases: absent keys (on empty and populated
/// memories), repeated removal, and index integrity after swap-remove
/// churn.
#[test]
fn item_memory_remove_handles_absent_keys_and_churn() {
    let mut rng = StdRng::seed_from_u64(0x1E4);
    let mut memory: ItemMemory<u32> = ItemMemory::new();
    assert!(memory.remove(&7).is_none(), "remove on an empty memory");

    let hvs: Vec<BinaryHypervector> = (0..8)
        .map(|_| BinaryHypervector::random(128, &mut rng))
        .collect();
    for (i, hv) in hvs.iter().enumerate() {
        memory.insert(u32::try_from(i).unwrap(), hv.clone());
    }
    assert!(
        memory.remove(&99).is_none(),
        "absent key on a populated memory"
    );
    // Interleave removals with absent-key probes; swap-remove must keep
    // every surviving key resolvable throughout.
    for victim in [0u32, 7, 3] {
        assert!(memory.remove(&victim).is_some());
        assert!(
            memory.remove(&victim).is_none(),
            "double remove of {victim}"
        );
        for (i, hv) in hvs.iter().enumerate() {
            let key = u32::try_from(i).unwrap();
            if memory.contains(&key) {
                assert_eq!(memory.get(&key), Some(hv), "key {key} after churn");
            }
        }
    }
    assert_eq!(memory.len(), 5);
}

/// `ItemMemory::into_entries` edge cases: an empty memory yields nothing,
/// and a churned memory moves exactly its surviving entries.
#[test]
fn item_memory_into_entries_moves_the_surviving_entries() {
    let mut rng = StdRng::seed_from_u64(0x1E5);
    let empty: ItemMemory<String> = ItemMemory::new();
    assert!(empty.into_entries().is_empty());

    let mut memory: ItemMemory<String> = ItemMemory::new();
    let first = BinaryHypervector::random(128, &mut rng);
    let second = BinaryHypervector::random(128, &mut rng);
    memory.insert("dup".to_string(), first);
    memory.insert("dup".to_string(), second.clone());
    memory.insert("gone".to_string(), BinaryHypervector::random(128, &mut rng));
    memory.insert("kept".to_string(), second.clone());
    memory.remove(&"gone".to_string());
    let mut entries = memory.into_entries();
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    assert_eq!(entries.len(), 2);
    // The duplicate-key insert survives as its *latest* value.
    assert_eq!(entries[0], ("dup".to_string(), second.clone()));
    assert_eq!(entries[1], ("kept".to_string(), second));
}

/// Fleet-level edge cases: removal of absent keys from an empty fleet, and
/// duplicate-key re-inserts keeping their latest value.
#[test]
fn fleet_churn_on_empty_shards_and_duplicate_keys() {
    let mut rng = StdRng::seed_from_u64(0x1E6);
    let classifier = hdc::learn::CentroidClassifier::from_class_vectors(vec![
        BinaryHypervector::random(256, &mut rng),
        BinaryHypervector::random(256, &mut rng),
    ])
    .expect("non-empty");
    let mut fleet: ShardedModel<String> =
        ShardedModel::new(classifier, 256, 2, 3).expect("valid fleet");

    assert!(fleet.remove(&"absent".to_string()).is_none());

    // A key re-inserted with a new value keeps that value.
    let stale = BinaryHypervector::random(256, &mut rng);
    let fresh = BinaryHypervector::random(256, &mut rng);
    assert!(fleet.insert("profile".to_string(), stale.clone()).is_none());
    assert_eq!(
        fleet.insert("profile".to_string(), fresh.clone()),
        Some(stale)
    );
    assert_eq!(fleet.get(&"profile".to_string()), Some(&fresh));
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet.remove(&"profile".to_string()), Some(fresh));
    assert!(fleet.is_empty());
}

/// Non-proptest check: a fleet with more shards than queries answers
/// every row, and an empty batch answers nothing.
#[test]
fn empty_shard_groups_are_harmless() {
    let model = trained_model(256, 7);
    let fleet: ShardedModel<&str> = ShardedModel::from_model(&model, 6, 1).unwrap();
    // One single query cannot cover 6 shards.
    let encoded = model.encode_batch(&[Radians(1.0)]);
    let sharded = fleet.predict_batch(&["lonely"], &encoded).unwrap();
    assert_eq!(sharded, model.predict_encoded(&encoded));
    let empty: HypervectorBatch = HypervectorBatch::new(256);
    assert_eq!(
        fleet.predict_batch::<&str>(&[], &empty).unwrap(),
        Vec::<usize>::new()
    );
}
