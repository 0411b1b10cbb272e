//! A multi-process shard cluster over loopback TCP — and proof that the
//! routing tier never changes an answer.
//!
//! Three shard `Runtime`s are spawned behind real framed-TCP servers
//! (the same wiring `hdc-cluster shard` runs as separate OS processes),
//! a [`ClusterRouter`] places keyed items on them over the consistent-hash
//! ring and sends each read to one shard, and every prediction is asserted
//! **bit-identical** to both the unsharded [`Model`] and the in-process
//! [`ShardedModel`] — for classification and regression, before and after
//! a shard leaves and a blank replacement joins warm via snapshot
//! streaming.
//!
//! Run with `cargo run --example shard_cluster`.

use std::collections::BTreeMap;

use hdc::hash::HdcHashRing;
use hdc::serve::Radians;
use hdc::{
    Basis, BinaryHypervector, ClusterRouter, Enc, HdcError, Model, Pipeline, RemoteShard,
    RingConfig, Runtime, RuntimeConfig, Server, ShardBackend, ShardedModel,
};
use rand::{rngs::StdRng, SeedableRng};

const DIM: usize = 2_048;
const RING_SEED: u64 = 0;

fn trained_day_night(seed: u64) -> Result<Model<Radians>, HdcError> {
    let mut model = Pipeline::builder(DIM)
        .seed(seed)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()?;
    let hours: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(f64::from(i) / 4.0, 24.0))
        .collect();
    let labels: Vec<usize> = (0..96).map(|i| usize::from(i >= 48)).collect();
    model.fit_batch(&hours, &labels)?;
    Ok(model)
}

fn trained_hour_regressor(seed: u64) -> Result<Model<Radians>, HdcError> {
    let mut model = Pipeline::builder(DIM)
        .seed(seed)
        .regression(0.0, 24.0, 24)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()?;
    let hours: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(f64::from(i) / 4.0, 24.0))
        .collect();
    let values: Vec<f64> = (0..96).map(|i| f64::from(i) / 4.0).collect();
    model.fit_value_batch(&hours, &values)?;
    Ok(model)
}

/// One "shard process": a runtime rebuilt bit-identically from the
/// trained model's snapshot, behind its own loopback TCP server.
fn spawn_shard(model: &Model<Radians>, name: &str) -> Result<(Runtime<Radians>, Server), HdcError> {
    let replica = Pipeline::from_snapshot::<Radians>(&model.snapshot())?;
    let config = RuntimeConfig {
        name: name.to_owned(),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::spawn(replica, config)?;
    let server = Server::spawn("127.0.0.1:0", runtime.handle())
        .map_err(|e| HdcError::Transport(e.to_string()))?;
    Ok((runtime, server))
}

fn connect(server: &Server) -> Result<Box<dyn ShardBackend>, HdcError> {
    Ok(Box::new(RemoteShard::connect(
        &server.local_addr().to_string(),
    )?))
}

fn main() -> Result<(), HdcError> {
    // ---- Classification cluster -------------------------------------
    let model = trained_day_night(42)?;
    let inputs: Vec<Radians> = (0..200).map(|i| Radians(f64::from(i) * 0.031)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    let keys: Vec<String> = (0..inputs.len()).map(|i| format!("user-{i}")).collect();
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    // The in-process reference fleet the cluster must agree with.
    let fleet: ShardedModel<String> = ShardedModel::from_model(&model, 3, RING_SEED)?;
    assert_eq!(fleet.predict_batch(&keys, &queries)?, expected);

    // Three shard runtimes behind real TCP servers, one router over them.
    let mut shards = vec![
        spawn_shard(&model, "shard-0")?,
        spawn_shard(&model, "shard-1")?,
        spawn_shard(&model, "shard-2")?,
    ];
    let backends = shards
        .iter()
        .map(|(_, server)| connect(server))
        .collect::<Result<Vec<_>, _>>()?;
    let mut router = ClusterRouter::new(backends, RingConfig::default(), RING_SEED)?;

    // Bit-identity, and routing parity with the in-process ring.
    let served = router.predict_batch(&pairs)?;
    assert_eq!(
        served.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected,
        "cluster predictions must be bit-identical to the unsharded model"
    );
    for key in &keys {
        assert_eq!(router.shard_of(key), fleet.shard_of(key));
    }
    println!(
        "cluster of {} shards: {} predictions bit-identical to the unsharded model",
        router.shard_count(),
        pairs.len()
    );

    // Store every key, then look at the balance.
    for (key, hv) in &pairs {
        router.insert(key, hv)?;
    }
    let loads: BTreeMap<u64, u64> = router
        .cluster_stats()?
        .shard_loads
        .iter()
        .copied()
        .collect();
    println!("item-memory balance over the ring: {loads:?}");

    // ---- Churn: one shard leaves, a blank replacement joins warm ----
    let (removed, drained) = router.leave(1)?;
    assert!(removed);
    let (_, old_server) = shards.remove(1);
    old_server.shutdown();
    println!("shard 1 left; {drained} entries drained onto the survivors");

    // The replacement is *blank*: same spec, zero observations. The warm
    // join streams it a donor trainer state plus the entries the grown
    // ring assigns to it.
    let blank = Pipeline::builder(DIM)
        .seed(42)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()?;
    let replacement = Runtime::spawn(
        blank,
        RuntimeConfig {
            name: "shard-3".to_owned(),
            ..RuntimeConfig::default()
        },
    )?;
    let replacement_server = Server::spawn("127.0.0.1:0", replacement.handle())
        .map_err(|e| HdcError::Transport(e.to_string()))?;
    let (id, moved) = router.join(connect(&replacement_server)?)?;
    println!("blank shard joined warm as id {id}; {moved} entries streamed to it");
    shards.push((replacement, replacement_server));

    // A ring built the way the router builds its own replays the same
    // membership history; ownership still agrees, and answers stay
    // bit-identical — including on keys now owned by the shard that never
    // saw training.
    let config = RingConfig::default();
    let mut ring = HdcHashRing::with_replicas(
        config.positions,
        config.dim,
        config.replicas,
        &mut StdRng::seed_from_u64(RING_SEED),
    )?;
    for id in 0..3 {
        ring.add_node(id);
    }
    ring.remove_node(&1);
    ring.add_node(3);
    for key in &keys {
        assert_eq!(Some(&router.shard_of(key)), ring.lookup(key));
    }
    let served = router.predict_batch(&pairs)?;
    assert_eq!(
        served.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected,
        "bit-identity must survive shard churn"
    );
    let stats = router.cluster_stats()?;
    assert_eq!(
        stats.keys as usize,
        pairs.len(),
        "no item lost in the churn"
    );
    println!(
        "after churn: {} predictions still bit-identical, all {} items survived",
        pairs.len(),
        stats.keys
    );
    for (runtime, server) in shards {
        server.shutdown();
        runtime.shutdown();
    }

    // ---- Regression cluster -----------------------------------------
    let model = trained_hour_regressor(7)?;
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_values_encoded(&queries);
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();
    let shards = vec![
        spawn_shard(&model, "reg-0")?,
        spawn_shard(&model, "reg-1")?,
        spawn_shard(&model, "reg-2")?,
    ];
    let backends = shards
        .iter()
        .map(|(_, server)| connect(server))
        .collect::<Result<Vec<_>, _>>()?;
    let mut router = ClusterRouter::new(backends, RingConfig::default(), RING_SEED)?;
    let served = router.predict_value_batch(&pairs)?;
    assert_eq!(
        served.iter().map(|p| p.value).collect::<Vec<_>>(),
        expected,
        "regression cluster must serve bit-identical f64s"
    );
    println!(
        "regression cluster of {} shards: {} served values bit-identical to the unsharded model",
        router.shard_count(),
        pairs.len()
    );
    for (runtime, server) in shards {
        server.shutdown();
        runtime.shutdown();
    }
    Ok(())
}
