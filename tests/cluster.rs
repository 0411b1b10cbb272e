//! End-to-end tests of the multi-process shard cluster.
//!
//! Acceptance criteria covered here:
//!
//! * **Cluster bit-identity** — N shard `Runtime` processes behind a
//!   [`ClusterRouter`] (loopback TCP, real wire frames) answer
//!   bit-identically to the unsharded `Model` *and* the in-process
//!   `ShardedModel`, for classification and regression, for any shard
//!   count — and key→shard placement matches `ShardedModel::shard_of`
//!   exactly.
//! * **One shard per read** — a read whose keys span every shard is
//!   answered by one shard call, with one generation.
//! * **Warm joins under churn** — after one shard leaves and a blank
//!   replacement joins warm via snapshot streaming, predictions are
//!   still bit-identical and every stored item survived, even with
//!   concurrent client traffic throughout.
//! * **Bounded timeouts** — a dead or unresponsive shard surfaces as
//!   `HdcError::Timeout`/`HdcError::Transport` instead of hanging the
//!   router.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hdc::hash::HdcHashRing;
use hdc::serve::Radians;
use hdc::{
    Answers, Basis, BatchPolicy, BinaryHypervector, BlockingClient, ClientConfig, ClusterRouter,
    ClusterServer, Enc, HdcError, LocalShard, Model, Pipeline, RemoteShard, RingConfig, Runtime,
    RuntimeConfig, Server, ShardBackend, ShardedModel, Target,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

const DIM: usize = 256;

/// A small trained angle pipeline (day/night over the 24-hour circle).
/// Deterministic per seed, so every call yields a bit-identical model —
/// which is how each shard process gets the same replicated head.
fn trained_model(seed: u64) -> Model<Radians> {
    let mut model = Pipeline::builder(DIM)
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

/// The regression twin: hour-of-day as the real-valued label.
fn trained_value_model(seed: u64) -> Model<Radians> {
    let mut model = Pipeline::builder(DIM)
        .seed(seed)
        .regression(0.0, 24.0, 24)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let hours: Vec<Radians> = (0..48)
        .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
        .collect();
    let values: Vec<f64> = (0..48).map(|i| f64::from(i) / 2.0).collect();
    model
        .fit_value_batch(&hours, &values)
        .expect("valid training set");
    model
}

fn shard_config(name: &str) -> RuntimeConfig {
    RuntimeConfig {
        name: name.to_owned(),
        shards: 1,
        policy: BatchPolicy { max_batch: 8 },
        refresh_every: 0,
        ..RuntimeConfig::default()
    }
}

/// Spawns one shard *process* stand-in: a runtime with its own framed-TCP
/// server on an ephemeral loopback port.
fn spawn_shard(model: Model<Radians>, name: &str) -> (Runtime<Radians>, Server) {
    let runtime = Runtime::spawn(model, shard_config(name)).expect("valid runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    (runtime, server)
}

/// Fast-failing client deadlines for tests: a hung shard must surface in
/// milliseconds, not the default 10 s.
fn test_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        connect_retries: 2,
        retry_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(40),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance criterion: a cluster of N shard runtimes behind the
    /// router — loopback TCP, real wire frames — answers bit-identically
    /// to the unsharded model and the in-process `ShardedModel`, and
    /// routes every key to the same shard id `ShardedModel::shard_of`
    /// picks.
    #[test]
    fn cluster_predictions_are_bit_identical_to_the_sharded_model(
        seed in 0u64..1_000,
        shards in 1usize..5,
        ring_seed in 0u64..100,
    ) {
        let model = trained_model(seed);
        let inputs: Vec<Radians> = (0..40).map(|i| Radians(f64::from(i) * 0.17)).collect();
        let queries = model.encode_batch(&inputs);
        let expected = model.predict_encoded(&queries);
        let keys: Vec<String> = (0..inputs.len()).map(|i| format!("user-{i}")).collect();
        let fleet: ShardedModel<String> =
            ShardedModel::from_model(&model, shards, ring_seed).expect("valid fleet");
        prop_assert_eq!(&fleet.predict_batch(&keys, &queries).expect("routable"), &expected);

        // Same seed + training → every shard process owns a bit-identical
        // replicated head.
        let fleet_procs: Vec<(Runtime<Radians>, Server)> = (0..shards)
            .map(|i| spawn_shard(trained_model(seed), &format!("shard-{i}")))
            .collect();
        let backends: Vec<Box<dyn ShardBackend>> = fleet_procs
            .iter()
            .map(|(_, server)| {
                let addr = server.local_addr().to_string();
                let shard = RemoteShard::connect_with(&addr, test_client_config())
                    .expect("loopback connect");
                Box::new(shard) as Box<dyn ShardBackend>
            })
            .collect();
        let mut router = ClusterRouter::new(backends, RingConfig::default(), ring_seed)
            .expect("valid cluster");
        prop_assert_eq!(router.shard_count(), shards);
        prop_assert_eq!(router.dim(), DIM);

        // Routing parity: the router's ring is the fleet's ring.
        for key in &keys {
            prop_assert_eq!(router.shard_of(key), fleet.shard_of(key));
        }

        // Prediction parity: batch and one-row requests.
        let pairs: Vec<(String, BinaryHypervector)> = keys
            .iter()
            .cloned()
            .zip(queries.rows().map(|row| row.to_hypervector()))
            .collect();
        let batched = router.predict_batch(&pairs).expect("routable");
        prop_assert_eq!(
            batched.iter().map(|p| p.label).collect::<Vec<_>>(),
            expected.clone()
        );
        for ((key, hv), &label) in pairs.iter().zip(&expected) {
            let answers = router.answer(&[(key.clone(), hv.clone())]).expect("routable");
            let prediction = answers.into_labels().expect("a classifier answers labels");
            prop_assert_eq!(prediction[0].label, label);
        }

        for (runtime, server) in fleet_procs {
            server.shutdown();
            runtime.shutdown();
        }
    }

    /// The regression twin: served f64 values over the cluster are
    /// bit-identical to the unsharded model's and the in-process fleet's.
    #[test]
    fn cluster_value_predictions_are_bit_identical_to_the_sharded_model(
        seed in 0u64..1_000,
        shards in 1usize..4,
    ) {
        let model = trained_value_model(seed);
        let inputs: Vec<Radians> = (0..30).map(|i| Radians(f64::from(i) * 0.21)).collect();
        let queries = model.encode_batch(&inputs);
        let expected = model.predict_values_encoded(&queries);
        let keys: Vec<String> = (0..inputs.len()).map(|i| format!("station-{i}")).collect();
        let fleet: ShardedModel<String> =
            ShardedModel::from_model(&model, shards, 0).expect("valid fleet");
        prop_assert_eq!(&fleet.predict_values(&keys, &queries).expect("routable"), &expected);

        let fleet_procs: Vec<(Runtime<Radians>, Server)> = (0..shards)
            .map(|i| spawn_shard(trained_value_model(seed), &format!("shard-{i}")))
            .collect();
        let backends: Vec<Box<dyn ShardBackend>> = fleet_procs
            .iter()
            .map(|(_, server)| {
                let addr = server.local_addr().to_string();
                let shard = RemoteShard::connect_with(&addr, test_client_config())
                    .expect("loopback connect");
                Box::new(shard) as Box<dyn ShardBackend>
            })
            .collect();
        let mut router =
            ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");

        let pairs: Vec<(String, BinaryHypervector)> = keys
            .iter()
            .cloned()
            .zip(queries.rows().map(|row| row.to_hypervector()))
            .collect();
        let served = router.predict_value_batch(&pairs).expect("routable");
        prop_assert_eq!(
            served.iter().map(|p| p.value).collect::<Vec<_>>(),
            expected
        );

        for (runtime, server) in fleet_procs {
            server.shutdown();
            runtime.shutdown();
        }
    }
}

/// Acceptance criterion: shard leave + warm join under live traffic. A
/// cluster front-end serves concurrent clients while one shard leaves and
/// a **blank** replacement joins warm via snapshot streaming; predictions
/// stay bit-identical throughout, the replacement answers with the
/// trained head it never saw trained, and every stored item survives the
/// churn.
#[test]
fn warm_join_and_leave_under_live_traffic_keep_bit_identity() {
    let seed = 77;
    let model = trained_model(seed);
    let inputs: Vec<Radians> = (0..40).map(|i| Radians(f64::from(i) * 0.13)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = Arc::new(model.predict_encoded(&queries));
    let keys: Vec<String> = (0..inputs.len()).map(|i| format!("user-{i}")).collect();
    let pairs: Arc<Vec<(String, BinaryHypervector)>> = Arc::new(
        keys.iter()
            .cloned()
            .zip(queries.rows().map(|row| row.to_hypervector()))
            .collect(),
    );

    // Three shard processes, a router over them, and a cluster front-end.
    let mut fleet_procs: Vec<(Runtime<Radians>, Server)> = (0..3)
        .map(|i| spawn_shard(trained_model(seed), &format!("shard-{i}")))
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = fleet_procs
        .iter()
        .map(|(_, server)| {
            let addr = server.local_addr().to_string();
            let shard =
                RemoteShard::connect_with(&addr, test_client_config()).expect("loopback connect");
            Box::new(shard) as Box<dyn ShardBackend>
        })
        .collect();
    let router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    let front =
        ClusterServer::spawn("127.0.0.1:0", router, test_client_config()).expect("ephemeral port");
    let front_addr = front.local_addr();

    // Store every key's hypervector through the front-end.
    let mut client = BlockingClient::connect(front_addr).expect("connect");
    for (key, hv) in pairs.iter() {
        assert!(!client.insert(key, hv).expect("insert"));
    }

    // The cluster's aggregate stats see all shards and all keys.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.keys, 40);
    assert_eq!(stats.shard_loads.len(), 3);
    assert_eq!(stats.name, "cluster(3)");
    assert_eq!(stats.ring_positions, 128);

    // Live traffic: two clients hammer predictions through the churn,
    // asserting bit-identity on every answer.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let pairs = Arc::clone(&pairs);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = BlockingClient::connect(front_addr).expect("connect");
                let mut answered = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    for ((key, hv), &label) in pairs.iter().zip(expected.iter()) {
                        let prediction = client.predict(key, hv).expect("served prediction");
                        assert_eq!(prediction.label, label, "key {key}");
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    // Shard 1 leaves: its stored entries drain onto the survivors.
    let (removed, drained) = client.shard_leave(1).expect("leave");
    assert!(removed);
    let (_, leaver_server) = fleet_procs.remove(1);
    leaver_server.shutdown();

    // A *blank* shard process (same spec, zero observations) joins warm:
    // the router streams it a donor trainer state plus the item-memory
    // entries the grown ring assigns to it.
    let blank = Pipeline::builder(DIM)
        .seed(seed)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let (new_runtime, new_server) = spawn_shard(blank, "shard-3");
    let (joined_id, moved) = client
        .shard_join(&new_server.local_addr().to_string())
        .expect("warm join");
    assert_eq!(joined_id, 3, "ids keep counting in join order");
    fleet_procs.push((new_runtime, new_server));

    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        assert!(worker.join().expect("client thread") > 0);
    }

    // The ring after churn matches one built the way the router builds
    // its own, with the same history (nodes 0..3, remove 1, add 3), and
    // predictions are still bit-identical — including on keys now owned
    // by the warm-joined blank shard.
    let config = RingConfig::default();
    let mut ring = HdcHashRing::with_replicas(
        config.positions,
        config.dim,
        config.replicas,
        &mut StdRng::seed_from_u64(0),
    )
    .expect("valid ring");
    for id in 0..3 {
        ring.add_node(id);
    }
    ring.remove_node(&1);
    ring.add_node(3);
    front.with_router(|router| {
        assert_eq!(router.shard_ids(), vec![0, 2, 3]);
        for key in &keys {
            assert_eq!(Some(&router.shard_of(key)), ring.lookup(key), "key {key}");
        }
    });
    let batched = client.predict_batch(pairs.as_ref().clone()).expect("batch");
    assert_eq!(
        batched.iter().map(|p| p.label).collect::<Vec<_>>(),
        *expected
    );

    // No item was lost in the churn: drained entries were re-inserted,
    // moved entries live on the new shard, and the total stands.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.keys, 40, "drained {drained}, moved {moved}");
    assert_eq!(stats.shard_loads.len(), 3);
    let on_new_shard = stats
        .shard_loads
        .iter()
        .find(|(id, _)| *id == 3)
        .map(|(_, keys)| *keys)
        .expect("joined shard reports a load");
    assert_eq!(on_new_shard, moved);

    drop(client);
    let router = front.shutdown();
    assert!(router.shard_count() >= 1);
    for (runtime, server) in fleet_procs {
        server.shutdown();
        runtime.shutdown();
    }
}

/// Regression cluster churn: after a leave and a warm join of a blank
/// regression shard, served values are still bit-identical to the
/// unsharded model's — also after replicated value fits through the same
/// `ShardBackend` fit call label fits use.
#[test]
fn regression_cluster_survives_warm_join() {
    let seed = 31;
    let model = trained_value_model(seed);
    let inputs: Vec<Radians> = (0..24).map(|i| Radians(f64::from(i) * 0.25)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_values_encoded(&queries);
    let keys: Vec<String> = (0..inputs.len()).map(|i| format!("station-{i}")).collect();
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    let mut fleet_procs: Vec<(Runtime<Radians>, Server)> = (0..2)
        .map(|i| spawn_shard(trained_value_model(seed), &format!("shard-{i}")))
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = fleet_procs
        .iter()
        .map(|(_, server)| {
            let addr = server.local_addr().to_string();
            let shard =
                RemoteShard::connect_with(&addr, test_client_config()).expect("loopback connect");
            Box::new(shard) as Box<dyn ShardBackend>
        })
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    for (key, hv) in &pairs {
        assert!(!router.insert(key, hv).expect("insert"));
    }

    // Leave shard 0, then warm-join a blank regression shard.
    let (removed, _) = router.leave(0).expect("leave");
    assert!(removed);
    let (_, old_server) = fleet_procs.remove(0);
    old_server.shutdown();
    let blank = Pipeline::builder(DIM)
        .seed(seed)
        .regression(0.0, 24.0, 24)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let (new_runtime, new_server) = spawn_shard(blank, "shard-2");
    let shard =
        RemoteShard::connect_with(&new_server.local_addr().to_string(), test_client_config())
            .expect("loopback connect");
    let (id, _) = router.join(Box::new(shard)).expect("warm join");
    assert_eq!(id, 2);
    fleet_procs.push((new_runtime, new_server));

    let served = router.predict_value_batch(&pairs).expect("routable");
    assert_eq!(served.iter().map(|p| p.value).collect::<Vec<_>>(), expected);
    let stats = router.cluster_stats().expect("stats");
    assert_eq!(stats.keys as usize, pairs.len());

    // Value fits ride the same replicated fit path as label fits, and the
    // regression head answers the one predict path with values.
    let extra = [Radians::periodic(5.0, 24.0), Radians::periodic(19.0, 24.0)];
    let extra_values = [5.0, 19.0];
    for (input, &value) in extra.iter().zip(&extra_values) {
        router
            .observe(&model.encode(input), Target::Value(value))
            .expect("replicated value fit");
    }
    router.refresh().expect("refresh");
    let mut reference = trained_value_model(seed);
    reference
        .fit_value_batch(&extra, &extra_values)
        .expect("valid observations");
    let Answers::Values(served) = router.answer(&pairs).expect("routable") else {
        panic!("a regression cluster answers with values");
    };
    assert_eq!(
        served.iter().map(|p| p.value).collect::<Vec<_>>(),
        reference.predict_values_encoded(&queries)
    );
    assert!(matches!(
        router.predict_batch(&pairs),
        Err(HdcError::TaskMismatch {
            expected: "classification",
            found: "regression"
        })
    ));

    for (runtime, server) in fleet_procs {
        server.shutdown();
        runtime.shutdown();
    }
}

/// An accepted-but-mute shard must surface as `HdcError::Timeout` within
/// the configured read deadline — the router never hangs on a dead shard.
#[test]
fn unresponsive_shard_times_out_instead_of_hanging() {
    // A listener that accepts connections and then never answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound").to_string();
    let mute = thread::spawn(move || {
        // Hold the one connection open without ever writing a byte.
        let held = listener.accept();
        thread::sleep(Duration::from_millis(300));
        drop(held);
    });

    let config = ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Some(Duration::from_millis(50)),
        write_timeout: Some(Duration::from_millis(500)),
        connect_retries: 0,
        retry_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
    };
    let mut shard = RemoteShard::connect_with(&addr, config).expect("accepting socket");
    let error = shard.ping().expect_err("mute shard must not answer");
    assert!(
        matches!(error, HdcError::Timeout { .. }),
        "expected a timeout, got {error:?}"
    );
    // The error's message names the stalled operation.
    assert!(error.to_string().contains("timed out"), "{error}");
    mute.join().expect("mute listener thread");
}

/// A connection-refused shard surfaces as `HdcError::Transport` after the
/// bounded retries — and quickly, because the backoff is bounded too.
#[test]
fn refused_connections_fail_bounded() {
    // Bind-then-drop: the port is now (very likely) refusing connections.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        listener.local_addr().expect("bound").to_string()
    };
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(200),
        read_timeout: Some(Duration::from_millis(200)),
        write_timeout: Some(Duration::from_millis(200)),
        connect_retries: 2,
        retry_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
    };
    let error = RemoteShard::connect_with(&addr, config).expect_err("refused port");
    assert!(
        matches!(error, HdcError::Transport(_) | HdcError::Timeout { .. }),
        "expected a transport error, got {error:?}"
    );
}

/// A [`ShardBackend`] wrapper whose `insert`/`remove`/`fit` paths can be
/// switched to fail on demand — the transport-fault injection behind the
/// partial-failure recovery tests. Snapshot/restore/predict always pass
/// through, mimicking a peer that is reachable but flaking on specific
/// operations (or a transient blip the router must absorb).
struct FlakyShard {
    inner: Box<dyn ShardBackend>,
    fail_insert: Arc<AtomicBool>,
    fail_remove: Arc<AtomicBool>,
    fail_fit: Arc<AtomicBool>,
}

impl FlakyShard {
    fn new(
        inner: Box<dyn ShardBackend>,
    ) -> (Self, Arc<AtomicBool>, Arc<AtomicBool>, Arc<AtomicBool>) {
        let fail_insert = Arc::new(AtomicBool::new(false));
        let fail_remove = Arc::new(AtomicBool::new(false));
        let fail_fit = Arc::new(AtomicBool::new(false));
        let shard = Self {
            inner,
            fail_insert: Arc::clone(&fail_insert),
            fail_remove: Arc::clone(&fail_remove),
            fail_fit: Arc::clone(&fail_fit),
        };
        (shard, fail_insert, fail_remove, fail_fit)
    }

    fn injected(flag: &AtomicBool) -> Result<(), HdcError> {
        if flag.load(Ordering::Relaxed) {
            Err(HdcError::Transport("injected fault".into()))
        } else {
            Ok(())
        }
    }
}

impl ShardBackend for FlakyShard {
    fn describe(&self) -> String {
        format!("flaky({})", self.inner.describe())
    }

    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError> {
        self.inner.answer(pairs)
    }

    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError> {
        Self::injected(&self.fail_insert)?;
        self.inner.insert(key, hv)
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        Self::injected(&self.fail_remove)?;
        self.inner.remove(key)
    }

    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        Self::injected(&self.fail_fit)?;
        self.inner.observe(hv, target)
    }

    fn refresh(&mut self) -> Result<u64, HdcError> {
        self.inner.refresh()
    }

    fn stats(&mut self) -> Result<hdc::RuntimeStats, HdcError> {
        self.inner.stats()
    }

    fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        self.inner.ping()
    }

    fn snapshot(&mut self) -> Result<hdc::Snapshot, HdcError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &hdc::Snapshot) -> Result<u64, HdcError> {
        self.inner.restore(snapshot)
    }
}

/// The test cluster the fault-injection tests share: `shards` flaky
/// backends over real shard processes, the keyed entries inserted, and
/// the expected (bit-identical) predictions.
#[allow(clippy::type_complexity)]
fn flaky_cluster(
    seed: u64,
    shards: usize,
) -> (
    ClusterRouter,
    Vec<(Runtime<Radians>, Server)>,
    Vec<(Arc<AtomicBool>, Arc<AtomicBool>, Arc<AtomicBool>)>,
    Vec<(String, BinaryHypervector)>,
    Vec<usize>,
    Model<Radians>,
) {
    let model = trained_model(seed);
    let inputs: Vec<Radians> = (0..40).map(|i| Radians(f64::from(i) * 0.19)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    let pairs: Vec<(String, BinaryHypervector)> = (0..inputs.len())
        .map(|i| format!("user-{i}"))
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    let fleet_procs: Vec<(Runtime<Radians>, Server)> = (0..shards)
        .map(|i| spawn_shard(trained_model(seed), &format!("shard-{i}")))
        .collect();
    let mut flags = Vec::new();
    let backends: Vec<Box<dyn ShardBackend>> = fleet_procs
        .iter()
        .map(|(_, server)| {
            let addr = server.local_addr().to_string();
            let shard =
                RemoteShard::connect_with(&addr, test_client_config()).expect("loopback connect");
            let (flaky, fail_insert, fail_remove, fail_fit) = FlakyShard::new(Box::new(shard));
            flags.push((fail_insert, fail_remove, fail_fit));
            Box::new(flaky) as Box<dyn ShardBackend>
        })
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    for (key, hv) in &pairs {
        assert!(!router.insert(key, hv).expect("insert"));
    }
    (router, fleet_procs, flags, pairs, expected, model)
}

fn assert_bit_identical(
    router: &mut ClusterRouter,
    pairs: &[(String, BinaryHypervector)],
    expected: &[usize],
) {
    let served = router.predict_batch(pairs).expect("routable");
    assert_eq!(
        served.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected,
        "cluster answers must stay bit-identical"
    );
}

/// REVIEW regression (high): a join whose post-restore cleanup fails must
/// stay **committed** — the newcomer holds the moved entries and the ring
/// routes to it, so the router must keep serving (previously the ring
/// kept a node with no backend and the next lookup panicked, poisoning
/// the front-end's router mutex). The skipped removals are deferred and
/// flushed before the next membership change.
#[test]
fn join_commits_even_when_cleanup_removals_fail() {
    let (mut router, mut fleet_procs, flags, pairs, expected, model) = flaky_cluster(11, 2);

    // Every peer refuses `remove`: the cleanup after the snapshot stream
    // cannot land.
    for (_, fail_remove, _) in &flags {
        fail_remove.store(true, Ordering::Relaxed);
    }

    let blank = Pipeline::builder(DIM)
        .seed(11)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let (new_runtime, new_server) = spawn_shard(blank, "shard-2");
    let newcomer =
        RemoteShard::connect_with(&new_server.local_addr().to_string(), test_client_config())
            .expect("loopback connect");
    let (id, moved) = router
        .join(Box::new(newcomer))
        .expect("the join committed once the newcomer adopted the snapshot");
    fleet_procs.push((new_runtime, new_server));
    assert_eq!(id, 2);
    assert!(moved > 0, "this seed moves entries to the newcomer");
    assert_eq!(router.shard_ids(), vec![0, 1, 2]);

    // Routing still works for every key — including the moved ones, now
    // answered by the newcomer. Stale copies are unreachable garbage.
    assert_bit_identical(&mut router, &pairs, &expected);
    assert_eq!(router.deferred_cleanup() as u64, moved);
    let stats = router.cluster_stats().expect("stats");
    assert_eq!(
        stats.keys as usize,
        pairs.len() + moved as usize,
        "stale copies show up only as key-count drift"
    );

    // The transport heals; the next membership change flushes the
    // deferred cleanup before doing anything else.
    for (_, fail_remove, _) in &flags {
        fail_remove.store(false, Ordering::Relaxed);
    }
    let (removed, _) = router.leave(2).expect("leave after heal");
    assert!(removed);
    assert_eq!(router.deferred_cleanup(), 0);
    let stats = router.cluster_stats().expect("stats");
    assert_eq!(
        stats.keys as usize,
        pairs.len(),
        "no entry lost, no stale copy left"
    );
    assert_bit_identical(&mut router, &pairs, &expected);

    drop(model);
    for (runtime, server) in fleet_procs {
        server.shutdown();
        runtime.shutdown();
    }
}

/// REVIEW regression (medium): a leave whose drain fails partway must
/// roll back — the leaver re-enters the ring with its entries intact and
/// nothing is stranded (previously the remaining items were silently
/// dropped with the leaver already out of the ring).
#[test]
fn failed_leave_drain_rolls_back_and_loses_nothing() {
    let (mut router, fleet_procs, flags, pairs, expected, model) = flaky_cluster(23, 3);

    // Every potential receiver refuses `insert`: the drain cannot land.
    for (fail_insert, _, _) in &flags {
        fail_insert.store(true, Ordering::Relaxed);
    }
    let error = router.leave(1).expect_err("the drain cannot land anywhere");
    assert!(
        matches!(error, HdcError::Transport(_)),
        "expected the injected transport error, got {error:?}"
    );

    // Rolled back: the leaver is still a routable member and every
    // prediction still lands (inject faults only hit writes).
    assert_eq!(router.shard_ids(), vec![0, 1, 2]);
    assert_bit_identical(&mut router, &pairs, &expected);

    // Heal and retry: the leave now completes, the deferred duplicates
    // are flushed first, and no entry was lost in the round trip.
    for (fail_insert, _, _) in &flags {
        fail_insert.store(false, Ordering::Relaxed);
    }
    let (removed, drained) = router.leave(1).expect("leave after heal");
    assert!(removed);
    assert_eq!(router.shard_ids(), vec![0, 2]);
    assert_eq!(router.deferred_cleanup(), 0);
    let stats = router.cluster_stats().expect("stats");
    assert_eq!(
        stats.keys as usize,
        pairs.len(),
        "drained {drained} entries all survived"
    );
    assert_bit_identical(&mut router, &pairs, &expected);

    drop(model);
    for (runtime, server) in fleet_procs {
        server.shutdown();
        runtime.shutdown();
    }
}

/// REVIEW regression (medium): a replicated fit that fails on one shard
/// must not silently break the bit-identity invariant. The failed shard
/// is marked lagging, skipped by further fits, and healed from a healthy
/// peer's trainer snapshot before the next refresh publishes — after
/// which the cluster answers bit-identically to an unsharded model that
/// saw the same observations. A fit no shard accepted is reported and
/// safe to retry.
#[test]
fn partial_fit_failure_marks_lagging_and_heals_before_refresh() {
    let seed = 37;
    let (mut router, fleet_procs, flags, pairs, _, model) = flaky_cluster(seed, 2);

    // Two extra observations arrive while shard 1 is flaking on fit.
    let extra_inputs = [Radians::periodic(3.0, 24.0), Radians::periodic(21.0, 24.0)];
    let extra_labels = [0usize, 1usize];
    flags[1].2.store(true, Ordering::Relaxed);
    for (input, &label) in extra_inputs.iter().zip(&extra_labels) {
        let hv = model.encode(input);
        router
            .fit_encoded(&hv, label)
            .expect("the reachable shard accepted the observation");
    }
    assert_eq!(router.lagging_shards(), vec![1]);

    // A fit **no** shard accepts is an error and marks nothing: the
    // cluster is unchanged, so the caller can retry without double-fits.
    flags[0].2.store(true, Ordering::Relaxed);
    let hv = model.encode(&extra_inputs[0]);
    assert!(router.fit_encoded(&hv, 0).is_err());
    assert_eq!(router.lagging_shards(), vec![1], "nothing newly marked");
    flags[0].2.store(false, Ordering::Relaxed);

    // Refresh heals the laggard from the healthy donor's trainer
    // snapshot, then publishes everywhere.
    router.refresh().expect("resync + publish");
    assert!(router.lagging_shards().is_empty());

    // Reference: the unsharded model after the same two observations.
    let mut reference = trained_model(seed);
    reference
        .fit_batch(&extra_inputs, &extra_labels)
        .expect("valid observations");
    let inputs: Vec<Radians> = (0..pairs.len()).map(|i| Radians(i as f64 * 0.19)).collect();
    let queries = reference.encode_batch(&inputs);
    let expected = reference.predict_encoded(&queries);
    assert_bit_identical(&mut router, &pairs, &expected);

    for (runtime, server) in fleet_procs {
        server.shutdown();
        runtime.shutdown();
    }
}

/// Membership opcodes are answered by the right tier: a shard runtime
/// refuses `shard_join`, and the cluster front-end refuses raw `snapshot`
/// (that belongs to shards).
#[test]
fn membership_opcodes_are_tier_checked() {
    let (runtime, server) = spawn_shard(trained_model(5), "solo");
    let mut shard_client = BlockingClient::connect(server.local_addr()).expect("connect");
    assert!(
        shard_client.shard_join("127.0.0.1:1").is_err(),
        "a shard runtime does not answer cluster membership"
    );

    let shard = RemoteShard::connect_with(&server.local_addr().to_string(), test_client_config())
        .expect("loopback connect");
    let router =
        ClusterRouter::new(vec![Box::new(shard)], RingConfig::default(), 0).expect("valid cluster");
    let front =
        ClusterServer::spawn("127.0.0.1:0", router, test_client_config()).expect("ephemeral port");
    let mut cluster_client = BlockingClient::connect(front.local_addr()).expect("connect");
    assert!(
        cluster_client.snapshot().is_err(),
        "snapshot streaming is shard-tier, not router-tier"
    );
    // The last shard refuses to leave: the cluster stays serveable.
    assert_eq!(cluster_client.shard_leave(0).expect("answered"), (false, 0));
    let (generation, _) = cluster_client.ping().expect("cluster ping");
    assert_eq!(generation, 0);

    drop(cluster_client);
    let _router = front.shutdown();
    server.shutdown();
    runtime.shutdown();
}

/// A [`ShardBackend`] decorator that sleeps before every query, fit,
/// stats and ping call — a stand-in for a shard one slow network hop
/// away. The sleeps are what let the tests below *measure* whether the
/// router overlaps its per-shard waits.
struct SlowShard {
    inner: Box<dyn ShardBackend>,
    delay: Duration,
}

impl SlowShard {
    fn pause(&self) {
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
    }
}

impl ShardBackend for SlowShard {
    fn describe(&self) -> String {
        format!("slow({})", self.inner.describe())
    }

    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError> {
        self.pause();
        self.inner.answer(pairs)
    }

    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError> {
        self.inner.insert(key, hv)
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        self.inner.remove(key)
    }

    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        self.pause();
        self.inner.observe(hv, target)
    }

    fn refresh(&mut self) -> Result<u64, HdcError> {
        self.inner.refresh()
    }

    fn stats(&mut self) -> Result<hdc::RuntimeStats, HdcError> {
        self.pause();
        self.inner.stats()
    }

    fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        self.pause();
        self.inner.ping()
    }

    fn snapshot(&mut self) -> Result<hdc::Snapshot, HdcError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &hdc::Snapshot) -> Result<u64, HdcError> {
        self.inner.restore(snapshot)
    }
}

/// A 3-shard cluster of in-process runtimes behind [`SlowShard`]
/// decorators, plus a query batch guaranteed to involve all three shards
/// and the unsharded model's (bit-exact) expected labels.
#[allow(clippy::type_complexity)]
fn slow_cluster(
    delay: Duration,
) -> (
    ClusterRouter,
    Vec<Runtime<Radians>>,
    Vec<(String, BinaryHypervector)>,
    Vec<usize>,
) {
    let model = trained_model(5);
    let inputs: Vec<Radians> = (0..24).map(|i| Radians(f64::from(i) * 0.26)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    let pairs: Vec<(String, BinaryHypervector)> = (0..inputs.len())
        .map(|i| format!("slow-key-{i}"))
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    let runtimes: Vec<Runtime<Radians>> = (0..3)
        .map(|i| {
            Runtime::spawn(trained_model(5), shard_config(&format!("slow-{i}")))
                .expect("valid runtime")
        })
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = runtimes
        .iter()
        .map(|runtime| {
            Box::new(SlowShard {
                inner: Box::new(LocalShard::new(runtime.handle())),
                delay,
            }) as Box<dyn ShardBackend>
        })
        .collect();
    let router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    let involved: std::collections::BTreeSet<usize> =
        pairs.iter().map(|(key, _)| router.shard_of(key)).collect();
    assert_eq!(involved.len(), 3, "batch must span all three shards");
    (router, runtimes, pairs, expected)
}

/// With one slow hop per shard, the router pays the slowest shard's wait
/// once — not the sum — for replicated fits, stats and ping alike, and a
/// batch predict, which one shard answers, pays one wait. (Sleeps overlap
/// even on one core, which is exactly the transport-bound regime the
/// fan-out targets.)
#[test]
fn concurrent_fan_out_overlaps_shard_waits() {
    let delay = Duration::from_millis(60);
    let budget = 3 * delay; // what paying the shards one by one costs
    let (mut router, runtimes, pairs, expected) = slow_cluster(delay);

    let start = std::time::Instant::now();
    assert_bit_identical(&mut router, &pairs, &expected);
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget,
        "a read must not pay every shard's wait: {elapsed:?} >= {budget:?}"
    );

    // Replicated fits fan out to all three shards concurrently too.
    let fit_start = std::time::Instant::now();
    router.fit_encoded(&pairs[0].1, 1).expect("replicated fit");
    assert!(
        fit_start.elapsed() < budget,
        "replicate must overlap shard waits"
    );

    // Stats and ping probes reuse the same concurrent path.
    let stats_start = std::time::Instant::now();
    let per_shard = router.shard_stats().expect("stats");
    assert_eq!(per_shard.len(), 3);
    assert!(
        stats_start.elapsed() < budget,
        "stats must overlap shard waits"
    );
    let ping_start = std::time::Instant::now();
    router.ping().expect("ping");
    assert!(
        ping_start.elapsed() < budget,
        "ping must overlap shard waits"
    );

    drop(router);
    for runtime in runtimes {
        runtime.shutdown();
    }
}

/// A [`ShardBackend`] decorator counting `answer` calls on a counter every
/// shard of a cluster shares.
struct CountingShard {
    inner: Box<dyn ShardBackend>,
    answers: Arc<AtomicUsize>,
}

impl ShardBackend for CountingShard {
    fn describe(&self) -> String {
        format!("counting({})", self.inner.describe())
    }

    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError> {
        self.answers.fetch_add(1, Ordering::Relaxed);
        self.inner.answer(pairs)
    }

    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError> {
        self.inner.insert(key, hv)
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        self.inner.remove(key)
    }

    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        self.inner.observe(hv, target)
    }

    fn refresh(&mut self) -> Result<u64, HdcError> {
        self.inner.refresh()
    }

    fn stats(&mut self) -> Result<hdc::RuntimeStats, HdcError> {
        self.inner.stats()
    }

    fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        self.inner.ping()
    }

    fn snapshot(&mut self) -> Result<hdc::Snapshot, HdcError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &hdc::Snapshot) -> Result<u64, HdcError> {
        self.inner.restore(snapshot)
    }
}

/// Keys only place items: a read whose keys span all three shards is one
/// `answer` call, its rows match the unsharded model and carry one
/// generation, and an empty read still names the task. Shard 1 publishes
/// an extra generation of the same weights first, so a read split over
/// the shards would carry two generation ids.
#[test]
fn one_shard_answers_each_cluster_read() {
    let model = trained_model(5);
    let inputs: Vec<Radians> = (0..24).map(|i| Radians(f64::from(i) * 0.26)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    let pairs: Vec<(String, BinaryHypervector)> = (0..inputs.len())
        .map(|i| format!("read-key-{i}"))
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    let runtimes: Vec<Runtime<Radians>> = (0..3)
        .map(|i| {
            Runtime::spawn(trained_model(5), shard_config(&format!("count-{i}")))
                .expect("valid runtime")
        })
        .collect();
    assert_eq!(runtimes[1].handle().refresh().expect("refresh"), 1);
    let answers = Arc::new(AtomicUsize::new(0));
    let backends: Vec<Box<dyn ShardBackend>> = runtimes
        .iter()
        .map(|runtime| {
            Box::new(CountingShard {
                inner: Box::new(LocalShard::new(runtime.handle())),
                answers: Arc::clone(&answers),
            }) as Box<dyn ShardBackend>
        })
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    let owners: std::collections::BTreeSet<usize> =
        pairs.iter().map(|(key, _)| router.shard_of(key)).collect();
    assert_eq!(owners.len(), 3, "the read must span all three shards");

    let served = router.predict_batch(&pairs).expect("served");
    assert_eq!(
        answers.load(Ordering::Relaxed),
        1,
        "one shard call per read"
    );
    assert_eq!(served.iter().map(|p| p.label).collect::<Vec<_>>(), expected);
    assert!(
        served.iter().all(|p| p.generation == served[0].generation),
        "one shard's generation answers every row"
    );

    let empty = router.answer(&[]).expect("served");
    assert!(matches!(&empty, Answers::Labels(labels) if labels.is_empty()));
    assert_eq!(answers.load(Ordering::Relaxed), 2);

    drop(router);
    for runtime in runtimes {
        runtime.shutdown();
    }
}

/// A remote shard answers a request of more rows than one frame carries
/// (1024) in several frames, appended in input order: 2,500 rows take
/// three frames, and every label matches the unsharded model.
#[test]
fn remote_shard_answers_requests_over_many_frames() {
    let model = trained_model(13);
    let inputs: Vec<Radians> = (0..2_500).map(|i| Radians(f64::from(i) * 0.007)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    let pairs: Vec<(String, BinaryHypervector)> = (0..inputs.len())
        .map(|i| format!("frame-key-{i}"))
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();

    let (runtime, server) = spawn_shard(trained_model(13), "frames");
    let mut shard =
        RemoteShard::connect_with(&server.local_addr().to_string(), test_client_config())
            .expect("loopback connect");
    let answers = shard.answer(pairs).expect("served");
    let labels = answers.into_labels().expect("a classifier answers labels");
    assert_eq!(labels.iter().map(|p| p.label).collect::<Vec<_>>(), expected);

    server.shutdown();
    runtime.shutdown();
}
