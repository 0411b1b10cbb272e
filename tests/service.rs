//! End-to-end tests of the serving runtime and its framed-TCP front-end.
//!
//! Two acceptance criteria live here:
//!
//! * **Wire bit-identity** — predictions served over the loopback TCP
//!   protocol are bit-identical to calling the trained `Model` (and the
//!   `ShardedModel`) directly, including under concurrent clients whose
//!   requests coalesce into shared micro-batches.
//! * **Generation integrity** — under concurrent online fitting and
//!   predicting, every reader observes a *complete* class-vector
//!   generation (bit-identical to the classifier deterministically
//!   recomputed for that generation id — never a torn mix of two), and
//!   generation ids are monotonically non-decreasing per reader.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hdc::core::TieBreak;
use hdc::learn::CentroidTrainer;
use hdc::serve::wire::{self, Request, Response, PROTOCOL_VERSION};
use hdc::serve::Radians;
use hdc::{
    Answers, Basis, BatchPolicy, BinaryHypervector, BlockingClient, ClientConfig, ClusterRouter,
    ClusterServer, Enc, LocalShard, Model, Pipeline, RingConfig, Runtime, RuntimeConfig, Server,
    ShardBackend, ShardedModel, Target,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// A small trained angle pipeline (day/night over the 24-hour circle).
/// Deterministic per seed, so two calls yield bit-identical models.
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

fn serving_config(shards: usize, max_batch: usize) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        policy: BatchPolicy { max_batch },
        refresh_every: 0,
        ..RuntimeConfig::default()
    }
}

/// Acceptance criterion: the loopback service answers bit-identically to
/// the direct model, for single predictions, batches, and concurrent
/// clients sharing the runtime's micro-batches.
#[test]
fn framed_tcp_predictions_are_bit_identical_to_the_direct_model() {
    let model = trained_model(512, 11);
    let inputs: Vec<Radians> = (0..60).map(|i| Radians(f64::from(i) * 0.11)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&queries);
    // The sharded fleet agrees with the model, and the service must agree
    // with both.
    let keys: Vec<String> = (0..inputs.len()).map(|i| format!("user-{i}")).collect();
    let fleet: ShardedModel<String> = ShardedModel::from_model(&model, 3, 0).expect("valid fleet");
    assert_eq!(
        fleet.predict_batch(&keys, &queries).expect("routable"),
        expected
    );

    // Same seed + training → a bit-identical model for the runtime to own.
    let runtime =
        Runtime::spawn(trained_model(512, 11), serving_config(3, 16)).expect("valid runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    let addr = server.local_addr();

    // One client, one request frame per query.
    let mut client = BlockingClient::connect(addr).expect("loopback connect");
    for ((key, row), &label) in keys.iter().zip(queries.rows()).zip(&expected) {
        let prediction = client
            .predict(key, &row.to_hypervector())
            .expect("served prediction");
        assert_eq!(prediction.label, label, "key {key}");
        assert_eq!(prediction.generation, 0);
    }
    // One client, one batch frame.
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();
    let batched = client.predict_batch(pairs.clone()).expect("served batch");
    assert_eq!(
        batched.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected
    );

    // Four concurrent clients: their frames interleave on the queue and
    // coalesce into shared micro-batches; answers must not change.
    let pairs = Arc::new(pairs);
    let expected = Arc::new(expected);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let pairs = Arc::clone(&pairs);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut client = BlockingClient::connect(addr).expect("loopback connect");
                for ((key, hv), &label) in pairs.iter().zip(expected.iter()) {
                    let prediction = client.predict(key, hv).expect("served prediction");
                    assert_eq!(prediction.label, label, "key {key}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // insert/remove/stats drive the item-memory and metrics paths.
    assert!(!client
        .insert("user-0", &queries.to_hypervector(0))
        .expect("insert"));
    assert!(client
        .insert("user-0", &queries.to_hypervector(1))
        .expect("re-insert"));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.dim, 512);
    assert_eq!(stats.classes, 2);
    assert_eq!(stats.keys, 1);
    assert_eq!(stats.shard_loads.len(), 3);
    assert_eq!(stats.generation, 0);
    // 60 singles + 60 batch rows + 4×60 concurrent singles.
    assert_eq!(stats.metrics.requests, 360);
    assert!(stats.metrics.batches > 0);
    assert!(stats.metrics.mean_batch_size >= 1.0);
    assert!(client.remove("user-0").expect("remove"));
    assert!(!client.remove("user-0").expect("second remove"));

    server.shutdown();
    runtime.shutdown();
}

/// Online learning over the wire: fit + refresh change predictions, the
/// generation id rises, and the trainer state survives shutdown.
#[test]
fn online_fit_over_the_wire_publishes_new_generations() {
    // Spawn an *untrained* pipeline and teach it entirely over TCP.
    let blank = Pipeline::builder(512)
        .seed(4)
        .classes(2)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    // A reference model encodes queries client-side (same seed → same
    // encoder) and predicts the expected labels after training.
    let reference = trained_model(512, 4);

    let runtime = Runtime::spawn(blank, serving_config(1, 8)).expect("valid runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    let mut client = BlockingClient::connect(server.local_addr()).expect("connect");

    let hours: Vec<Radians> = (0..48)
        .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
        .collect();
    for (i, hour) in hours.iter().enumerate() {
        client
            .fit(&reference.encode(hour), usize::from(i >= 24))
            .expect("fit ack");
    }
    let generation = client.refresh().expect("refresh");
    assert_eq!(generation, 1);

    // The service now agrees with the reference model trained on the same
    // 48 observations (same accumulators, same deterministic finalize).
    for hour in &hours {
        let prediction = client
            .predict("probe", &reference.encode(hour))
            .expect("served prediction");
        assert_eq!(prediction.label, reference.predict(hour));
        assert_eq!(prediction.generation, 1);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.metrics.fits, 48);

    server.shutdown();
    let (_, learner) = runtime.shutdown();
    assert_eq!(learner.as_classify().unwrap().counts(), &[24, 24]);
}

/// A small trained regression pipeline over the same daily circle
/// (hour-of-day as the real-valued label). Deterministic per seed.
fn trained_value_model(dim: usize, seed: u64) -> Model<Radians> {
    let mut model = Pipeline::builder(dim)
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

/// Acceptance criterion (PR 5): `predict_value` over framed TCP matches
/// direct `Model::predict_value` **exactly** (bit-identical f64s), for
/// single clients and for concurrent clients whose requests coalesce into
/// shared micro-batches — and the `ping` probe answers without issuing a
/// prediction.
#[test]
fn framed_tcp_value_predictions_are_bit_identical_to_the_direct_model() {
    let model = trained_value_model(512, 19);
    let inputs: Vec<Radians> = (0..60).map(|i| Radians(f64::from(i) * 0.11)).collect();
    let queries = model.encode_batch(&inputs);
    let expected = model.predict_values_encoded(&queries);
    let keys: Vec<String> = (0..inputs.len()).map(|i| format!("station-{i}")).collect();
    // The sharded fleet agrees with the model, and the service must agree
    // with both.
    let fleet: ShardedModel<String> = ShardedModel::from_model(&model, 3, 0).expect("valid fleet");
    assert_eq!(
        fleet.predict_values(&keys, &queries).expect("routable"),
        expected
    );

    let runtime =
        Runtime::spawn(trained_value_model(512, 19), serving_config(3, 16)).expect("valid runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    let addr = server.local_addr();

    // One client, one request frame per query.
    let mut client = BlockingClient::connect(addr).expect("loopback connect");
    for ((key, row), &value) in keys.iter().zip(queries.rows()).zip(&expected) {
        let prediction = client
            .predict_value(key, &row.to_hypervector())
            .expect("served value");
        assert_eq!(prediction.value, value, "key {key}");
        assert_eq!(prediction.generation, 0);
    }

    // The ping probe reports liveness without touching the queue: the
    // request counter must not move.
    let before = client.stats().expect("stats").metrics.requests;
    let (generation, uptime_us) = client.ping().expect("pong");
    assert_eq!(generation, 0);
    assert!(uptime_us > 0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.metrics.requests, before, "ping issued no prediction");
    assert_eq!(stats.classes, 0, "regression stats carry no class set");
    assert!(stats.uptime_us >= uptime_us);

    // Four concurrent clients: interleaved value frames coalesce into
    // shared micro-batches; answers must not change.
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(queries.rows().map(|row| row.to_hypervector()))
        .collect();
    let pairs = Arc::new(pairs);
    let expected = Arc::new(expected);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let pairs = Arc::clone(&pairs);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut client = BlockingClient::connect(addr).expect("loopback connect");
                for ((key, hv), &value) in pairs.iter().zip(expected.iter()) {
                    let prediction = client.predict_value(key, hv).expect("served value");
                    assert_eq!(prediction.value, value, "key {key}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // The one predict op is answered with values by a regression head.
    let Answers::Values(served) = client.answer(pairs.to_vec()).expect("served batch") else {
        panic!("a regression runtime answers with values");
    };
    assert_eq!(
        served.iter().map(|p| p.value).collect::<Vec<_>>(),
        *expected
    );
    // A label call against a regression runtime fails in-band; the
    // connection survives.
    assert!(client.predict("station-0", &pairs[0].1).is_err());
    assert!(client.fit(&pairs[0].1, 0).is_err());
    let (generation, _) = client.ping().expect("connection survived");
    assert_eq!(generation, 0);

    server.shutdown();
    let (_, learner) = runtime.shutdown();
    assert_eq!(learner.observed(), 48);
}

/// Online regression learning over the wire: `fit_value` + `refresh`
/// publish a generation whose served values equal the reference model
/// trained on the same observations.
#[test]
fn online_value_fit_over_the_wire_publishes_new_generations() {
    let blank = Pipeline::builder(512)
        .seed(23)
        .regression(0.0, 24.0, 24)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let reference = trained_value_model(512, 23);

    let runtime = Runtime::spawn(blank, serving_config(1, 8)).expect("valid runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    let mut client = BlockingClient::connect(server.local_addr()).expect("connect");

    let hours: Vec<Radians> = (0..48)
        .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
        .collect();
    for (i, hour) in hours.iter().enumerate() {
        client
            .fit_value(&reference.encode(hour), f64::from(i as u32) / 2.0)
            .expect("fit ack");
    }
    let generation = client.refresh().expect("refresh");
    assert_eq!(generation, 1);

    for hour in &hours {
        let prediction = client
            .predict_value("probe", &reference.encode(hour))
            .expect("served value");
        assert_eq!(prediction.value, reference.predict_value(hour));
        assert_eq!(prediction.generation, 1);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.metrics.fits, 48);
    let (generation, _) = client.ping().expect("pong");
    assert_eq!(generation, 1);

    server.shutdown();
    let (_, learner) = runtime.shutdown();
    assert_eq!(
        learner.as_regress().expect("regression learner").observed(),
        48
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance criterion: concurrent online fitting and predicting never
    /// exposes a torn classifier. Every `Generation` snapshot a reader
    /// takes must be bit-identical to the classifier deterministically
    /// recomputed from the first `id · refresh_every` observations, every
    /// served prediction must match that generation's classifier on its
    /// query, and ids must be monotonically non-decreasing per reader.
    #[test]
    fn concurrent_fit_and_predict_observe_only_complete_generations(
        seed in 0u64..500,
        refresh_every in 1usize..5,
        publishes in 2usize..6,
    ) {
        let dim = 256;
        let classes = 3;
        let blank = Pipeline::builder(dim)
            .seed(seed)
            .classes(classes)
            .encoder(Enc::angle())
            .build()
            .expect("valid pipeline");
        let config = RuntimeConfig {
            shards: 2,
            policy: BatchPolicy { max_batch: 4 },
            refresh_every,
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::spawn(blank, config).expect("valid runtime");
        let handle = runtime.handle();

        // The deterministic observation stream, and the expected classifier
        // of every generation id: generation g is the finalize of the first
        // g · refresh_every observations (generation 0 is the untrained
        // finalize the runtime was spawned with).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
        let total = refresh_every * publishes;
        let observations: Vec<(BinaryHypervector, usize)> = (0..total)
            .map(|i| (BinaryHypervector::random(dim, &mut rng), i % classes))
            .collect();
        let queries: Vec<BinaryHypervector> = (0..8)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut replica = CentroidTrainer::new(classes, dim).expect("valid trainer");
        let mut expected = vec![replica.finish_deterministic(TieBreak::Alternate)];
        for chunk in observations.chunks(refresh_every) {
            for (hv, label) in chunk {
                replica.observe(hv, *label).expect("valid label");
            }
            expected.push(replica.finish_deterministic(TieBreak::Alternate));
        }

        // Writer: feed the observations in order (one thread → the trainer
        // sees exactly the replica's order).
        let writer = {
            let handle = handle.clone();
            let observations = observations.clone();
            thread::spawn(move || {
                for (hv, label) in observations {
                    handle
                        .observe_encoded(hv, Target::Label(label))
                        .expect("runtime is live");
                }
            })
        };
        // Readers: interleave raw generation snapshots with served
        // predictions while training runs.
        let readers: Vec<_> = (0..2)
            .map(|reader| {
                let handle = handle.clone();
                let queries = queries.clone();
                thread::spawn(move || {
                    let mut snapshots = Vec::new();
                    let mut served = Vec::new();
                    for round in 0..20 {
                        snapshots.push(handle.generation());
                        let query = &queries[(reader + round) % queries.len()];
                        let prediction = handle
                            .predict_encoded_many(vec![(
                                format!("r{reader}-{round}"),
                                query.clone(),
                            )])
                            .expect("runtime is live")
                            .remove(0);
                        served.push(((reader + round) % queries.len(), prediction));
                    }
                    (snapshots, served)
                })
            })
            .collect();

        writer.join().expect("writer thread");
        let results: Vec<_> = readers
            .into_iter()
            .map(|reader| reader.join().expect("reader thread"))
            .collect();

        // Drain: after the writer is done the final generation must be the
        // last expected one (total / refresh_every publishes).
        let last = loop {
            let generation = handle.generation();
            if generation.id() == publishes as u64 {
                break generation;
            }
            prop_assert!(generation.id() < publishes as u64, "id overshot");
            thread::sleep(Duration::from_millis(1));
        };
        prop_assert_eq!(last.classifier(), &expected[publishes]);

        for (snapshots, served) in results {
            let mut previous = 0u64;
            for generation in snapshots {
                // Monotone, in range, and — the torn check — bit-identical
                // to the deterministic replay for that id.
                prop_assert!(generation.id() >= previous, "generation id went backwards");
                previous = generation.id();
                let id = usize::try_from(generation.id()).expect("small id");
                prop_assert!(id < expected.len(), "unknown generation id {id}");
                // The torn check: a partially swapped classifier would not
                // equal the deterministic replay of any single generation.
                prop_assert_eq!(generation.classifier(), &expected[id]);
            }
            let mut previous = 0u64;
            for (query_index, prediction) in served {
                prop_assert!(prediction.generation >= previous);
                previous = prediction.generation;
                let id = usize::try_from(prediction.generation).expect("small id");
                prop_assert!(id < expected.len());
                // A served label must match the complete generation that
                // reported it.
                prop_assert_eq!(prediction.label, expected[id].predict(&queries[query_index]));
            }
        }
        runtime.shutdown();
    }
}

/// Frames a v5 peer no longer speaks — a retired opcode under the current
/// version byte (1, the v3 predict; 7 and 8, the v4 in-process reshard),
/// and any v3 or v4 frame — are answered in-band with an error by both
/// front-ends, and the connection carries on.
#[test]
fn retired_opcodes_and_v3_frames_are_refused_in_band() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    let runtime = Runtime::spawn(trained_model(256, 5), RuntimeConfig::default()).expect("runtime");
    let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
    let shard: Box<dyn ShardBackend> = Box::new(LocalShard::new(runtime.handle()));
    let router = ClusterRouter::new(vec![shard], RingConfig::default(), 0).expect("cluster");
    let front =
        ClusterServer::spawn("127.0.0.1:0", router, ClientConfig::default()).expect("front");

    for addr in [server.local_addr(), front.local_addr()] {
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let retired_op_1 = [0u8, 0, 0, 2, PROTOCOL_VERSION, 1];
        let retired_op_7 = [0u8, 0, 0, 2, PROTOCOL_VERSION, 7];
        let retired_op_8 = [0u8, 0, 0, 6, PROTOCOL_VERSION, 8, 0, 0, 0, 1];
        let v3_ping = [0u8, 0, 0, 2, 3, 12];
        let v3_empty_batch = [0u8, 0, 0, 4, 3, 2, 0, 0];
        let v4_ping = [0u8, 0, 0, 2, 4, 12];
        let v4_op_7 = [0u8, 0, 0, 2, 4, 7];
        let v4_empty_batch = [0u8, 0, 0, 4, 4, 2, 0, 0];
        for frame in [
            &retired_op_1[..],
            &retired_op_7,
            &retired_op_8,
            &v3_ping,
            &v3_empty_batch,
            &v4_ping,
            &v4_op_7,
            &v4_empty_batch,
        ] {
            stream.write_all(frame).expect("write");
            let response = wire::read_response(&mut reader).expect("answered");
            assert!(
                matches!(response, Some(Response::Error { .. })),
                "{frame:?} answered {response:?}"
            );
        }
        wire::write_request(&mut stream, &Request::Ping).expect("write");
        let response = wire::read_response(&mut reader).expect("connection survived");
        assert!(
            matches!(response, Some(Response::Pong { .. })),
            "{response:?}"
        );
    }

    let _router = front.shutdown();
    server.shutdown();
    runtime.shutdown();
}
