//! Serving-layer benchmarks: consistent-hash routing, sharded vs unsharded
//! batched prediction, and the regression integer readout.
//!
//! * **serve_route** — grouping a keyed batch by owning shard (the pure
//!   routing overhead a fleet pays before any prediction runs).
//! * **serve_predict** — `ShardedModel::predict_batch` (route + per-shard
//!   sub-batches + per-shard `predict_rows` + merge) against the unsharded
//!   `predict_rows` baseline, at 1/2/4 shards. Outputs are bit-identical by
//!   construction; the delta is the cost of the serving indirection.
//! * **regression_readout** — `RegressionModel` integer-readout prediction.
//!   Since PR 3 the per-query score is computed by the fused
//!   `kernels::masked_signed_sum` walk with **zero** per-query heap
//!   allocations (the old path materialized a `Vec<i64>` of flipped
//!   counters per query); the bench tracks that hot path.
//! * **serve_microbatch** — the PR 4 runtime: 256 keyed predictions sent
//!   through the ingestion queue as requests of 1/16/256 rows, one after
//!   another, against the direct `predict_encoded` baseline. A request is
//!   one work item and one batch, so the delta at size 1 is the full
//!   per-request queue+reply round trip; larger requests amortize it.
//! * **serve_cluster** — the PR 6 multi-process tier: a 256-row keyed
//!   batch served by the direct model, the in-process 3-shard
//!   `ShardedModel`, a `ClusterRouter` over three in-process runtimes
//!   (`LocalShard`, queue cost but no wire), and a `ClusterRouter` over
//!   three loopback-TCP shard servers (`RemoteShard`, full wire frames).
//!   All four are bit-identical by construction; the deltas price the
//!   runtime queue and the TCP hop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc_core::{BinaryHypervector, HypervectorBatch};
use hdc_encode::{Radians, ScalarEncoder};
use hdc_learn::{CentroidClassifier, RegressionModel};
use hdc_serve::{Basis, Enc, Model, Pipeline, Runtime, RuntimeConfig, ShardedModel};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

const DIM: usize = 10_000;
const BATCH: usize = 256;
const CLASSES: usize = 16;

fn setup(rng: &mut StdRng) -> (CentroidClassifier, HypervectorBatch, Vec<String>) {
    let protos: Vec<BinaryHypervector> = (0..CLASSES)
        .map(|_| BinaryHypervector::random(DIM, rng))
        .collect();
    let classifier = CentroidClassifier::from_class_vectors(protos.clone()).expect("non-empty");
    let queries: Vec<BinaryHypervector> = (0..BATCH)
        .map(|i| protos[i % CLASSES].corrupt(0.25, rng))
        .collect();
    let arena = HypervectorBatch::from_vectors(&queries).expect("non-empty");
    let keys: Vec<String> = (0..BATCH).map(|i| format!("session-{i}")).collect();
    (classifier, arena, keys)
}

fn bench_route(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x5E12);
    let (classifier, _, keys) = setup(&mut rng);
    let fleet: ShardedModel<String> = ShardedModel::new(classifier, DIM, 4, 1).expect("valid");

    let mut group = c.benchmark_group("serve_route");
    group.bench_with_input(BenchmarkId::new("ring_lookup", BATCH), &keys, |b, keys| {
        b.iter(|| black_box(&fleet).route(black_box(keys)));
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x5E4E);
    let (classifier, arena, keys) = setup(&mut rng);

    let mut group = c.benchmark_group("serve_predict");
    group.bench_with_input(BenchmarkId::new("unsharded", BATCH), &arena, |b, arena| {
        b.iter(|| classifier.predict_rows(black_box(arena)));
    });
    for shards in [1usize, 2, 4] {
        let fleet: ShardedModel<String> =
            ShardedModel::new(classifier.clone(), DIM, shards, 1).expect("valid");
        assert_eq!(
            fleet.predict_batch(&keys, &arena).expect("routable"),
            classifier.predict_rows(&arena),
            "sharded serving must stay bit-identical"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("sharded_{shards}"), BATCH),
            &arena,
            |b, arena| {
                b.iter(|| {
                    black_box(&fleet)
                        .predict_batch(black_box(&keys), black_box(arena))
                        .expect("routable")
                });
            },
        );
    }
    group.finish();
}

fn bench_regression_readout(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x4EAD);
    let input = ScalarEncoder::with_levels(0.0, 1.0, 64, DIM, &mut rng).expect("valid");
    let label = ScalarEncoder::with_levels(0.0, 1.0, 64, DIM, &mut rng).expect("valid");
    let model = RegressionModel::fit(
        (0..200).map(|i| {
            let x = i as f64 / 199.0;
            (input.encode(x), x)
        }),
        label,
        &mut rng,
    )
    .expect("valid");
    let queries: Vec<BinaryHypervector> = (0..64)
        .map(|i| input.encode(i as f64 / 63.0).corrupt(0.05, &mut rng))
        .collect();
    let arena = HypervectorBatch::from_vectors(&queries).expect("non-empty");

    let mut group = c.benchmark_group("regression_readout");
    group.bench_with_input(
        BenchmarkId::new("integer_predict_rows", queries.len()),
        &arena,
        |b, arena| {
            b.iter(|| black_box(&model).predict_rows(black_box(arena)));
        },
    );
    group.finish();
}

/// The readout kernels head to head, outside the model: the pre-PR 3 path
/// (materialize a flipped `Vec<i64>` per query, then sum it over each
/// label's set bits) against the PR 3 scheme (per-label counter sums
/// precomputed once at model build, one `kernels::masked_sum` intersection
/// walk per label at query time). Same integer scores, zero per-query
/// allocations, and only the `L ∧ q` bits (≈ d/4) visited per label.
fn bench_readout_kernels(c: &mut Criterion) {
    use hdc_core::{kernels, MajorityAccumulator};

    let mut rng = StdRng::seed_from_u64(0x4EA2);
    let labels: Vec<BinaryHypervector> = (0..64)
        .map(|_| BinaryHypervector::random(DIM, &mut rng))
        .collect();
    let mut acc = MajorityAccumulator::new(DIM);
    for _ in 0..200 {
        acc.push(&BinaryHypervector::random(DIM, &mut rng));
    }
    let counts = acc.counts().to_vec();
    let query = BinaryHypervector::random(DIM, &mut rng);

    let flip_then_sum = |query: &BinaryHypervector| -> i64 {
        let mut signed: Vec<i64> = counts.iter().map(|&c| i64::from(c)).collect();
        kernels::for_each_set_bit(query.as_words(), |i| signed[i] = -signed[i]);
        labels
            .iter()
            .map(|label| {
                let mut sum = 0i64;
                kernels::for_each_set_bit(label.as_words(), |i| sum += signed[i]);
                sum
            })
            .max()
            .expect("non-empty labels")
    };
    // The query-independent half of the score, precomputed exactly as
    // `RegressionTrainer::finish_with` does.
    let label_sums: Vec<i64> = labels
        .iter()
        .map(|label| {
            let mut sum = 0i64;
            kernels::for_each_set_bit(label.as_words(), |i| sum += i64::from(counts[i]));
            sum
        })
        .collect();
    let intersection_walk = |query: &BinaryHypervector| -> i64 {
        labels
            .iter()
            .zip(&label_sums)
            .map(|(label, &label_sum)| {
                label_sum - 2 * kernels::masked_sum(&counts, label.as_words(), query.as_words())
            })
            .max()
            .expect("non-empty labels")
    };
    assert_eq!(
        flip_then_sum(&query),
        intersection_walk(&query),
        "kernels must agree"
    );

    let mut group = c.benchmark_group("readout_kernel");
    group.bench_with_input(
        BenchmarkId::new("flip_then_sum", labels.len()),
        &query,
        |b, query| b.iter(|| flip_then_sum(black_box(query))),
    );
    group.bench_with_input(
        BenchmarkId::new("precomputed_masked_sum", labels.len()),
        &query,
        |b, query| b.iter(|| intersection_walk(black_box(query))),
    );
    group.finish();
}

/// The PR 7 coarse-to-fine value readout against the exhaustive
/// per-label walk it replaces. Both paths are bit-identical (asserted
/// below and property-tested in `end_to_end_regression`); the pruned
/// path pays one coarse prefix pass over every label, then either a
/// margin-certified shortlist walk or one chain-incremental sweep of the
/// tail — instead of `levels` full masked-sum walks per query.
fn bench_value_readout_pruned(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x9A0E);
    let input = ScalarEncoder::with_levels(0.0, 1.0, 64, DIM, &mut rng).expect("valid");
    let label = ScalarEncoder::with_levels(0.0, 1.0, 64, DIM, &mut rng).expect("valid");
    let model = RegressionModel::fit(
        (0..200).map(|i| {
            let x = i as f64 / 199.0;
            (input.encode(x), x)
        }),
        label,
        &mut rng,
    )
    .expect("valid");
    assert!(
        model.is_pruned(),
        "a d=10k, 64-level model must clear the pruning gate"
    );
    let queries: Vec<BinaryHypervector> = (0..64)
        .map(|i| input.encode(i as f64 / 63.0).corrupt(0.05, &mut rng))
        .collect();
    for query in &queries {
        assert_eq!(
            model.predict(query),
            model.predict_row_full(query.view()),
            "pruned readout must stay bit-identical"
        );
    }

    let mut group = c.benchmark_group("value_readout_pruned");
    group.bench_with_input(
        BenchmarkId::new("full_walk", queries.len()),
        &queries,
        |b, queries| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| black_box(&model).predict_row_full(black_box(q).view()))
                    .sum::<f64>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("coarse_to_fine", queries.len()),
        &queries,
        |b, queries| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| black_box(&model).predict(black_box(q)))
                    .sum::<f64>()
            });
        },
    );
    group.finish();
}

/// Builds the trained angle model the runtime bench serves (deterministic
/// per seed, so every spawned runtime is bit-identical).
fn runtime_model() -> Model<Radians> {
    let mut model = Pipeline::builder(DIM)
        .seed(0x5EBE)
        .classes(CLASSES)
        .basis(Basis::Circular { m: 48, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let hours: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(i as f64 / 4.0, 24.0))
        .collect();
    let labels: Vec<usize> = (0..96).map(|i| i % CLASSES).collect();
    model
        .fit_batch(&hours, &labels)
        .expect("valid training set");
    model
}

/// 256 keyed rows through the runtime's ingestion queue as requests of
/// 1/16/256 rows, vs the direct batched predict. Rows/sec =
/// `BATCH / (ns_per_iter · 1e-9)`.
fn bench_microbatch(c: &mut Criterion) {
    let model = runtime_model();
    let inputs: Vec<Radians> = (0..BATCH)
        .map(|i| Radians::periodic(i as f64 * 0.173, 24.0))
        .collect();
    let arena = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&arena);
    let pairs: Vec<(String, BinaryHypervector)> = arena
        .rows()
        .enumerate()
        .map(|(i, row)| (format!("session-{i}"), row.to_hypervector()))
        .collect();

    let mut group = c.benchmark_group("serve_microbatch");
    group.bench_with_input(BenchmarkId::new("direct", BATCH), &arena, |b, arena| {
        b.iter(|| black_box(&model).predict_encoded(black_box(arena)));
    });
    let runtime = Runtime::spawn(
        runtime_model(),
        RuntimeConfig {
            shards: 4,
            refresh_every: 0,
            ..RuntimeConfig::default()
        },
    )
    .expect("valid runtime");
    let handle = runtime.handle();
    for size in [1usize, 16, 256] {
        let serve = |pairs: &[(String, BinaryHypervector)]| {
            pairs
                .chunks(size)
                .flat_map(|request| {
                    black_box(&handle)
                        .predict_encoded_many(request.to_vec())
                        .expect("runtime is live")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            serve(&pairs).iter().map(|p| p.label).collect::<Vec<_>>(),
            expected,
            "the runtime must stay bit-identical to the direct model"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("request_{size}"), BATCH),
            &pairs,
            |b, pairs| b.iter(|| serve(black_box(pairs))),
        );
    }
    group.finish();
    runtime.shutdown();
}

/// Builds the trained regression model the value-serving and snapshot
/// benches use (deterministic per seed).
fn value_model() -> Model<Radians> {
    let mut model = Pipeline::builder(DIM)
        .seed(0x5A1E)
        .regression(0.0, 24.0, 48)
        .basis(Basis::Circular { m: 48, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let hours: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(i as f64 / 4.0, 24.0))
        .collect();
    let values: Vec<f64> = (0..96).map(|i| i as f64 / 4.0).collect();
    model
        .fit_value_batch(&hours, &values)
        .expect("valid training set");
    model
}

/// The PR 5 regression serving path: 256 keyed `predict_value` rows
/// through the ingestion queue as requests of 1/16/256 rows, vs the
/// direct batched value predict. Same protocol as `serve_microbatch`, but
/// every answer is an integer-readout score over the label grid instead of
/// a nearest-class-vector search.
fn bench_value_microbatch(c: &mut Criterion) {
    let model = value_model();
    let inputs: Vec<Radians> = (0..BATCH)
        .map(|i| Radians::periodic(i as f64 * 0.173, 24.0))
        .collect();
    let arena = model.encode_batch(&inputs);
    let expected = model.predict_values_encoded(&arena);
    let pairs: Vec<(String, BinaryHypervector)> = arena
        .rows()
        .enumerate()
        .map(|(i, row)| (format!("station-{i}"), row.to_hypervector()))
        .collect();

    let mut group = c.benchmark_group("serve_value_microbatch");
    group.bench_with_input(BenchmarkId::new("direct", BATCH), &arena, |b, arena| {
        b.iter(|| black_box(&model).predict_values_encoded(black_box(arena)));
    });
    let runtime = Runtime::spawn(
        value_model(),
        RuntimeConfig {
            shards: 4,
            refresh_every: 0,
            ..RuntimeConfig::default()
        },
    )
    .expect("valid runtime");
    let handle = runtime.handle();
    for size in [1usize, 16, 256] {
        let serve = |pairs: &[(String, BinaryHypervector)]| {
            pairs
                .chunks(size)
                .flat_map(|request| {
                    black_box(&handle)
                        .predict_value_encoded_many(request.to_vec())
                        .expect("runtime is live")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            serve(&pairs).iter().map(|p| p.value).collect::<Vec<_>>(),
            expected,
            "the runtime must stay bit-identical to the direct model"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("request_{size}"), BATCH),
            &pairs,
            |b, pairs| b.iter(|| serve(black_box(pairs))),
        );
    }
    group.finish();
    runtime.shutdown();
}

/// The multi-process cluster tier against its in-process baselines: the
/// same 256-row keyed batch through the direct model, the in-process
/// 3-shard fleet, a router over three local runtimes, and a router over
/// three loopback-TCP shard servers. Every path must stay bit-identical —
/// the benchmark prices the routing indirection, never a different answer.
fn bench_cluster(c: &mut Criterion) {
    use hdc_serve::{ClusterRouter, LocalShard, RemoteShard, RingConfig, Server, ShardBackend};

    const SHARDS: usize = 3;
    let model = runtime_model();
    let inputs: Vec<Radians> = (0..BATCH)
        .map(|i| Radians::periodic(i as f64 * 0.173, 24.0))
        .collect();
    let arena = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&arena);
    let keys: Vec<String> = (0..BATCH).map(|i| format!("session-{i}")).collect();
    let pairs: Vec<(String, BinaryHypervector)> = keys
        .iter()
        .cloned()
        .zip(arena.rows().map(|row| row.to_hypervector()))
        .collect();

    let mut group = c.benchmark_group("serve_cluster");
    group.bench_with_input(BenchmarkId::new("direct", BATCH), &arena, |b, arena| {
        b.iter(|| black_box(&model).predict_encoded(black_box(arena)));
    });

    let fleet: ShardedModel<String> =
        ShardedModel::from_model(&model, SHARDS, 0).expect("valid fleet");
    assert_eq!(
        fleet.predict_batch(&keys, &arena).expect("routable"),
        expected,
        "the in-process fleet must stay bit-identical"
    );
    group.bench_with_input(
        BenchmarkId::new(format!("sharded_inproc_{SHARDS}"), BATCH),
        &arena,
        |b, arena| {
            b.iter(|| {
                black_box(&fleet)
                    .predict_batch(black_box(&keys), black_box(arena))
                    .expect("routable")
            });
        },
    );

    // Router over in-process runtimes: queue cost, no wire.
    let local_runtimes: Vec<_> = (0..SHARDS)
        .map(|i| {
            Runtime::spawn(
                runtime_model(),
                RuntimeConfig {
                    name: format!("local-{i}"),
                    refresh_every: 0,
                    ..RuntimeConfig::default()
                },
            )
            .expect("valid runtime")
        })
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = local_runtimes
        .iter()
        .map(|runtime| Box::new(LocalShard::new(runtime.handle())) as Box<dyn ShardBackend>)
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    let served = router.predict_batch(&pairs).expect("routable");
    assert_eq!(
        served.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected,
        "the local-shard cluster must stay bit-identical"
    );
    group.bench_with_input(
        BenchmarkId::new(format!("router_local_{SHARDS}"), BATCH),
        &pairs,
        |b, pairs| {
            b.iter(|| router.predict_batch(black_box(pairs)).expect("routable"));
        },
    );
    drop(router);

    // Router over loopback-TCP shard servers: full wire frames per hop.
    let remote_shards: Vec<_> = (0..SHARDS)
        .map(|i| {
            let runtime = Runtime::spawn(
                runtime_model(),
                RuntimeConfig {
                    name: format!("remote-{i}"),
                    refresh_every: 0,
                    ..RuntimeConfig::default()
                },
            )
            .expect("valid runtime");
            let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("ephemeral port");
            (runtime, server)
        })
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = remote_shards
        .iter()
        .map(|(_, server)| {
            let shard =
                RemoteShard::connect(&server.local_addr().to_string()).expect("loopback connect");
            Box::new(shard) as Box<dyn ShardBackend>
        })
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");
    let served = router.predict_batch(&pairs).expect("routable");
    assert_eq!(
        served.iter().map(|p| p.label).collect::<Vec<_>>(),
        expected,
        "the TCP cluster must stay bit-identical"
    );
    group.bench_with_input(
        BenchmarkId::new(format!("router_remote_{SHARDS}"), BATCH),
        &pairs,
        |b, pairs| {
            b.iter(|| router.predict_batch(black_box(pairs)).expect("routable"));
        },
    );
    group.finish();

    drop(router);
    for runtime in local_runtimes {
        runtime.shutdown();
    }
    for (runtime, server) in remote_shards {
        server.shutdown();
        runtime.shutdown();
    }
}

/// The PR 7 concurrent router fan-out against the serial mode it
/// replaces as the default: the same 256-row keyed batch through a
/// 3-`LocalShard` router with `FanOut::Serial` and `FanOut::Concurrent`.
/// Answers are bit-identical in both modes (asserted); the delta is the
/// overlap of the per-shard queue waits. On a single-core runner the
/// win is bounded by how much of each shard call is genuine waiting —
/// the loopback-TCP and multi-core cases are where it widens.
fn bench_router_concurrent(c: &mut Criterion) {
    use hdc_serve::{ClusterRouter, FanOut, LocalShard, RingConfig, ShardBackend};

    const SHARDS: usize = 3;
    let model = runtime_model();
    let inputs: Vec<Radians> = (0..BATCH)
        .map(|i| Radians::periodic(i as f64 * 0.173, 24.0))
        .collect();
    let arena = model.encode_batch(&inputs);
    let expected = model.predict_encoded(&arena);
    let pairs: Vec<(String, BinaryHypervector)> = arena
        .rows()
        .enumerate()
        .map(|(i, row)| (format!("session-{i}"), row.to_hypervector()))
        .collect();

    let runtimes: Vec<_> = (0..SHARDS)
        .map(|i| {
            Runtime::spawn(
                runtime_model(),
                RuntimeConfig {
                    name: format!("fanout-{i}"),
                    refresh_every: 0,
                    ..RuntimeConfig::default()
                },
            )
            .expect("valid runtime")
        })
        .collect();
    let backends: Vec<Box<dyn ShardBackend>> = runtimes
        .iter()
        .map(|runtime| Box::new(LocalShard::new(runtime.handle())) as Box<dyn ShardBackend>)
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), 0).expect("valid cluster");

    let mut group = c.benchmark_group("router_concurrent");
    for mode in [FanOut::Serial, FanOut::Concurrent] {
        router.set_fan_out(mode);
        let served = router.predict_batch(&pairs).expect("routable");
        assert_eq!(
            served.iter().map(|p| p.label).collect::<Vec<_>>(),
            expected,
            "fan-out mode must never change an answer"
        );
        let name = match mode {
            FanOut::Serial => "serial",
            FanOut::Concurrent => "concurrent",
        };
        group.bench_with_input(BenchmarkId::new(name, BATCH), &pairs, |b, pairs| {
            b.iter(|| router.predict_batch(black_box(pairs)).expect("routable"));
        });
    }
    group.finish();

    drop(router);
    for runtime in runtimes {
        runtime.shutdown();
    }
}

/// Snapshot durability costs: serializing a trained d=10k model to its
/// compact binary form, parsing it back, and the full
/// `Pipeline::from_snapshot` rebuild (parse + deterministic encoder
/// reconstruction + accumulator adoption + head refresh) — for both task
/// families. This is the price of one warm restart.
fn bench_snapshot(c: &mut Criterion) {
    use hdc_serve::Snapshot;

    let classify = runtime_model();
    let regress = value_model();
    let classify_snapshot = classify.snapshot();
    let regress_snapshot = regress.snapshot();
    let classify_bytes = classify_snapshot.to_bytes();
    let regress_bytes = regress_snapshot.to_bytes();

    let mut group = c.benchmark_group("snapshot");
    group.bench_with_input(
        BenchmarkId::new("save_classify", classify_bytes.len()),
        &classify,
        |b, model| b.iter(|| black_box(model).snapshot().to_bytes()),
    );
    group.bench_with_input(
        BenchmarkId::new("save_regress", regress_bytes.len()),
        &regress,
        |b, model| b.iter(|| black_box(model).snapshot().to_bytes()),
    );
    group.bench_with_input(
        BenchmarkId::new("parse_classify", classify_bytes.len()),
        &classify_bytes,
        |b, bytes| b.iter(|| Snapshot::from_bytes(black_box(bytes)).expect("valid snapshot")),
    );
    group.bench_with_input(
        BenchmarkId::new("load_classify", classify_bytes.len()),
        &classify_bytes,
        |b, bytes| {
            b.iter(|| {
                let snapshot = Snapshot::from_bytes(black_box(bytes)).expect("valid snapshot");
                Pipeline::from_snapshot::<Radians>(&snapshot).expect("valid model")
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("load_regress", regress_bytes.len()),
        &regress_bytes,
        |b, bytes| {
            b.iter(|| {
                let snapshot = Snapshot::from_bytes(black_box(bytes)).expect("valid snapshot");
                Pipeline::from_snapshot::<Radians>(&snapshot).expect("valid model")
            });
        },
    );
    group.finish();

    // The loads above must be warm-restart-exact, not just fast.
    let restored = Pipeline::from_snapshot::<Radians>(&classify_snapshot).expect("valid model");
    assert_eq!(restored.classifier(), classify.classifier());
    let restored = Pipeline::from_snapshot::<Radians>(&regress_snapshot).expect("valid model");
    let probe = Radians::periodic(9.5, 24.0);
    assert_eq!(
        restored.predict_value(&probe),
        regress.predict_value(&probe)
    );
}

criterion_group!(
    benches,
    bench_route,
    bench_predict,
    bench_regression_readout,
    bench_readout_kernels,
    bench_value_readout_pruned,
    bench_microbatch,
    bench_value_microbatch,
    bench_cluster,
    bench_router_concurrent,
    bench_snapshot
);
criterion_main!(benches);
