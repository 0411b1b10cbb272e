//! Storage-layer benchmarks: what durability costs on the fit path, and
//! what paging costs on the item-memory read path.
//!
//! * **store_fit_path** — one online `fit` through the running
//!   [`Runtime`], d=10_000. The `volatile` row is the PR 4 contract: a
//!   fire-and-forget enqueue to the trainer, no acknowledgement. The
//!   `wal_*` rows are the durable contract: the call returns only after
//!   the record is in the write-ahead log under the named
//!   [`SyncPolicy`] — `never` prices the dispatcher round-trip plus the
//!   buffered append, `batch` (the default) adds one group `fdatasync`
//!   per flush. The spread between `never` and `batch` is almost
//!   entirely the disk flush.
//! * **store_multi_writer** — the group-commit matrix: aggregate durable
//!   fit cost under the default policy with 1/4/16 concurrent writer
//!   threads. Every writer that parks while a flush is in flight shares
//!   the next `fdatasync`.
//! * **store_wal_bytes** — WAL bytes per durable fit at d=10_000: the
//!   adaptive segments the log writes, against the plain frames of the
//!   same fit stream (the compression half of the durability story).
//! * **store_recovery** — a durable restart, timed from
//!   [`Runtime::spawn`] to the first answer, on a prepared store holding
//!   one installed snapshot and a log tail of about 3.6k value fits
//!   (d=10_000, a three-field record regressor): open the store, restore
//!   the snapshot, fold the tail, finalize the head. Timed manually over
//!   several restarts and printed as the median in the `ns/iter` shape.
//! * **store_paged_get** — item-memory reads at hot/cold key ratios:
//!   the in-RAM [`ResidentStore`] baseline vs a [`PagedStore`] holding
//!   2048 keys on a 256-entry cache budget (8× oversubscribed). `hot`
//!   cycles a working set that fits the cache (hit path: one HashMap
//!   probe + LRU tick), `cold` cycles uniformly over all keys (miss
//!   path: seek + read + decode + evict), `mix_90_10` blends them at
//!   the ratio a serving hot set actually sees.
//!
//! Both planes return bit-identical hypervectors — `tests/durability.rs`
//! proptests that equivalence; these benches price it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc_core::BinaryHypervector;
use hdc_encode::Radians;
use hdc_serve::{Basis, Enc, FieldSpec, Model, Pipeline, Runtime, RuntimeConfig};
use hdc_store::{DurabilityConfig, ItemStore, PagedStore, ResidentStore, SyncPolicy, WalRecord};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const DIM: usize = 10_000;
const CLASSES: usize = 16;

fn blank() -> Model<Radians> {
    Pipeline::builder(DIM)
        .seed(7)
        .classes(CLASSES)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid spec")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdc-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hours() -> Vec<Radians> {
    (0..256)
        .map(|i| Radians::periodic(f64::from(i) / 256.0 * 24.0, 24.0))
        .collect()
}

fn bench_fit_path(c: &mut Criterion) {
    let observations = hours();
    let mut group = c.benchmark_group("store_fit_path");

    {
        let runtime = Runtime::spawn(blank(), RuntimeConfig::default()).expect("spawn");
        let handle = runtime.handle();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("fit", "volatile"), &(), |b, ()| {
            b.iter(|| {
                i += 1;
                handle
                    .fit(black_box(&observations[i % 256]), i % CLASSES)
                    .expect("fit");
            });
        });
        runtime.shutdown();
    }

    for (name, sync) in [
        ("wal_never", SyncPolicy::Never),
        ("wal_batch", SyncPolicy::EveryBatch),
    ] {
        let dir = scratch(name);
        let config = RuntimeConfig {
            durability: Some(DurabilityConfig {
                sync,
                snapshot_every: 0,
                segment_bytes: 64 << 20,
                ..DurabilityConfig::new(&dir)
            }),
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::spawn(blank(), config).expect("spawn");
        let handle = runtime.handle();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("fit", name), &(), |b, ()| {
            b.iter(|| {
                i += 1;
                handle
                    .fit(black_box(&observations[i % 256]), i % CLASSES)
                    .expect("durable fit");
            });
        });
        runtime.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Multi-writer durable fit throughput under the default policy: 1/4/16
/// concurrent writer threads. Each writer blocks on its own
/// acknowledgement; the flusher retires every ticket parked while the
/// previous `fdatasync` ran with one more. Timed manually (criterion's
/// `Bencher` drives one closure, not a thread fleet) and printed in the
/// same `ns/iter` shape — the ns/iter is aggregate wall-clock over total
/// fits, i.e. the inverse of cluster-wide durable-fit throughput. The
/// `_group_adaptive` in the ids keeps them comparable with earlier runs,
/// which also had flusher-off and raw-codec arms; `fit_batch` runs the
/// schedule that their `fit_always` rows ran.
fn bench_multi_writer(c: &mut Criterion) {
    let _ = c; // manual timing; keep the criterion_group! signature
    const FITS_PER_WRITER: usize = 64;
    let observations = hours();
    for writers in [1usize, 4, 16] {
        let dir = scratch(&format!("mw-{writers}"));
        let config = RuntimeConfig {
            durability: Some(DurabilityConfig {
                snapshot_every: 0,
                segment_bytes: 64 << 20,
                ..DurabilityConfig::new(&dir)
            }),
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::spawn(blank(), config).expect("spawn");
        let handle = runtime.handle();
        // Warm the dispatcher, the flusher and the codec dict.
        for (i, hour) in observations.iter().enumerate().take(8) {
            handle.fit(hour, i % CLASSES).expect("warmup");
        }
        let started = Instant::now();
        std::thread::scope(|scope| {
            for writer in 0..writers {
                let handle = handle.clone();
                let observations = &observations;
                scope.spawn(move || {
                    for i in 0..FITS_PER_WRITER {
                        handle
                            .fit(
                                black_box(&observations[(writer * 37 + i) % 256]),
                                (writer + i) % CLASSES,
                            )
                            .expect("durable fit");
                    }
                });
            }
        });
        let elapsed = started.elapsed();
        runtime.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let total = writers * FITS_PER_WRITER;
        let ns = elapsed.as_nanos() as f64 / total as f64;
        let id = format!("store_multi_writer/fit_batch/w{writers:02}_group_adaptive");
        println!("{id:<56} {ns:>12.1} ns/iter ({total} iters)");
    }
}

/// WAL bytes per durable fit at d=10_000, plain frames vs the adaptive
/// codec. The angle encoder revisits a small set of circular level
/// vectors, so the adaptive codec's dictionary turns most records into a
/// few gap varints; a plain frame pays the full 1.25 KB hypervector every
/// time. `adaptive` is measured from the on-disk segment sizes after a
/// fixed stream (one 23-byte header included); `raw` sums the plain
/// frames (8-byte frame header plus [`WalRecord::encode`] payload) of the
/// same fits. Printed as bytes/fit (not ns).
fn bench_wal_bytes(c: &mut Criterion) {
    let _ = c; // manual measurement; keep the criterion_group! signature
    const FITS: usize = 256;
    let observations = hours();
    let model = blank();
    let raw: usize = (0..FITS)
        .map(|i| {
            let record = WalRecord::Fit {
                hv: model.encode(&observations[i % 256]),
                label: (i % CLASSES) as u64,
            };
            8 + record.encode().expect("encodable").len()
        })
        .sum();

    let dir = scratch("bytes");
    let config = RuntimeConfig {
        durability: Some(DurabilityConfig {
            snapshot_every: 0,
            segment_bytes: 64 << 20,
            ..DurabilityConfig::new(&dir)
        }),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::spawn(model, config).expect("spawn");
    let handle = runtime.handle();
    for i in 0..FITS {
        handle
            .fit(&observations[i % 256], i % CLASSES)
            .expect("durable fit");
    }
    runtime.shutdown();
    let adaptive: u64 = std::fs::read_dir(&dir)
        .expect("data dir")
        .map(|entry| entry.expect("entry"))
        .filter(|entry| {
            entry
                .file_name()
                .to_str()
                .is_some_and(|name| name.starts_with("wal-") && name.ends_with(".log"))
        })
        .map(|entry| entry.metadata().expect("metadata").len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    for (codec_name, bytes) in [("raw", raw as f64), ("adaptive", adaptive as f64)] {
        let per_fit = bytes / FITS as f64;
        let id = format!("store_wal_bytes/fit_d10k/{codec_name}");
        println!("{id:<56} {per_fit:>12.1} bytes/fit ({FITS} fits)");
    }
}

/// The regressor a recovery restarts: d=10_000, 64 label levels, a
/// (scalar, angle, angle) record, trained on 2048 rows.
fn regressor() -> Model<[f64]> {
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Vec<f64>> = (0..2_048)
        .map(|_| {
            vec![
                rng.random_range(0.0..4.0),
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(0.0..std::f64::consts::TAU),
            ]
        })
        .collect();
    let values: Vec<f64> = rows
        .iter()
        .map(|row| 10.0 * row[1].sin() + row[0])
        .collect();
    let mut model = Pipeline::builder(DIM)
        .seed(11)
        .regression(-12.0, 16.0, 64)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::record(vec![
            FieldSpec::scalar(0.0, 4.0),
            FieldSpec::angle(),
            FieldSpec::angle(),
        ]))
        .build()
        .expect("valid spec");
    model
        .fit_value_batch(rows.iter().map(Vec::as_slice), &values)
        .expect("training rows fit");
    model
}

/// Spawn to first answer on a store with one installed snapshot (at 4096
/// records, the default cadence) and a tail of 3_600 more records, the
/// shape a crash leaves behind. The store is written once; every restart
/// replays the same tail, since it only answers.
fn bench_recovery(c: &mut Criterion) {
    let _ = c; // manual timing; keep the criterion_group! signature
    const TAIL: usize = 3_600;
    const RESTARTS: usize = 15;
    let dir = scratch("recovery");
    let config = RuntimeConfig {
        durability: Some(DurabilityConfig {
            sync: SyncPolicy::Never,
            ..DurabilityConfig::new(&dir)
        }),
        ..RuntimeConfig::default()
    };
    let snapshot_every = DurabilityConfig::new(&dir).snapshot_every as usize;
    let mut rng = StdRng::seed_from_u64(12);
    let probe = [1.0, 2.0, 3.0];
    {
        let runtime = Runtime::spawn(regressor(), config.clone()).expect("spawn");
        let handle = runtime.handle();
        for _ in 0..snapshot_every + TAIL {
            let row = [
                rng.random_range(0.0..4.0),
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(0.0..std::f64::consts::TAU),
            ];
            handle
                .fit_value(&row[..], 10.0 * row[1].sin() + row[0])
                .expect("fit");
        }
        runtime.shutdown();
    }
    let mut times = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let model = regressor();
        let started = Instant::now();
        let runtime = Runtime::spawn(model, config.clone()).expect("recovery");
        let answer = runtime
            .handle()
            .predict_value("probe", &probe[..])
            .expect("first answer");
        times.push(started.elapsed().as_nanos() as f64);
        black_box(answer);
        runtime.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    times.sort_by(f64::total_cmp);
    let median = times[RESTARTS / 2];
    let id = format!("store_recovery/spawn_to_first_answer/tail_{TAIL}");
    println!("{id:<56} {median:>12.1} ns/iter (median of {RESTARTS} restarts)");
}

fn bench_paged_get(c: &mut Criterion) {
    const KEYS: usize = 2048;
    const BUDGET: usize = 256;
    const HOT: usize = 128;

    let mut rng = StdRng::seed_from_u64(0xB00C);
    let dir = scratch("paged");
    let mut paged = PagedStore::open(dir.join("items"), DIM, BUDGET).expect("open");
    let mut resident = ResidentStore::new();
    let keys: Vec<String> = (0..KEYS).map(|i| format!("user-{i:05}")).collect();
    for key in &keys {
        let hv = BinaryHypervector::random(DIM, &mut rng);
        paged.insert(key, &hv).expect("insert");
        resident.insert(key, &hv).expect("insert");
    }
    // A fixed shuffled visit order so `cold` touches keys uniformly but
    // reproducibly, defeating both the LRU cache and the branch predictor.
    let cold_order: Vec<usize> = {
        let mut order: Vec<usize> = (0..KEYS).collect();
        for i in (1..KEYS).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        order
    };

    let mut group = c.benchmark_group("store_paged_get");
    let mut i = 0usize;
    group.bench_with_input(BenchmarkId::new("get", "resident"), &(), |b, ()| {
        b.iter(|| {
            i += 1;
            black_box(resident.get(&keys[cold_order[i % KEYS]]).expect("get"));
        });
    });
    let mut i = 0usize;
    group.bench_with_input(BenchmarkId::new("get", "paged_hot"), &(), |b, ()| {
        b.iter(|| {
            i += 1;
            black_box(paged.get(&keys[i % HOT]).expect("get"));
        });
    });
    let mut i = 0usize;
    group.bench_with_input(BenchmarkId::new("get", "paged_cold"), &(), |b, ()| {
        b.iter(|| {
            i += 1;
            black_box(paged.get(&keys[cold_order[i % KEYS]]).expect("get"));
        });
    });
    let mut i = 0usize;
    group.bench_with_input(BenchmarkId::new("get", "paged_mix_90_10"), &(), |b, ()| {
        b.iter(|| {
            i += 1;
            let key = if i % 10 == 0 {
                &keys[cold_order[i % KEYS]]
            } else {
                &keys[i % HOT]
            };
            black_box(paged.get(key).expect("get"));
        });
    });
    group.finish();
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_fit_path,
    bench_multi_writer,
    bench_wal_bytes,
    bench_recovery,
    bench_paged_get
);
criterion_main!(benches);
