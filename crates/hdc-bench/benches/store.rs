//! Storage-layer benchmarks: what durability costs on the fit path, and
//! what paging costs on the item-memory read path.
//!
//! * **store_fit_path** — one online `fit` through the running
//!   [`Runtime`], d=10_000. The `volatile` row is the PR 4 contract: a
//!   fire-and-forget enqueue to the trainer, no acknowledgement. The
//!   `wal_*` rows are the durable contract: the call returns only after
//!   the record is in the write-ahead log under the named
//!   [`SyncPolicy`] — `never` prices the dispatcher round-trip plus the
//!   buffered append, `batch` adds one `fsync` per micro-batch (the
//!   default), `always` one `fsync` per record. The spread between
//!   `never` and `batch`/`always` is almost entirely the disk flush.
//! * **store_multi_writer** — the group-commit matrix: aggregate durable
//!   fit cost under [`SyncPolicy::Always`] with 1/4/16 concurrent writer
//!   threads × adaptive WAL compression on/off. Every writer that parks
//!   while a flush is in flight shares the next `fdatasync`.
//! * **store_wal_bytes** — WAL bytes appended per durable fit at
//!   d=10_000, raw vs adaptive record codec (the compression half of the
//!   durability story: how much log the same fit stream produces).
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
use hdc_serve::{Basis, Enc, Model, Pipeline, Runtime, RuntimeConfig};
use hdc_store::{DurabilityConfig, ItemStore, PagedStore, ResidentStore, SyncPolicy, WalCodec};
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
        ("wal_always", SyncPolicy::Always),
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

/// Multi-writer durable fit throughput under [`SyncPolicy::Always`]:
/// 1/4/16 concurrent writer threads × adaptive compression on/off. Each
/// writer blocks on its own acknowledgement; the flusher retires every
/// ticket parked while the previous `fdatasync` ran with one more. Timed
/// manually (criterion's `Bencher` drives one closure, not a thread
/// fleet) and printed in the same `ns/iter` shape — the ns/iter is
/// aggregate wall-clock over total fits, i.e. the inverse of
/// cluster-wide durable-fit throughput. The `_group_` in the ids keeps
/// them comparable with earlier runs, which also had a flusher-off arm.
fn bench_multi_writer(c: &mut Criterion) {
    let _ = c; // manual timing; keep the criterion_group! signature
    const FITS_PER_WRITER: usize = 64;
    let observations = hours();
    for writers in [1usize, 4, 16] {
        for (codec_name, codec) in [("raw", WalCodec::Raw), ("adaptive", WalCodec::Adaptive)] {
            let dir = scratch(&format!("mw-{writers}-{codec_name}"));
            let config = RuntimeConfig {
                durability: Some(DurabilityConfig {
                    sync: SyncPolicy::Always,
                    snapshot_every: 0,
                    segment_bytes: 64 << 20,
                    codec,
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
            let id = format!("store_multi_writer/fit_always/w{writers:02}_group_{codec_name}");
            println!("{id:<56} {ns:>12.1} ns/iter ({total} iters)");
        }
    }
}

/// WAL bytes appended per durable fit at d=10_000, raw vs adaptive codec.
/// The angle encoder revisits a small set of circular level vectors, so
/// the adaptive codec's dictionary turns most records into a few gap
/// varints; raw pays the full 1.25 KB hypervector every time. Measured
/// from the on-disk segment sizes after a fixed stream — printed as
/// bytes/fit (not ns).
fn bench_wal_bytes(c: &mut Criterion) {
    let _ = c; // manual measurement; keep the criterion_group! signature
    const FITS: usize = 256;
    let observations = hours();
    for (codec_name, codec) in [("raw", WalCodec::Raw), ("adaptive", WalCodec::Adaptive)] {
        let dir = scratch(&format!("bytes-{codec_name}"));
        let config = RuntimeConfig {
            durability: Some(DurabilityConfig {
                sync: SyncPolicy::EveryBatch,
                snapshot_every: 0,
                segment_bytes: 64 << 20,
                codec,
                ..DurabilityConfig::new(&dir)
            }),
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::spawn(blank(), config).expect("spawn");
        let handle = runtime.handle();
        for i in 0..FITS {
            handle
                .fit(&observations[i % 256], i % CLASSES)
                .expect("durable fit");
        }
        runtime.shutdown();
        let bytes: u64 = std::fs::read_dir(&dir)
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
        let per_fit = bytes as f64 / FITS as f64;
        let id = format!("store_wal_bytes/fit_d10k/{codec_name}");
        println!("{id:<56} {per_fit:>12.1} bytes/fit ({FITS} fits)");
    }
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
    bench_paged_get
);
criterion_main!(benches);
