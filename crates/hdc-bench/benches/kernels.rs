//! Dispatched SIMD kernel backends head to head against the scalar
//! reference, record bundling through `i32` counters against the
//! bit-sliced bundle, and the trainers' batch fold both ways.
//!
//! Every backend the running CPU supports is benched through its
//! function-pointer table — the same tables `kernels::dispatch::selected`
//! publishes — so the numbers price exactly what the dispatch layer
//! swaps in. Outputs are bit-identical across backends (enforced by the
//! `kernel_dispatch` proptest suite and re-asserted here on one input);
//! the bench prices the ISA, never a different answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc_core::kernels::dispatch::{available, table, KernelTable};
use hdc_core::{kernels, BinaryHypervector, BitSlicedBundle, HvMut, MajorityAccumulator, TieBreak};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

/// One packed operand pair plus a counter slice, with clean tail words.
fn inputs(dim: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<i32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = BinaryHypervector::random(dim, &mut rng).as_words().to_vec();
    let b = BinaryHypervector::random(dim, &mut rng).as_words().to_vec();
    let counts: Vec<i32> = (0..dim)
        .map(|_| rng.random_range(-10_000..10_000))
        .collect();
    (a, b, counts)
}

fn bench_kernels_simd_vs_scalar(c: &mut Criterion) {
    let scalar = table(hdc_core::kernels::dispatch::Backend::Scalar).expect("scalar table");
    let backends: Vec<&'static KernelTable> = available()
        .into_iter()
        .map(|backend| table(backend).expect("available backend has a table"))
        .collect();

    let mut group = c.benchmark_group("kernels_simd_vs_scalar");
    for dim in [10_000usize, 65_536] {
        let (a, b, counts) = inputs(dim, 0x51AD);
        // One-shot agreement check so a parity regression fails the bench
        // run loudly instead of producing misleading numbers.
        for t in &backends {
            assert_eq!((t.hamming)(&a, &b), (scalar.hamming)(&a, &b));
            assert_eq!(
                (t.masked_sum)(&counts, &a, &b),
                (scalar.masked_sum)(&counts, &a, &b)
            );
        }

        for t in &backends {
            let name = t.backend.name();
            group.bench_with_input(
                BenchmarkId::new(format!("xor_into_{name}"), dim),
                &dim,
                |bencher, _| {
                    let mut dst = a.clone();
                    bencher.iter(|| (t.xor_into)(black_box(&mut dst), black_box(&b)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("count_ones_{name}"), dim),
                &dim,
                |bencher, _| bencher.iter(|| (t.count_ones)(black_box(&a))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("hamming_{name}"), dim),
                &dim,
                |bencher, _| bencher.iter(|| (t.hamming)(black_box(&a), black_box(&b))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("accumulate_{name}"), dim),
                &dim,
                |bencher, _| {
                    let mut acc = counts.clone();
                    bencher.iter(|| (t.accumulate)(black_box(&mut acc), black_box(&a), 3));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("dot_bipolar_{name}"), dim),
                &dim,
                |bencher, _| bencher.iter(|| (t.dot_bipolar)(black_box(&counts), black_box(&a))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("masked_sum_{name}"), dim),
                &dim,
                |bencher, _| {
                    bencher
                        .iter(|| (t.masked_sum)(black_box(&counts), black_box(&a), black_box(&b)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("majority_into_{name}"), dim),
                &dim,
                |bencher, _| {
                    let mut out = vec![0u64; dim.div_ceil(64)];
                    bencher.iter(|| {
                        (t.majority_into)(black_box(&counts), black_box(&mut out), &mut |i| {
                            i % 2 == 0
                        });
                    });
                },
            );
        }
    }
    group.finish();
}

/// One record's bundle, `Kᵢ ⊗ Vᵢ` over `n` fields, both ways: through
/// `i32` counters (zero, then per field `xor` + `accumulate` on the
/// dispatched backend, then `majority_into`) and through the bit-sliced
/// bundle the record encoders use. Both resolve ties with
/// `TieBreak::Alternate` and must agree bit for bit.
fn bench_bundle(c: &mut Criterion) {
    let dim = 10_000usize;
    let words = dim.div_ceil(64);
    let mut group = c.benchmark_group("bundle");
    for n in [3usize, 18] {
        let mut rng = StdRng::seed_from_u64(0xB0D1 + n as u64);
        let keys: Vec<_> = (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let values: Vec<_> = (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut counts = vec![0i32; dim];
        let mut bound = vec![0u64; words];
        let mut counter_out = vec![0u64; words];
        let mut counter_bundle = |out: &mut [u64]| {
            counts.fill(0);
            for (key, value) in keys.iter().zip(&values) {
                kernels::xor(key.as_words(), value.as_words(), &mut bound);
                kernels::accumulate(&mut counts, &bound, 1);
            }
            kernels::majority_into(&counts, out, |i| TieBreak::Alternate.bit(i));
        };
        let mut bundle = BitSlicedBundle::new(dim);
        let mut sliced_out = vec![0u64; words];
        let mut sliced_bundle = |out: &mut [u64]| {
            bundle.reset(dim);
            for (key, value) in keys.iter().zip(&values) {
                bundle.push_bound(key.view(), value.view());
            }
            bundle.finalize_into(TieBreak::Alternate, &mut HvMut::new(dim, out));
        };
        counter_bundle(&mut counter_out);
        sliced_bundle(&mut sliced_out);
        assert_eq!(sliced_out, counter_out, "n={n}: sliced bundle disagrees");

        group.bench_with_input(BenchmarkId::new("i32_counters", n), &n, |bencher, _| {
            bencher.iter(|| counter_bundle(black_box(&mut counter_out)));
        });
        group.bench_with_input(BenchmarkId::new("bit_sliced", n), &n, |bencher, _| {
            bencher.iter(|| sliced_bundle(black_box(&mut sliced_out)));
        });
    }

    // A trainer's batch fold of `n` rows into `i32` counters: one
    // dispatched `accumulate` per row, against counting the rows into a
    // bit-sliced bundle and adding it with one `accumulate` per plane
    // (`MajorityAccumulator::push_bundle`).
    for n in [256usize, 4_096] {
        let mut rng = StdRng::seed_from_u64(0xF01D + n as u64);
        let rows: Vec<_> = (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut per_row_acc = MajorityAccumulator::new(dim);
        let per_row = |acc: &mut MajorityAccumulator| {
            acc.clear();
            for row in &rows {
                acc.push_row(row.view());
            }
        };
        let mut bundle = BitSlicedBundle::new(dim);
        let mut bundled_acc = MajorityAccumulator::new(dim);
        let mut bundled = |acc: &mut MajorityAccumulator| {
            bundle.reset(dim);
            for row in &rows {
                bundle.push(row.view());
            }
            acc.clear();
            acc.push_bundle(&bundle);
        };
        per_row(&mut per_row_acc);
        bundled(&mut bundled_acc);
        assert_eq!(bundled_acc, per_row_acc, "n={n}: bundled fold disagrees");

        group.bench_with_input(BenchmarkId::new("fold_i32_per_row", n), &n, |bencher, _| {
            bencher.iter(|| per_row(black_box(&mut per_row_acc)));
        });
        group.bench_with_input(BenchmarkId::new("fold_bit_sliced", n), &n, |bencher, _| {
            bencher.iter(|| bundled(black_box(&mut bundled_acc)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels_simd_vs_scalar, bench_bundle);
criterion_main!(benches);
