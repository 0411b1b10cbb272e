//! Property tests for the batched execution layer: every batch API must be
//! **bit-identical** to the per-sample loop it replaces — including at
//! dimensionalities that are not multiples of the 64-bit word size, for
//! batch sizes on both sides of the fork break-even (so both the
//! calling-thread path and the forked path are compared), and for
//! accumulators driven through subtraction-heavy sequences under every
//! [`TieBreak`] policy.

use hdc::basis::BasisKind;
use hdc::core::{similarity, BitSlicedBundle};
use hdc::encode::{Encoder, FeatureRecordEncoder, FieldSpec, ScalarEncoder};
use hdc::learn::{CentroidClassifier, CentroidTrainer, RegressionModel, RegressionTrainer};
use hdc::{BinaryHypervector, HypervectorBatch, MajorityAccumulator, TieBreak};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The batch size at which rows of `row_word_ops` each give two workers
/// their break-even share — below it a batch call never forks.
fn break_even_rows(row_word_ops: usize) -> usize {
    (2 * minipool::FORK_WORD_OPS).div_ceil(row_word_ops)
}

/// A batch size drawn as `side` (in `0..2`) times the break-even.
fn rows_around_break_even(side: f64, row_word_ops: usize) -> usize {
    (side * break_even_rows(row_word_ops) as f64) as usize
}

/// Runs the batch call `f` over `rows` rows and checks that it took the
/// forked path when the batch reached the break-even (with more than one
/// worker available) — so the parity assertions cover both paths.
fn batch_call<T>(rows: usize, row_word_ops: usize, f: impl FnOnce() -> T) -> T {
    let before = minipool::spawned();
    let out = f();
    if rows >= break_even_rows(row_word_ops) && minipool::max_threads() > 1 {
        assert!(minipool::spawned() > before, "{rows} rows did not fork");
    }
    out
}

proptest! {
    /// Batched encoding fills the arena with exactly the per-sample bits,
    /// for dimensions straddling word boundaries and batch sizes on both
    /// sides of the fork break-even.
    #[test]
    fn encode_batch_matches_per_sample(
        seed in 0u64..200,
        dim in 1usize..200,
        fields in 1usize..8,
        side in 0.0f64..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = vec![FieldSpec::scalar(0.0, 1.0); fields];
        let encoder =
            FeatureRecordEncoder::new(&specs, 8, dim, BasisKind::Level { randomness: 0.0 }, &mut rng)
                .unwrap();
        let n = rows_around_break_even(side, encoder.row_word_ops());
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..fields).map(|_| rng.random_range(-0.2f64..1.2)).collect())
            .collect();
        let batch = batch_call(n, encoder.row_word_ops(), || {
            encoder.encode_batch(rows.iter().map(Vec::as_slice))
        });
        prop_assert_eq!(batch.len(), n);
        prop_assert_eq!(batch.dim(), dim);
        for (row, x) in batch.rows().zip(&rows) {
            prop_assert_eq!(row.to_hypervector(), encoder.encode_hv(x.as_slice()));
        }
    }

    /// The arena round-trips owned hypervectors exactly at any dimension.
    #[test]
    fn arena_round_trip_is_lossless(seed in 0u64..200, dim in 1usize..300, n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let batch = HypervectorBatch::from_vectors(&items).unwrap();
        prop_assert_eq!(batch.to_vectors(), items);
    }

    /// Parallel classification (slice and arena forms) returns the same
    /// labels, in the same order, as the serial loop — for batch sizes on
    /// both sides of the fork break-even.
    #[test]
    fn predict_batch_matches_serial(
        seed in 0u64..100,
        dim in 960usize..1100,
        classes in 2usize..24,
        side in 0.0f64..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<BinaryHypervector> =
            (0..classes).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let train: Vec<(BinaryHypervector, usize)> = (0..classes * 6)
            .map(|i| (protos[i % classes].corrupt(0.2, &mut rng), i % classes))
            .collect();
        let model = CentroidClassifier::fit(
            train.iter().map(|(h, l)| (h, *l)), classes, dim, &mut rng).unwrap();
        let n = rows_around_break_even(side, model.row_word_ops());
        let queries: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();

        let serial: Vec<usize> = queries.iter().map(|q| model.predict(q)).collect();
        let row_word_ops = model.row_word_ops();
        prop_assert_eq!(
            batch_call(n, row_word_ops, || model.predict_batch_par(&queries)),
            serial.clone()
        );
        if n > 0 {
            let arena = HypervectorBatch::from_vectors(&queries).unwrap();
            prop_assert_eq!(batch_call(n, row_word_ops, || model.predict_rows(&arena)), serial);
        }
    }

    /// Parallel batch fitting adds per-worker bit-sliced bundles into
    /// exactly the serial counters, so with equal RNG streams the finished
    /// models match bit for bit — for batch sizes on both sides of the fork
    /// break-even (the fold is priced at `PUSH_WORD_OPS` per word).
    #[test]
    fn fit_batch_matches_serial_fit(
        seed in 0u64..100,
        dim in 1usize..300,
        classes in 1usize..5,
        side in 0.0f64..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let row_word_ops = dim.div_ceil(64) * BitSlicedBundle::PUSH_WORD_OPS;
        let n = rows_around_break_even(side, row_word_ops).max(1);
        let samples: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let labels: Vec<usize> = (0..samples.len()).map(|i| i % classes).collect();
        let batch = HypervectorBatch::from_vectors(&samples).unwrap();

        let mut serial = CentroidTrainer::new(classes, dim).unwrap();
        for (hv, &label) in samples.iter().zip(&labels) {
            serial.observe(hv, label).unwrap();
        }
        let mut batched = CentroidTrainer::new(classes, dim).unwrap();
        batch_call(n, row_word_ops, || batched.observe_batch(&batch, &labels)).unwrap();
        prop_assert_eq!(batched.counts(), serial.counts());

        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xAB);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xAB);
        prop_assert_eq!(batched.finish(&mut rng_a), serial.finish(&mut rng_b));
    }

    /// Subtraction-heavy accumulator sequences: the word-slice accumulate
    /// kernel agrees with a naive per-bit reference, and every `TieBreak`
    /// policy resolves the (frequent) zero counters identically.
    #[test]
    fn accumulator_parity_under_subtraction(
        seed in 0u64..300,
        dim in 1usize..200,
        ops in proptest::collection::vec(0usize..4, 1..24),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<BinaryHypervector> =
            (0..4).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let mut acc = MajorityAccumulator::new(dim);
        let mut reference = vec![0i64; dim];
        for (step, &op) in ops.iter().enumerate() {
            let hv = &pool[step % pool.len()];
            // Bias towards subtraction so exact ties are common.
            let weight: i32 = match op {
                0 => 1,
                1 => -1,
                2 => -2,
                _ => 3,
            };
            acc.push_weighted(hv, weight);
            for (i, bit) in hv.bits().enumerate() {
                reference[i] += i64::from(if bit { weight } else { -weight });
            }
        }
        for (i, &c) in acc.counts().iter().enumerate() {
            prop_assert_eq!(i64::from(c), reference[i]);
        }
        for tie in [TieBreak::Zero, TieBreak::One, TieBreak::Alternate] {
            let expected = BinaryHypervector::from_fn(dim, |i| match reference[i].cmp(&0) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => match tie {
                    TieBreak::Zero => false,
                    TieBreak::One => true,
                    TieBreak::Alternate => i % 2 == 0,
                },
            });
            prop_assert_eq!(acc.finalize(tie), expected);
        }
    }

    /// The flat `SimilarityMatrix` agrees with a naive per-pair reference
    /// (every entry, both triangles, unit diagonal).
    #[test]
    fn similarity_matrix_matches_naive_reference(seed in 0u64..100, n in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(257, &mut rng)).collect();
        let flat = similarity::pairwise_similarity_matrix(&items);
        prop_assert_eq!(flat.len(), n);
        for i in 0..n {
            for j in 0..n {
                let expected = if i == j { 1.0 } else { items[i].similarity(&items[j]) };
                prop_assert_eq!(flat.get(i, j), expected);
            }
        }
        // The nested copy-out keeps the exact same values, row for row.
        let nested = flat.to_nested();
        for (i, row) in nested.iter().enumerate() {
            prop_assert_eq!(row.as_slice(), flat.row(i));
        }
    }
}

/// Non-proptest check: parallel regression prediction and batched
/// observation are bit-identical to the serial loops on a realistic
/// encoder pipeline, just below, at and well above the fork break-even.
#[test]
fn regression_parallel_prediction_matches_serial() {
    let mut rng = StdRng::seed_from_u64(0x9E6);
    let input = ScalarEncoder::with_levels(0.0, 1.0, 32, 4_099, &mut rng).unwrap();
    let label = ScalarEncoder::with_levels(0.0, 1.0, 32, 4_099, &mut rng).unwrap();
    let model = RegressionModel::fit(
        (0..80).map(|i| {
            let x = i as f64 / 79.0;
            (input.encode(x), x)
        }),
        label.clone(),
        &mut rng,
    )
    .unwrap();
    let row_word_ops = model.row_word_ops();
    let pivot = break_even_rows(row_word_ops);
    // The batched fold forks at its own, larger break-even.
    let observe_word_ops = 4_099usize.div_ceil(64) * BitSlicedBundle::PUSH_WORD_OPS;
    let fold_pivot = break_even_rows(observe_word_ops);
    for n in [
        31,
        pivot - 1,
        pivot,
        2 * pivot + 3,
        fold_pivot,
        2 * fold_pivot + 3,
    ] {
        let queries: Vec<BinaryHypervector> = (0..n)
            .map(|i| input.encode(i as f64 / n as f64).corrupt(0.05, &mut rng))
            .collect();
        let serial: Vec<f64> = queries.iter().map(|q| model.predict(q)).collect();
        let par = batch_call(n, row_word_ops, || model.predict_batch_par(&queries));
        assert_eq!(par, serial, "n = {n}");
        let arena = HypervectorBatch::from_vectors(&queries).unwrap();
        let rows = batch_call(n, row_word_ops, || model.predict_rows(&arena));
        assert_eq!(rows, serial, "n = {n}");

        let values: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut one_by_one = RegressionTrainer::new(label.clone());
        for (hv, &y) in queries.iter().zip(&values) {
            one_by_one.observe(hv, y);
        }
        let mut batched = RegressionTrainer::new(label.clone());
        batch_call(n, observe_word_ops, || {
            batched.observe_batch(&arena, &values)
        })
        .unwrap();
        assert_eq!(batched.observed(), one_by_one.observed(), "n = {n}");
        assert_eq!(batched.accumulator(), one_by_one.accumulator(), "n = {n}");
    }
}
