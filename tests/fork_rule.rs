//! The batch layer's single fork rule, end to end with four workers:
//! serving-size micro-batches are answered without spawning a thread,
//! setup-scale work still fans out, and the runtime's batch fill answers
//! bit-identically on both sides of the break-even.
//!
//! One test function on purpose: the spawn counter and the worker count
//! are process-wide, so nothing may run beside it.

use std::f64::consts::TAU;

use hdc::{
    Basis, BatchPolicy, BinaryHypervector, Enc, FieldSpec, Pipeline, Runtime, RuntimeConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn angle_rows(rng: &mut StdRng, rows: usize, fields: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| (0..fields).map(|_| rng.random_range(0.0..TAU)).collect())
        .collect()
}

#[test]
fn serving_batches_stay_on_the_calling_thread_and_setup_work_fans_out() {
    // Before the first minipool call: the count is read once per process.
    std::env::set_var("MINIPOOL_THREADS", "4");
    assert_eq!(minipool::max_threads(), 4);
    let mut rng = StdRng::seed_from_u64(12);
    // Micro-batches of up to 128 rows: a raw 18-field row prices at
    // 157 words × 18 bundled fields × 2, so 93 rows are the break-even.
    // A request is never split, so each request below is one batch.
    let config = RuntimeConfig {
        policy: BatchPolicy { max_batch: 128 },
        ..RuntimeConfig::default()
    };

    // Classification at the gesture benchmark's shape: 18 angle channels,
    // d = 10 000, 10 classes, a 300-row training set.
    let mut model = Pipeline::builder(10_000)
        .seed(7)
        .classes(10)
        .basis(Basis::Circular { m: 16, r: 0.1 })
        .encoder(Enc::record(vec![FieldSpec::angle(); 18]))
        .build()
        .unwrap();
    let train = angle_rows(&mut rng, 300, 18);
    let labels: Vec<usize> = (0..train.len()).map(|i| i % 10).collect();
    let before = minipool::spawned();
    model
        .fit_batch(train.iter().map(Vec::as_slice), &labels)
        .unwrap();
    assert!(
        minipool::spawned() > before,
        "fitting a training set fans out"
    );

    let queries = angle_rows(&mut rng, 128, 18);
    let encoded = model.encode_batch(queries.iter().map(Vec::as_slice));
    let expected = model.predict_encoded(&encoded);
    let runtime = Runtime::spawn(model, config.clone()).unwrap();
    let handle = runtime.handle();
    let labels_of =
        |served: Vec<hdc::Prediction>| -> Vec<usize> { served.iter().map(|p| p.label).collect() };
    let labels_of_answers =
        |served: hdc::Answers| -> Vec<usize> { labels_of(served.into_labels().unwrap()) };

    // A 64-row pre-encoded micro-batch: copy and readout on the dispatcher.
    let pairs: Vec<(String, BinaryHypervector)> = encoded
        .rows()
        .take(64)
        .enumerate()
        .map(|(i, row)| (format!("k{i}"), row.to_hypervector()))
        .collect();
    let before = minipool::spawned();
    let served = handle.predict_encoded_many(pairs).unwrap();
    assert_eq!(minipool::spawned(), before, "64 pre-encoded rows forked");
    assert_eq!(labels_of(served), expected[..64]);

    // Raw rows: 8 and 64 stay below the break-even, 128 encode on the
    // forked path; the answers are the same bits either way.
    let keyed = |rows: &[Vec<f64>]| -> Vec<(String, Vec<f64>)> {
        rows.iter()
            .enumerate()
            .map(|(i, row)| (format!("r{i}"), row.clone()))
            .collect()
    };
    let few = keyed(&queries[..8]);
    let before = minipool::spawned();
    let served = handle
        .answer(few.iter().map(|(k, row)| (k.clone(), row.as_slice())))
        .unwrap();
    assert_eq!(minipool::spawned(), before, "8 raw rows forked");
    assert_eq!(labels_of_answers(served), expected[..8]);
    let half = keyed(&queries[..64]);
    let before = minipool::spawned();
    let served = handle
        .answer(half.iter().map(|(k, row)| (k.clone(), row.as_slice())))
        .unwrap();
    assert_eq!(minipool::spawned(), before, "64 raw rows forked");
    assert_eq!(labels_of_answers(served), expected[..64]);
    let all = keyed(&queries);
    let before = minipool::spawned();
    let served = handle
        .answer(all.iter().map(|(k, row)| (k.clone(), row.as_slice())))
        .unwrap();
    assert!(minipool::spawned() > before, "128 raw rows did not fork");
    assert_eq!(labels_of_answers(served), expected);
    runtime.shutdown();

    // Regression at the weather benchmark's shape: 3 fields, 64 levels,
    // a 2048-row training set, 8-row raw requests.
    let mut model = Pipeline::builder(10_000)
        .seed(11)
        .regression(-20.0, 40.0, 64)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::record(vec![
            FieldSpec::scalar(0.0, 5.0),
            FieldSpec::angle(),
            FieldSpec::angle(),
        ]))
        .build()
        .unwrap();
    let train: Vec<Vec<f64>> = (0..2_048)
        .map(|_| {
            vec![
                rng.random_range(0.0..5.0),
                rng.random_range(0.0..TAU),
                rng.random_range(0.0..TAU),
            ]
        })
        .collect();
    let values: Vec<f64> = train
        .iter()
        .map(|row| 10.0 * row[1].sin() + row[0])
        .collect();
    let before = minipool::spawned();
    model
        .fit_value_batch(train.iter().map(Vec::as_slice), &values)
        .unwrap();
    assert!(
        minipool::spawned() > before,
        "fitting a training set fans out"
    );
    let expected = model.predict_value_batch(train[..8].iter().map(Vec::as_slice));
    let runtime = Runtime::spawn(model, config).unwrap();
    let handle = runtime.handle();
    let few = keyed(&train[..8]);
    let before = minipool::spawned();
    let served = handle
        .predict_value_many(few.iter().map(|(k, row)| (k.clone(), row.as_slice())))
        .unwrap();
    assert_eq!(minipool::spawned(), before, "8 raw value rows forked");
    let served: Vec<f64> = served.iter().map(|p| p.value).collect();
    assert_eq!(served, expected);
    runtime.shutdown();
}
