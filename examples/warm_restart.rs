//! Durable warm restarts, end to end: train a **regression** pipeline
//! online through a running service, write a live `handle.snapshot()`
//! and shut the runtime down, spawn a *second* runtime from the snapshot
//! (`load_snapshot`), and verify over loopback TCP that the restarted
//! service answers **bit-identically** — both the `predict_value` results
//! and the restored item memory.
//!
//! This is the CI smoke test for the PR 5 snapshot path: it exercises
//! spec-as-data (the snapshot header rebuilds the encoders from
//! `(spec, seed)` alone), the trainer-accumulator capture (training
//! *resumes*, not just serving), and the `ping` health probe.
//!
//! ```text
//! cargo run --release --example warm_restart
//! ```

use std::time::Instant;

use hdc::serve::Radians;
use hdc::{Basis, BlockingClient, Enc, HdcError, Model, Pipeline, Runtime, RuntimeConfig, Server};

/// The untrained pipeline both lives of the service start from: hour-of-day
/// regression over the daily circle (the paper's circular-variable setting).
fn blank(seed: u64) -> Result<Model<Radians>, HdcError> {
    Pipeline::builder(10_000)
        .seed(seed)
        .regression(0.0, 24.0, 48)
        .basis(Basis::Circular { m: 48, r: 0.0 })
        .encoder(Enc::angle())
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let snapshot_path = std::env::temp_dir().join(format!(
        "hdc-warm-restart-example-{}.hdcs",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snapshot_path);

    // --- First life: train online, store state, snapshot, shut down. ----
    let reference = {
        // A client-side twin (same spec + seed → bit-identical encoders)
        // used to encode queries and predict the expected values.
        let mut model = blank(42)?;
        let hours: Vec<Radians> = (0..96)
            .map(|i| Radians::periodic(f64::from(i) / 4.0, 24.0))
            .collect();
        let values: Vec<f64> = (0..96).map(|i| f64::from(i) / 4.0).collect();
        model.fit_value_batch(&hours, &values)?;
        model
    };
    let first_config = RuntimeConfig {
        shards: 2,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::spawn(blank(42)?, first_config)?;
    let server = Server::spawn("127.0.0.1:0", runtime.handle())?;
    let mut client = BlockingClient::connect(server.local_addr())?;

    // Teach the service the hour-of-day identity entirely over the wire…
    let hours: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(f64::from(i) / 4.0, 24.0))
        .collect();
    for (i, hour) in hours.iter().enumerate() {
        client.fit_value(&reference.encode(hour), f64::from(i as u32) / 4.0)?;
    }
    let generation = client.refresh()?;
    // …store a per-station profile in the sharded item memory…
    let profile = reference.encode(&Radians::periodic(7.5, 24.0));
    client.insert("station-7", &profile)?;
    // …and record what the first life serves.
    let first_answers: Vec<f64> = hours
        .iter()
        .map(|h| {
            client
                .predict_value("probe", &reference.encode(h))
                .map(|p| p.value)
        })
        .collect::<Result<_, _>>()?;
    // A live snapshot (trainer accumulators + item memory), written before
    // the runtime stops.
    runtime.handle().snapshot()?.write(&snapshot_path)?;
    println!(
        "first life: generation {generation}, {} values served, snapshot -> {}",
        first_answers.len(),
        snapshot_path.display()
    );
    server.shutdown();
    runtime.shutdown();

    // --- Second life: spawn from the snapshot, serve warm. --------------
    let second_config = RuntimeConfig {
        shards: 2,
        load_snapshot: Some(snapshot_path.clone()),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::spawn(blank(42)?, second_config)?;
    let server = Server::spawn("127.0.0.1:0", runtime.handle())?;
    let mut client = BlockingClient::connect(server.local_addr())?;

    // The ping probe shows a freshly spawned runtime (small uptime)
    // already publishing generation 0 of the *restored* head.
    let (_, uptime_us) = client.ping()?;
    println!("second life: up {uptime_us} µs before the first prediction");

    // Without a single fit_value, the restarted service answers
    // bit-identically to the first life — and to the direct model.
    let mut checked = 0;
    for (hour, &first) in hours.iter().zip(&first_answers) {
        let served = client
            .predict_value("probe", &reference.encode(hour))?
            .value;
        assert_eq!(served, first, "warm restart must not change answers");
        assert_eq!(
            served,
            reference.predict_value(hour),
            "and must match the model"
        );
        checked += 1;
    }
    // The item memory came back too: re-inserting reports a replacement.
    assert!(
        client.insert("station-7", &profile)?,
        "restored item memory must already hold the profile"
    );
    // Training *resumes* from the restored accumulators: one more
    // observation on both the service and the reference twin keeps them
    // in lockstep.
    let mut twin = reference;
    let extra = Radians::periodic(13.25, 24.0);
    client.fit_value(&twin.encode(&extra), 13.25)?;
    client.refresh()?;
    twin.fit_value(&extra, 13.25)?;
    let resumed = client.predict_value("probe", &twin.encode(&extra))?.value;
    assert_eq!(
        resumed,
        twin.predict_value(&extra),
        "resumed training diverged"
    );

    println!(
        "warm restart verified: {checked} values bit-identical, training resumed, {:?} total",
        started.elapsed()
    );
    server.shutdown();
    runtime.shutdown();
    std::fs::remove_file(&snapshot_path)?;
    Ok(())
}
