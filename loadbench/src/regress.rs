//! `regress-durable`: writes beside reads on a durable runtime, in-process.
//!
//! The Beijing surrogate (year, day-of-year and hour features, as in the
//! paper's Table 2) served by a 64-level regression pipeline, so the
//! pruned coarse-to-fine readout runs. The runtime is durable with the
//! store's defaults: a WAL synced per flush group under a 200 µs group
//! commit, adaptive record compression, a background snapshot every 4096
//! records, and a new generation every 256 fits. One stream predicts 8 raw
//! inputs per request (the dispatcher encodes them); the other sends
//! durable `fit_value`s of later hours, with an `insert` of a station key
//! every 16th write. There is no wire at all.

use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::TAU;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hdc_core::{kernels, BinaryHypervector, HypervectorBatch};
use hdc_datasets::beijing::{self, BeijingConfig, DAYS_PER_YEAR};
use hdc_learn::RegressionTrainer;
use hdc_serve::{
    Basis, DurabilityConfig, Enc, FieldSpec, HdcError, Model, Pipeline, Runtime, RuntimeConfig,
    RuntimeHandle, ShardedModel, Snapshot, ValuePrediction,
};
use hdc_store::{GroupAck, GroupCommitWal, Store, Wal, WalRecord};

use crate::load::{self, run_phase, schedule, Rng, Stream, StreamRun};
use crate::procfs::{filesystem_of, thread_ids, CpuSample};
use crate::trace::{Trace, Tracer};
use crate::{
    cpu_metrics, io_error, judge_step, latency_metrics, max_rps, phase, settle, timed_restarts,
    timed_setups, warmup, Args, Load, Metrics, Phase, Plan, RunResult, Step, TempDir,
    PUBLISH_EVERY, SAMPLE_EVERY, SETUPS,
};

/// One predict stream of 8-row requests, one write stream. The capacity
/// is about 3.5 times the nominal rates on 2 cores, so the top rung fails
/// by a wide margin and `max_rps` repeats.
pub const LOAD: Load = Load {
    predict_rps: 300.0,
    write_rps: 300.0,
    ladder: &[1.0, 1.75, 6.0],
    p99_limit_us: 250_000.0,
};

const DIM: usize = 10_000;
const LEVELS: usize = 64;
const FRAME: usize = 8;
/// Hours the served model is trained on before it is spawned.
const TRAIN_HOURS: usize = 2_048;
/// Query rows, spread over the series' last year.
const POOL: usize = 1_024;
/// Every sixteenth write is an `insert` of a station key.
const INSERT_EVERY: usize = 16;
const STATIONS: usize = 64;
const QUERY_SET: usize = 128;

type Row = [f64; 3];

/// The generated hourly series, split into training hours, the later
/// hours the write stream fits in order, and the query pool.
struct Weather {
    low: f64,
    high: f64,
    years: f64,
    train: Vec<Row>,
    train_values: Vec<f64>,
    later: Vec<(Row, f64)>,
    pool: Vec<Row>,
}

impl Weather {
    fn generate(seed: u64) -> Self {
        let config = BeijingConfig {
            seed,
            ..BeijingConfig::default()
        };
        let data = beijing::generate(&config);
        let (low, high) = data.temperature_range();
        let row = |s: &beijing::BeijingSample| -> Row {
            [
                s.year,
                TAU * s.day_of_year / DAYS_PER_YEAR,
                TAU * s.hour / 24.0,
            ]
        };
        let samples = &data.samples;
        let last_year = samples.len() - (samples.len() / config.years);
        let stride = ((samples.len() - last_year) / POOL).max(1);
        Self {
            low,
            high,
            years: config.years as f64,
            train: samples[..TRAIN_HOURS].iter().map(row).collect(),
            train_values: samples[..TRAIN_HOURS]
                .iter()
                .map(|s| s.temperature)
                .collect(),
            later: samples[TRAIN_HOURS..]
                .iter()
                .map(|s| (row(s), s.temperature))
                .collect(),
            pool: samples[last_year..]
                .iter()
                .step_by(stride)
                .take(POOL)
                .map(row)
                .collect(),
        }
    }

    fn model(&self) -> Result<Model<[f64]>, HdcError> {
        let mut model = Pipeline::builder(DIM)
            .seed(11)
            .regression(self.low, self.high, LEVELS)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::record(vec![
                FieldSpec::scalar(0.0, self.years),
                FieldSpec::angle(),
                FieldSpec::angle(),
            ]))
            .build()?;
        model.fit_value_batch(self.train.iter().map(|r| &r[..]), &self.train_values)?;
        Ok(model)
    }
}

/// One answered row: pool row, value, generation.
type Answer = (u32, f64, u64);

/// Generation `g` is the trained model after the first `g × 256` fits of
/// the write stream.
struct Reference {
    model: Model<[f64]>,
    arena: HypervectorBatch,
    heads: Vec<Vec<f64>>,
    folded: usize,
}

impl Reference {
    fn new(data: &Weather) -> Result<Self, HdcError> {
        let model = data.model()?;
        let arena = model.encode_batch(data.pool.iter().map(|r| &r[..]));
        let head = model.predict_values_encoded(&arena);
        Ok(Self {
            model,
            arena,
            heads: vec![head],
            folded: 0,
        })
    }

    fn head(&mut self, g: u64, fits: &[usize], data: &Weather) -> Option<&[f64]> {
        while self.heads.len() as u64 <= g {
            let to = self.folded + PUBLISH_EVERY;
            let chunk = fits.get(self.folded..to)?;
            let values: Vec<f64> = chunk.iter().map(|&w| data.later[w].1).collect();
            self.model
                .fit_value_batch(chunk.iter().map(|&w| &data.later[w].0[..]), &values)
                .ok()?;
            self.folded = to;
            self.heads
                .push(self.model.predict_values_encoded(&self.arena));
        }
        self.heads.get(g as usize).map(Vec::as_slice)
    }

    fn wrong(&mut self, answers: &[Answer], fits: &[usize], data: &Weather) -> usize {
        answers
            .iter()
            .filter(|&&(row, value, g)| {
                self.head(g, fits, data)
                    .is_none_or(|head| head[row as usize].to_bits() != value.to_bits())
            })
            .count()
    }
}

/// The traced run's read-side shadows: a fleet, readout and accumulator
/// counts built from the reference model. None of them touches the live
/// system.
struct ShadowRead {
    model: Model<[f64]>,
    fleet: ShardedModel<String>,
    counts: Vec<i32>,
}

impl ShadowRead {
    /// encode → (sharded → (route, readout → masked_sum)), children of
    /// the live predict span.
    fn predict(&self, tracer: &mut Tracer, root: u64, req: u64, rows: &[&[f64]], keys: &[&str]) {
        let (arena, _) = tracer.time("encode.batch", Some(root), req, || {
            self.model.encode_batch(rows.iter().copied())
        });
        let (_, sharded) = tracer.time("sharded.predict", Some(root), req, || {
            black_box(self.fleet.predict_values(keys, &arena))
        });
        tracer.time("hash.route", Some(sharded), req, || {
            black_box(self.fleet.route(keys))
        });
        let regressor = self.model.regressor();
        let (_, readout) = tracer.time("learn.readout", Some(sharded), req, || {
            black_box(regressor.predict_rows(&arena))
        });
        let labels = regressor.label_encoder().hypervectors();
        tracer.time("kernels.masked_sum", Some(readout), req, || {
            let mut sum = 0i64;
            for row in arena.rows() {
                for label in labels {
                    sum += kernels::masked_sum(&self.counts, label.as_words(), row.as_words());
                }
            }
            black_box(sum)
        });
    }
}

/// The traced run's write-side shadows: a trainer, a group-commit WAL fed
/// every write at its arrival time (so flush groups form as in the live
/// store), and a plain WAL whose `fdatasync` is timed alone.
struct ShadowWrite {
    encoder: Model<[f64]>,
    trainer: RegressionTrainer,
    group: GroupCommitWal,
    plain: Wal,
    acks: Arc<AtomicU64>,
    records: u64,
    observed: usize,
    last_root: Option<u64>,
}

/// Builds both shadows.
fn shadows(data: &Weather, dir: &Path, digest: u64) -> Result<(ShadowRead, ShadowWrite), HdcError> {
    let model = data.model()?;
    let config = RuntimeConfig::default();
    let fleet = ShardedModel::from_model(&model, config.shards, config.seed)?;
    let mut trainer = RegressionTrainer::new(model.regressor().label_encoder().clone());
    let arena = model.encode_batch(data.train.iter().map(|r| &r[..]));
    for (i, &value) in data.train_values.iter().enumerate() {
        trainer.observe(&arena.to_hypervector(i), value);
    }
    let durable = DurabilityConfig::new(dir.join("group"));
    let (group_wal, _) = Wal::open(&durable.dir, digest, durable.wal_config(), 0)?;
    let (plain, _) = Wal::open(dir.join("plain"), digest, durable.wal_config(), 0)?;
    let encoder = Pipeline::from_spec::<[f64]>(model.spec().clone())?;
    Ok((
        ShadowRead {
            counts: trainer.accumulator().counts().to_vec(),
            fleet,
            model,
        },
        ShadowWrite {
            encoder,
            trainer,
            group: GroupCommitWal::new(group_wal, durable.group_commit_config()),
            plain,
            acks: Arc::new(AtomicU64::new(0)),
            records: 0,
            observed: 0,
            last_root: None,
        },
    ))
}

impl ShadowWrite {
    /// Mirrors one write into the shadow log; a sampled fit also times its
    /// encode, observe, append, commit wait and a lone `fdatasync`.
    fn write(
        &mut self,
        tracer: &mut Tracer,
        sampled: Option<(u64, u64)>,
        input: &Row,
        value: Option<f64>,
        hv: &BinaryHypervector,
    ) {
        let record = match value {
            Some(value) => WalRecord::FitValue {
                hv: hv.clone(),
                value,
            },
            None => WalRecord::Insert {
                key: "station".into(),
                hv: hv.clone(),
            },
        };
        let Some((root, req)) = sampled else {
            if let Ok(seq) = self.group.append(&record) {
                let acks = Arc::clone(&self.acks);
                let ack: GroupAck = Box::new(move || {
                    acks.fetch_add(1, Ordering::Relaxed);
                });
                let _ = self.group.commit(seq, vec![ack]);
                self.records += 1;
            }
            if let Some(value) = value {
                self.trainer.observe(hv, value);
                self.count_observation(tracer);
            }
            return;
        };
        self.last_root = Some(root);
        tracer.time("encode.row", Some(root), req, || {
            black_box(self.encoder.encode(&input[..]))
        });
        if let Some(value) = value {
            let trainer = &mut self.trainer;
            tracer.time("learn.observe", Some(root), req, || {
                trainer.observe(hv, value)
            });
            self.count_observation(tracer);
        }
        let (seq, _) = tracer.time("store.append", Some(root), req, || {
            self.group.append(&record)
        });
        if let Ok(seq) = seq {
            let (tx, rx) = mpsc::channel();
            let acks = Arc::clone(&self.acks);
            let ack: GroupAck = Box::new(move || {
                acks.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            });
            tracer.time("store.commit", Some(root), req, || {
                if self.group.commit(seq, vec![ack]).is_ok() {
                    let _ = rx.recv();
                }
            });
            self.records += 1;
        }
        if self.plain.append_deferred(&record).is_ok() {
            let _ = tracer.time("store.fsync", Some(root), req, || self.plain.sync());
        }
    }

    /// Every 256 observations the shadow trainer finalizes, as the live
    /// trainer publishes; timed under the latest sampled fit.
    fn count_observation(&mut self, tracer: &mut Tracer) {
        self.observed += 1;
        if self.observed.is_multiple_of(PUBLISH_EVERY) {
            let trainer = &self.trainer;
            let root = self.last_root;
            tracer.time("learn.finish", root, root.unwrap_or(0), || {
                black_box(trainer.finish_integer())
            });
        }
    }
}

struct DurableSystem {
    runtime: Runtime<[f64]>,
    config: RuntimeConfig,
}

fn durable_config(dir: &Path) -> RuntimeConfig {
    RuntimeConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..RuntimeConfig::default()
    }
}

/// Largest size seen per `wal-*.log` and every `snap-*.hdcs` name seen,
/// polled at phase ends: snapshot GC deletes sealed segments, so the
/// log's bytes are summed over every segment ever seen.
#[derive(Default)]
struct StoreFiles {
    segments: BTreeMap<String, u64>,
    snapshots: BTreeSet<String>,
}

impl StoreFiles {
    fn poll(&mut self, dir: &Path) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") && name.ends_with(".log") {
                let len = entry.metadata().map_or(0, |m| m.len());
                let seen = self.segments.entry(name).or_default();
                *seen = (*seen).max(len);
            } else if name.starts_with("snap-") && name.ends_with(".hdcs") {
                self.snapshots.insert(name);
            }
        }
    }
}

/// Runs `regress-durable`.
pub fn run(args: &Args, plan: Plan) -> Result<RunResult, HdcError> {
    let data = &Weather::generate(args.seed);
    let mut reference = Reference::new(data)?;
    let keys: &[String] = &(0..STATIONS)
        .map(|k| format!("station-{k}"))
        .collect::<Vec<_>>();
    let tmp = TempDir::new()?;
    let digest = reference.model.spec().hash64();

    let (sys, setup_s) = timed_setups(
        SETUPS,
        |i| {
            let config = durable_config(&tmp.path().join(format!("store-{i}")));
            let runtime = Runtime::spawn(data.model()?, config.clone())?;
            Ok(DurableSystem { runtime, config })
        },
        |old| {
            old.runtime.shutdown();
        },
    )?;
    let store_dir = sys
        .config
        .durability
        .as_ref()
        .map(|d| d.dir.clone())
        .ok_or(HdcError::EmptyInput)?;
    let mut result = RunResult::default();
    result
        .facts
        .push(("durability_fs", filesystem_of(&store_dir)));
    result.facts.push((
        "pruned_readout",
        reference.model.regressor().is_pruned().to_string(),
    ));
    result.e2e.insert("setup_s", (setup_s, "s"));
    let handle = sys.runtime.handle();
    let mut fits: Vec<usize> = Vec::new();
    let mut cursor = 0usize;
    let mut rng = Rng::new(args.seed, 3);
    let mut files = StoreFiles::default();
    let mut acked_writes = 0usize;

    let frame = |rng: &mut Rng| -> Vec<(u32, u16)> {
        (0..FRAME)
            .map(|_| {
                (
                    rng.below(data.pool.len()) as u32,
                    rng.below(STATIONS) as u16,
                )
            })
            .collect()
    };
    let predict_once =
        |handle: &RuntimeHandle<[f64]>, frame: &[(u32, u16)], log: &mut Vec<Answer>| -> bool {
            let reply = handle.predict_value_many(
                frame
                    .iter()
                    .map(|&(r, k)| (keys[k as usize].clone(), &data.pool[r as usize][..])),
            );
            log_values(frame, reply, log)
        };

    result.phases.push(warmup(|| {
        let f = frame(&mut rng);
        let mut log = Vec::new();
        predict_once(&handle, &f, &mut log) && reference.wrong(&log, &fits, data) == 0
    }));

    let shadow_before = thread_ids();
    let (shadow_read, mut shadow_write) = match args.trace {
        true => {
            let (r, w) = shadows(data, &tmp.path().join("shadow"), digest)?;
            (Some(r), Some(w))
        }
        false => (None, None),
    };
    let shadow_threads: BTreeSet<u64> = thread_ids().difference(&shadow_before).copied().collect();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1 << 40);
    // Encodes insert payloads (and, traced, every write) before the clock
    // starts; an untrained model of the same spec encodes identically.
    let encoder = Pipeline::from_spec::<[f64]>(reference.model.spec().clone())?;

    let mixed_phase = |rng: &mut Rng,
                       cursor: &mut usize,
                       fits: &mut Vec<usize>,
                       multiple: f64,
                       seconds: f64,
                       shadow: Option<(&ShadowRead, &mut ShadowWrite)>,
                       tracer: &mut Tracer|
     -> (Vec<StreamRun>, Vec<Answer>) {
        let p_arrivals = schedule(plan.load.predict_rps * multiple, seconds, rng);
        let w_arrivals = schedule(plan.load.write_rps * multiple, seconds, rng);
        let p_frames: Vec<Vec<(u32, u16)>> = (0..p_arrivals.len()).map(|_| frame(rng)).collect();
        let writes: Vec<(usize, bool, u16)> = (0..w_arrivals.len())
            .map(|i| {
                let w = (*cursor + i) % data.later.len();
                (
                    w,
                    i % INSERT_EVERY == INSERT_EVERY - 1,
                    rng.below(STATIONS) as u16,
                )
            })
            .collect();
        *cursor += writes.len();
        fits.extend(
            writes
                .iter()
                .filter(|(_, insert, _)| !insert)
                .map(|(w, _, _)| *w),
        );
        let hvs: Vec<Option<BinaryHypervector>> = writes
            .iter()
            .map(|&(w, insert, _)| {
                (insert || shadow.is_some()).then(|| encoder.encode(&data.later[w].0[..]))
            })
            .collect();
        let mut log = Vec::with_capacity(p_frames.len() * FRAME);
        let runs = {
            let log = &mut log;
            let handle_p = handle.clone();
            let handle_w = handle.clone();
            let mut w_tracer = Tracer::new(epoch, 2 << 40);
            let w_tracer_ref = &mut w_tracer;
            let p_tracer = &mut *tracer;
            let (read, mut write) = match shadow {
                Some((r, w)) => (Some(r), Some(w)),
                None => (None, None),
            };
            let predict = Stream {
                arrivals: p_arrivals,
                call: Box::new(move |i| {
                    let f = &p_frames[i];
                    let t0 = Instant::now();
                    let ok = predict_once(&handle_p, f, log);
                    let t1 = Instant::now();
                    if let Some(s) = read.filter(|_| ok && i % SAMPLE_EVERY == 0) {
                        let req = i as u64;
                        let root = p_tracer.record("runtime.predict", None, req, t0, t1);
                        let rows: Vec<&[f64]> =
                            f.iter().map(|&(r, _)| &data.pool[r as usize][..]).collect();
                        let ks: Vec<&str> =
                            f.iter().map(|&(_, k)| keys[k as usize].as_str()).collect();
                        s.predict(p_tracer, root, req, &rows, &ks);
                    }
                    ok
                }),
            };
            let write = Stream {
                arrivals: w_arrivals,
                call: Box::new(move |i| {
                    let (w, insert, k) = writes[i];
                    let (input, value) = &data.later[w];
                    let t0 = Instant::now();
                    let ok = if insert {
                        let hv = hvs[i].clone().expect("insert payloads are pre-encoded");
                        handle_w.insert(keys[k as usize].clone(), hv).is_ok()
                    } else {
                        handle_w.fit_value(&input[..], *value).is_ok()
                    };
                    let t1 = Instant::now();
                    if let (Some(s), Some(hv)) = (write.as_deref_mut(), &hvs[i]) {
                        let req = (1u64 << 32) | i as u64;
                        let sampled = (!insert && i % SAMPLE_EVERY == 0).then(|| {
                            let root = w_tracer_ref.record("runtime.fit", None, req, t0, t1);
                            (root, req)
                        });
                        s.write(
                            w_tracer_ref,
                            sampled,
                            input,
                            (!insert).then_some(*value),
                            hv,
                        );
                    }
                    ok
                }),
            };
            let runs = run_phase(vec![predict, write]);
            tracer.spans.append(&mut w_tracer.spans);
            runs
        };
        (runs, log)
    };

    let stats0 = handle.stats()?;
    let cpu0 = CpuSample::now();
    let (runs, log) = mixed_phase(
        &mut rng,
        &mut cursor,
        &mut fits,
        1.0,
        plan.nominal_s,
        shadow_read.as_ref().zip(shadow_write.as_mut()),
        &mut tracer,
    );
    let cpu = CpuSample::now().since(&cpu0, &shadow_threads);
    let stats1 = handle.stats()?;
    files.poll(&store_dir);
    let wrong = reference.wrong(&log, &fits, data);
    let refs: Vec<&StreamRun> = runs.iter().collect();
    latency_metrics(&mut result.e2e, "predict", &runs[0].samples);
    let fit_samples: Vec<load::Sample> = runs[1]
        .samples
        .iter()
        .enumerate()
        .filter(|(i, _)| i % INSERT_EVERY != INSERT_EVERY - 1)
        .map(|(_, s)| *s)
        .collect();
    latency_metrics(&mut result.e2e, "fit", &fit_samples);
    acked_writes += runs[1].samples.iter().filter(|s| s.ok).count();
    cpu_metrics(&mut result.e2e, &mut result.layers, &cpu, &refs);
    result.phases.push(phase("nominal", &refs, wrong));
    let batches = stats1
        .metrics
        .batches
        .saturating_sub(stats0.metrics.batches) as f64;
    let rows = stats1
        .metrics
        .requests
        .saturating_sub(stats0.metrics.requests) as f64;
    result.layers.insert("runtime.batches", (batches, "count"));
    result
        .layers
        .insert("runtime.rows_per_batch", (rows / batches.max(1.0), "count"));
    if let Some(s) = &shadow_write {
        let fsyncs = s.group.sync_count().unwrap_or(0) as f64;
        let acks = s.acks.load(Ordering::Relaxed) as f64;
        let bytes = s.group.bytes_appended().unwrap_or(0) as f64;
        result.layers.insert("store.fsyncs", (fsyncs, "count"));
        result
            .layers
            .insert("store.acks_per_fsync", (acks / fsyncs.max(1.0), "count"));
        result.layers.insert(
            "store.bytes_per_record",
            (bytes / (s.records.max(1) as f64), "bytes"),
        );
    }
    settle();

    let mut steps: Vec<Step> = Vec::new();
    for &multiple in plan.load.ladder {
        let (runs, log) = mixed_phase(
            &mut rng,
            &mut cursor,
            &mut fits,
            multiple,
            plan.step_s,
            None,
            &mut tracer,
        );
        files.poll(&store_dir);
        let wrong = reference.wrong(&log, &fits, data);
        acked_writes += runs[1].samples.iter().filter(|s| s.ok).count();
        let refs: Vec<&StreamRun> = runs.iter().collect();
        steps.push(judge_step(multiple, &refs, plan.load.p99_limit_us, wrong));
        result
            .phases
            .push(phase(&format!("ladder-{multiple}"), &refs, wrong));
        settle();
    }
    result
        .e2e
        .insert("max_rps", (max_rps(&steps), "requests/s"));

    // Recovery: restart on the run's store directory.
    let query: Vec<(u32, u16)> = (0..QUERY_SET)
        .map(|i| ((i % data.pool.len()) as u32, (i % STATIONS) as u16))
        .collect();
    handle.refresh()?;
    result.layers.insert(
        "runtime.generations",
        (handle.stats()?.generation as f64, "count"),
    );
    let mut before = Vec::new();
    if !predict_once(&handle, &query, &mut before) {
        return Err(HdcError::ServiceUnavailable);
    }
    let live_snapshot = args.trace.then(|| handle.snapshot()).transpose()?;
    drop(handle);
    sys.runtime.shutdown();
    files.poll(&store_dir);
    let log_bytes: u64 = files.segments.values().sum();
    result.layers.insert(
        "wal_bytes_per_write",
        (log_bytes as f64 / acked_writes.max(1) as f64, "bytes"),
    );
    result
        .layers
        .insert("store.snapshots", (files.snapshots.len() as f64, "count"));
    if let Some(snapshot) = live_snapshot {
        store_replays(
            &mut result.layers,
            &snapshot,
            &store_dir,
            &tmp.path().join("copy"),
            digest,
        )?;
    }

    let mut recovery = Phase {
        name: "recovery".into(),
        ..Phase::default()
    };
    let recovery_s = timed_restarts(Duration::from_secs_f64(plan.recovery_s), || {
        let model = data.model()?;
        let start = Instant::now();
        let runtime = Runtime::spawn(model, sys.config.clone())?;
        let h = runtime.handle();
        let first = h.predict_value(keys[0].clone(), &data.pool[0][..]);
        let seconds = start.elapsed().as_secs_f64();
        let mut after = Vec::new();
        let ok = predict_once(&h, &query, &mut after);
        recovery.sent += query.len() + 1;
        let same = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b.1.to_bits() == a.1.to_bits())
            .count();
        let first_ok = first.is_ok_and(|p| p.value.to_bits() == before[0].1.to_bits());
        let good = if ok { same } else { 0 } + usize::from(first_ok);
        recovery.succeeded += good;
        recovery.failed += query.len() + 1 - good;
        drop(h);
        runtime.shutdown();
        Ok(seconds)
    })?;
    result.phases.push(recovery);
    result.e2e.insert("recovery_s", (recovery_s, "s"));

    if args.trace {
        let trace = Trace::new(std::mem::take(&mut tracer.spans));
        let med = |v: Vec<f64>| load::median(&v);
        result.layers.insert(
            "runtime.self_us",
            (med(trace.self_times("runtime.predict", &[])), "us"),
        );
        result.layers.insert(
            "sharded.self_us",
            (med(trace.self_times("sharded.predict", &[])), "us"),
        );
        result
            .layers
            .insert("hash.route_us", (med(trace.durations("hash.route")), "us"));
        result.layers.insert(
            "encode.us_per_row",
            (med(trace.durations("encode.batch")) / FRAME as f64, "us"),
        );
        result.layers.insert(
            "learn.readout_us_per_row",
            (med(trace.durations("learn.readout")) / FRAME as f64, "us"),
        );
        result.layers.insert(
            "learn.observe_us",
            (med(trace.durations("learn.observe")), "us"),
        );
        result.layers.insert(
            "learn.finish_ms",
            (med(trace.durations("learn.finish")) / 1e3, "ms"),
        );
        result.layers.insert(
            "kernels.masked_sum_ns",
            (
                med(trace.durations("kernels.masked_sum")) * 1e3 / (FRAME * LEVELS) as f64,
                "ns",
            ),
        );
        result.layers.insert(
            "store.append_us",
            (med(trace.durations("store.append")), "us"),
        );
        result.layers.insert(
            "store.commit_wait_us",
            (med(trace.durations("store.commit")), "us"),
        );
        result.layers.insert(
            "store.fsync_us",
            (med(trace.durations("store.fsync")), "us"),
        );
        result.spans = trace.spans;
    }
    Ok(result)
}

/// Logs a value reply; a short or failed reply is a failure.
fn log_values(
    frame: &[(u32, u16)],
    reply: Result<Vec<ValuePrediction>, HdcError>,
    log: &mut Vec<Answer>,
) -> bool {
    match reply {
        Ok(preds) if preds.len() == frame.len() => {
            log.extend(
                frame
                    .iter()
                    .zip(&preds)
                    .map(|(&(r, _), p)| (r, p.value, p.generation)),
            );
            true
        }
        _ => false,
    }
}

/// The store's cold paths, timed on a copy of the run's directory after
/// shutdown: open (with replay), snapshot install, snapshot encode and
/// restore.
fn store_replays(
    layers: &mut Metrics,
    snapshot: &Snapshot,
    live: &Path,
    copy: &Path,
    digest: u64,
) -> Result<(), HdcError> {
    fs::create_dir_all(copy).map_err(|e| io_error("creating the store copy", e))?;
    for entry in fs::read_dir(live)
        .map_err(|e| io_error("listing the store", e))?
        .flatten()
    {
        if entry.path().is_file() {
            fs::copy(entry.path(), copy.join(entry.file_name()))
                .map_err(|e| io_error("copying the store", e))?;
        }
    }
    let start = Instant::now();
    let bytes = snapshot.to_bytes();
    layers.insert(
        "snapshot.encode_ms",
        (start.elapsed().as_secs_f64() * 1e3, "ms"),
    );
    let start = Instant::now();
    let (store, recovery) = Store::open(copy, digest, DurabilityConfig::new(copy).wal_config())?;
    layers.insert("store.open_ms", (start.elapsed().as_secs_f64() * 1e3, "ms"));
    layers.insert("store.replayed", (recovery.records.len() as f64, "count"));
    let (wal, installer) = store.into_parts();
    let start = Instant::now();
    installer.install(&bytes, wal.next_seq())?;
    layers.insert(
        "store.install_ms",
        (start.elapsed().as_secs_f64() * 1e3, "ms"),
    );
    let start = Instant::now();
    let restored = Snapshot::from_bytes(&bytes)?;
    let model = Pipeline::from_snapshot::<[f64]>(&restored)?;
    layers.insert(
        "snapshot.restore_ms",
        (start.elapsed().as_secs_f64() * 1e3, "ms"),
    );
    black_box(model);
    Ok(())
}
