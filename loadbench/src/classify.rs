//! The two classification workloads over the JIGSAWS Suturing surrogate
//! (18 angle channels, circular-basis `Enc::record`, d = 10 000):
//!
//! * `classify-tcp` — the read path over the wire: one runtime behind one
//!   loopback `Server`, two client connections sending `predict_batch`
//!   frames of pre-encoded test rows. A short write probe after the
//!   ladder sends `fit` frames over the same wire.
//! * `cluster-mixed` — process sharding with in-RAM writes: three shard
//!   runtimes behind loopback servers, a `ClusterRouter` over
//!   `RemoteShard`s behind a `ClusterServer`; one stream of small predict
//!   frames, one stream of replicated `fit`s with an `insert` every eighth
//!   write.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hdc_core::{kernels, BinaryHypervector, HypervectorBatch, TieBreak};
use hdc_datasets::jigsaws::{JigsawsConfig, JigsawsTask, TRAIN_SURGEON};
use hdc_learn::{CentroidClassifier, CentroidTrainer};
use hdc_serve::wire::{self, Request, Response};
use hdc_serve::{
    Basis, BlockingClient, ClientConfig, ClusterRouter, ClusterServer, Enc, FieldSpec, HdcError,
    LocalShard, Model, Pipeline, Prediction, RemoteShard, RingConfig, Runtime, RuntimeConfig,
    RuntimeHandle, Server, ShardBackend, ShardedModel, Snapshot,
};

use crate::load::{self, run_phase, schedule, Rng, Stream, StreamRun};
use crate::procfs::{thread_ids, CpuSample};
use crate::trace::{Trace, Tracer};
use crate::{
    cpu_metrics, io_error, judge_step, latency_metrics, max_rps, phase, settle, timed_restarts,
    timed_setups, warmup, Args, Load, Metrics, Phase, Plan, RunResult, Step, TempDir,
    PUBLISH_EVERY, SAMPLE_EVERY, SETUPS, WARMUP,
};

/// `classify-tcp`: two predict streams of 64-row frames; the write probe
/// runs at `write_rps`. The ladder's rungs sit clear of the capacity
/// (above 1200 frames/s on 2 cores), so `max_rps` repeats.
pub const TCP_LOAD: Load = Load {
    predict_rps: 120.0,
    write_rps: 400.0,
    ladder: &[1.0, 1.75, 5.0],
    p99_limit_us: 250_000.0,
};

/// `cluster-mixed`: one stream of 4-row predict frames, one of writes.
/// The capacity is about 3 times the nominal rates on 2 cores, so the
/// top rung fails by a wide margin and `max_rps` repeats.
pub const CLUSTER_LOAD: Load = Load {
    predict_rps: 300.0,
    write_rps: 150.0,
    ladder: &[1.0, 1.75, 5.0],
    p99_limit_us: 250_000.0,
};

const DIM: usize = 10_000;
const TCP_FRAME: usize = 64;
const CLUSTER_FRAME: usize = 4;
const SHARDS: usize = 3;
/// Size of the session-key population requests are keyed by.
const KEYS: usize = 256;
/// `cluster-mixed` writes: every eighth is an `insert`, the rest `fit`s.
const INSERT_EVERY: usize = 8;
/// Rows of the recovery check's query set.
const QUERY_SET: usize = 128;

/// The generated corpus: training split (one surgeon) and the test split
/// every request row is drawn from.
struct Gestures {
    classes: usize,
    train_rows: Vec<Vec<f64>>,
    train_labels: Vec<usize>,
    pool_rows: Vec<Vec<f64>>,
    pool_labels: Vec<usize>,
}

impl Gestures {
    fn generate(seed: u64) -> Self {
        let data = JigsawsTask::Suturing.generate(&JigsawsConfig {
            seed,
            ..JigsawsConfig::default()
        });
        let (train, test) = data.train_test_split(TRAIN_SURGEON);
        Self {
            classes: data.gesture_count,
            train_rows: train.iter().map(|s| s.angles.clone()).collect(),
            train_labels: train.iter().map(|s| s.gesture).collect(),
            pool_rows: test.iter().map(|s| s.angles.clone()).collect(),
            pool_labels: test.iter().map(|s| s.gesture).collect(),
        }
    }

    /// Builds and trains the served model.
    fn model(&self) -> Result<Model<[f64]>, HdcError> {
        let mut model = Pipeline::builder(DIM)
            .seed(7)
            .classes(self.classes)
            .basis(Basis::Circular { m: 16, r: 0.1 })
            .encoder(Enc::record(vec![FieldSpec::angle(); 18]))
            .build()?;
        model.fit_batch(
            self.train_rows.iter().map(Vec::as_slice),
            &self.train_labels,
        )?;
        Ok(model)
    }
}

/// One answered row: pool row, label, generation that served it.
type Answer = (u32, u32, u64);

/// The reference: generation `g` is the trained model after the first
/// `g × 256` logged fits, exactly what the runtime trainer publishes.
struct Reference {
    model: Model<[f64]>,
    arena: HypervectorBatch,
    heads: Vec<Vec<usize>>,
    folded: usize,
}

impl Reference {
    fn new(data: &Gestures) -> Result<Self, HdcError> {
        let model = data.model()?;
        let arena = model.encode_batch(data.pool_rows.iter().map(Vec::as_slice));
        let head = model.predict_encoded(&arena);
        Ok(Self {
            model,
            arena,
            heads: vec![head],
            folded: 0,
        })
    }

    /// Labels of every pool row under generation `g`; `None` when the
    /// write log is too short to have published it.
    fn head(&mut self, g: u64, fits: &[usize], data: &Gestures) -> Option<&[usize]> {
        while self.heads.len() as u64 <= g {
            let to = self.folded + PUBLISH_EVERY;
            let chunk = fits.get(self.folded..to)?;
            let labels: Vec<usize> = chunk.iter().map(|&r| data.pool_labels[r]).collect();
            self.model
                .fit_batch(chunk.iter().map(|&r| data.pool_rows[r].as_slice()), &labels)
                .ok()?;
            self.folded = to;
            self.heads.push(self.model.predict_encoded(&self.arena));
        }
        self.heads.get(g as usize).map(Vec::as_slice)
    }

    /// Answers that differ from their generation's head.
    fn wrong(&mut self, answers: &[Answer], fits: &[usize], data: &Gestures) -> usize {
        answers
            .iter()
            .filter(|&&(row, label, g)| {
                self.head(g, fits, data)
                    .is_none_or(|head| head[row as usize] != label as usize)
            })
            .count()
    }
}

/// Pre-drawn request frames of one stream: `(pool row, key)` per row.
fn frames(rng: &mut Rng, count: usize, rows: usize, pool: usize) -> Vec<Vec<(u32, u16)>> {
    (0..count)
        .map(|_| {
            (0..rows)
                .map(|_| (rng.below(pool) as u32, rng.below(KEYS) as u16))
                .collect()
        })
        .collect()
}

/// Shared, read-only inputs of the request builders.
struct Inputs {
    pool: Vec<BinaryHypervector>,
    keys: Vec<String>,
}

impl Inputs {
    fn pairs(&self, frame: &[(u32, u16)]) -> Vec<(String, BinaryHypervector)> {
        frame
            .iter()
            .map(|&(r, k)| (self.keys[k as usize].clone(), self.pool[r as usize].clone()))
            .collect()
    }
}

/// Logs a predict reply; a short or failed reply is a failure.
fn log_reply(
    frame: &[(u32, u16)],
    reply: std::io::Result<Vec<Prediction>>,
    log: &mut Vec<Answer>,
) -> Option<Vec<Prediction>> {
    let preds = reply.ok()?;
    if preds.len() != frame.len() {
        return None;
    }
    log.extend(
        frame
            .iter()
            .zip(&preds)
            .map(|(&(r, _), p)| (r, p.label as u32, p.generation)),
    );
    Some(preds)
}

/// Replays a predict frame's wire encode and decode, request and response,
/// as children of `root`; returns the request frame's size.
fn replay_wire(
    tracer: &mut Tracer,
    root: u64,
    req: u64,
    pairs: Vec<(String, BinaryHypervector)>,
    preds: &[Prediction],
) -> usize {
    let request = Request::PredictBatch { pairs };
    let (bytes, _) = tracer.time("wire.request", Some(root), req, || {
        let mut buf = Vec::new();
        let _ = wire::write_request(&mut buf, &request);
        let _ = black_box(wire::read_request(&mut buf.as_slice()));
        buf.len()
    });
    let response = Response::Labels {
        predictions: preds
            .iter()
            .map(|p| (p.label as u32, p.generation))
            .collect(),
    };
    tracer.time("wire.response", Some(root), req, || {
        let mut buf = Vec::new();
        let _ = wire::write_response(&mut buf, &response);
        let _ = black_box(wire::read_response(&mut buf.as_slice()));
    });
    bytes
}

/// The in-process layers below a runtime, replayed on an idle shadow
/// fleet built from the reference model with the runtime's config.
struct Below {
    fleet: ShardedModel<String>,
    classifier: CentroidClassifier,
}

impl Below {
    fn new(model: &Model<[f64]>) -> Result<Self, HdcError> {
        let config = RuntimeConfig::default();
        Ok(Self {
            fleet: ShardedModel::from_model(model, config.shards, config.seed)?,
            classifier: model.classifier().clone(),
        })
    }

    /// sharded → (route, readout → hamming), children of `parent`.
    fn replay(
        &self,
        tracer: &mut Tracer,
        parent: u64,
        req: u64,
        keys: &[&str],
        arena: &HypervectorBatch,
    ) {
        let (_, sharded) = tracer.time("sharded.predict", Some(parent), req, || {
            black_box(self.fleet.predict_batch(keys, arena))
        });
        tracer.time("hash.route", Some(sharded), req, || {
            black_box(self.fleet.route(keys))
        });
        let (_, readout) = tracer.time("learn.readout", Some(sharded), req, || {
            black_box(self.classifier.predict_rows(arena))
        });
        tracer.time("kernels.hamming", Some(readout), req, || {
            let mut sum = 0usize;
            for row in arena.rows() {
                for c in 0..self.classifier.classes() {
                    sum += kernels::hamming(
                        row.as_words(),
                        self.classifier.class_vector(c).as_words(),
                    );
                }
            }
            black_box(sum)
        });
    }
}

/// The shadow trainer a traced write stream replays fits into: a sampled
/// fit's observation is timed under its span, and every 256th fit the
/// trainer finalizes, as the live trainer publishes.
struct ShadowTrainer {
    trainer: CentroidTrainer,
    fits: usize,
    last_root: Option<(u64, u64)>,
}

impl ShadowTrainer {
    fn new(classes: usize) -> Result<Self, HdcError> {
        Ok(Self {
            trainer: CentroidTrainer::new(classes, DIM)?,
            fits: 0,
            last_root: None,
        })
    }

    /// Counts one live fit; `sampled` carries its root span and request id.
    fn fit(
        &mut self,
        tracer: &mut Tracer,
        sampled: Option<(u64, u64)>,
        hv: &BinaryHypervector,
        label: usize,
    ) {
        if let Some((root, req)) = sampled {
            self.last_root = sampled;
            let trainer = &mut self.trainer;
            let _ = tracer.time("learn.observe", Some(root), req, || {
                trainer.observe(hv, label)
            });
        }
        self.fits += 1;
        if let Some((root, req)) = self
            .last_root
            .filter(|_| self.fits.is_multiple_of(PUBLISH_EVERY))
        {
            let trainer = &self.trainer;
            tracer.time("learn.finish", Some(root), req, || {
                black_box(trainer.finish_deterministic(TieBreak::Alternate))
            });
        }
    }
}

/// Per-layer figures the in-process replays give (runtime → kernels).
fn below_metrics(layers: &mut Metrics, trace: &Trace, rows: f64, classes: f64) {
    let med = |v: Vec<f64>| load::median(&v);
    layers.insert(
        "sharded.self_us",
        (med(trace.self_times("sharded.predict", &[])), "us"),
    );
    layers.insert("hash.route_us", (med(trace.durations("hash.route")), "us"));
    layers.insert(
        "learn.readout_us_per_row",
        (med(trace.durations("learn.readout")) / rows, "us"),
    );
    layers.insert(
        "kernels.hamming_ns",
        (
            med(trace.durations("kernels.hamming")) * 1e3 / (rows * classes),
            "ns",
        ),
    );
}

fn wire_metrics(layers: &mut Metrics, trace: &Trace, request_bytes: &[f64]) {
    layers.insert("wire.request_bytes", (load::median(request_bytes), "bytes"));
    layers.insert(
        "wire.request_us",
        (load::median(&trace.durations("wire.request")), "us"),
    );
    layers.insert(
        "wire.response_us",
        (load::median(&trace.durations("wire.response")), "us"),
    );
}

// --- classify-tcp ----------------------------------------------------------

struct TcpSystem {
    runtime: Runtime<[f64]>,
    server: Server,
    clients: Vec<BlockingClient>,
}

impl TcpSystem {
    fn build(data: &Gestures) -> Result<Self, HdcError> {
        let runtime = Runtime::spawn(data.model()?, RuntimeConfig::default())?;
        let server = Server::spawn("127.0.0.1:0", runtime.handle())
            .map_err(|e| io_error("binding the server", e))?;
        let clients = (0..2)
            .map(|_| BlockingClient::connect(server.local_addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| io_error("connecting a client", e))?;
        Ok(Self {
            runtime,
            server,
            clients,
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
        self.runtime.shutdown();
    }
}

/// A predict stream over one connection, with optional replays.
struct TcpPredict<'a> {
    client: &'a mut BlockingClient,
    inputs: &'a Inputs,
    frames: Vec<Vec<(u32, u16)>>,
    log: &'a mut Vec<Answer>,
    trace: Option<(&'a mut Tracer, &'a TcpReplay, u64)>,
}

struct TcpReplay {
    handle: RuntimeHandle<[f64]>,
    below: Below,
    request_bytes: std::sync::Mutex<Vec<f64>>,
}

impl TcpPredict<'_> {
    fn call(&mut self, i: usize) -> bool {
        let frame = &self.frames[i];
        let pairs = self.inputs.pairs(frame);
        let sampled = self.trace.is_some() && i.is_multiple_of(SAMPLE_EVERY);
        let replay_pairs = sampled.then(|| pairs.clone());
        let t0 = Instant::now();
        let reply = self.client.predict_batch(pairs);
        let t1 = Instant::now();
        let Some(preds) = log_reply(frame, reply, self.log) else {
            return false;
        };
        if let (Some(pairs), Some((tracer, replay, stream))) = (replay_pairs, self.trace.as_mut()) {
            let req = (*stream << 32) | i as u64;
            let root = tracer.record("client.request", None, req, t0, t1);
            let bytes = replay_wire(tracer, root, req, pairs.clone(), &preds);
            replay
                .request_bytes
                .lock()
                .expect("byte log lock")
                .push(bytes as f64);
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let hvs: Vec<BinaryHypervector> = pairs.iter().map(|(_, hv)| hv.clone()).collect();
            let arena = HypervectorBatch::from_vectors(&hvs).expect("non-empty frame");
            let runtime_pairs = pairs.clone();
            let (_, runtime) = tracer.time("runtime.predict", Some(root), req, || {
                black_box(replay.handle.predict_encoded_many(runtime_pairs))
            });
            replay.below.replay(tracer, runtime, req, &keys, &arena);
        }
        true
    }
}

/// Runs `classify-tcp`.
pub fn run_tcp(args: &Args, plan: Plan) -> Result<RunResult, HdcError> {
    let data = Gestures::generate(args.seed);
    let mut reference = Reference::new(&data)?;
    let encode_start = Instant::now();
    let arena = reference
        .model
        .encode_batch(data.pool_rows.iter().map(Vec::as_slice));
    let encode_us_per_row = encode_start.elapsed().as_secs_f64() * 1e6 / arena.len() as f64;
    let inputs = Inputs {
        pool: (0..arena.len()).map(|i| arena.to_hypervector(i)).collect(),
        keys: (0..KEYS).map(|k| format!("session-{k}")).collect(),
    };
    let pool = inputs.pool.len();
    let tmp = TempDir::new()?;

    let (mut sys, setup_s) =
        timed_setups(SETUPS, |_| TcpSystem::build(&data), TcpSystem::shutdown)?;
    let mut result = RunResult::default();
    result.e2e.insert("setup_s", (setup_s, "s"));
    let mut fits: Vec<usize> = Vec::new();
    let mut rng = Rng::new(args.seed, 1);

    // Closed warm-up burst: fills caches and lazy state, checked, untimed.
    let mut warm = frames(&mut rng, WARMUP, TCP_FRAME, pool).into_iter();
    result.phases.push(warmup(|| {
        let frame = warm.next().unwrap_or_default();
        let mut log = Vec::new();
        let ok = log_reply(
            &frame,
            sys.clients[0].predict_batch(inputs.pairs(&frame)),
            &mut log,
        )
        .is_some();
        ok && reference.wrong(&log, &fits, &data) == 0
    }));

    let shadow_before = thread_ids();
    let replay = if args.trace {
        Some(TcpReplay {
            handle: sys.runtime.handle(),
            below: Below::new(&reference.model)?,
            request_bytes: std::sync::Mutex::new(Vec::new()),
        })
    } else {
        None
    };
    let shadow: BTreeSet<u64> = thread_ids().difference(&shadow_before).copied().collect();
    let epoch = Instant::now();
    let mut tracers = [Tracer::new(epoch, 1 << 40), Tracer::new(epoch, 2 << 40)];

    // Runs both predict streams at `multiple` × nominal for `seconds`.
    let predict_phase = |sys: &mut TcpSystem,
                         rng: &mut Rng,
                         multiple: f64,
                         seconds: f64,
                         traced: bool,
                         tracers: &mut [Tracer; 2]|
     -> (Vec<StreamRun>, Vec<Answer>) {
        let rate = plan.load.predict_rps * multiple / 2.0;
        let arrivals = [schedule(rate, seconds, rng), schedule(rate, seconds, rng)];
        let mut logs = [
            Vec::with_capacity(arrivals[0].len() * TCP_FRAME),
            Vec::with_capacity(arrivals[1].len() * TCP_FRAME),
        ];
        let runs = {
            let [c0, c1] = &mut sys.clients[..] else {
                unreachable!("two clients")
            };
            let [l0, l1] = &mut logs;
            let [t0, t1] = tracers;
            let replay = replay.as_ref().filter(|_| traced);
            let streams: Vec<Stream<'_>> = [(c0, l0, t0, 0u64), (c1, l1, t1, 1u64)]
                .into_iter()
                .zip(arrivals)
                .map(|((client, log, tracer, k), arrivals)| {
                    let frames = frames(rng, arrivals.len(), TCP_FRAME, pool);
                    let mut ctx = TcpPredict {
                        client,
                        inputs: &inputs,
                        frames,
                        log,
                        trace: replay.map(|r| (tracer, r, k)),
                    };
                    Stream {
                        arrivals,
                        call: Box::new(move |i| ctx.call(i)),
                    }
                })
                .collect();
            run_phase(streams)
        };
        let [a, b] = logs;
        (runs, [a, b].concat())
    };

    // Nominal phase.
    let stats0 = sys.runtime.handle().stats()?;
    let cpu0 = CpuSample::now();
    let (runs, log) = predict_phase(
        &mut sys,
        &mut rng,
        1.0,
        plan.nominal_s,
        args.trace,
        &mut tracers,
    );
    let cpu = CpuSample::now().since(&cpu0, &shadow);
    let stats1 = sys.runtime.handle().stats()?;
    let wrong = reference.wrong(&log, &fits, &data);
    let refs: Vec<&StreamRun> = runs.iter().collect();
    let all: Vec<load::Sample> = runs
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    latency_metrics(&mut result.e2e, "predict", &all);
    cpu_metrics(&mut result.e2e, &mut result.layers, &cpu, &refs);
    let nominal = phase("nominal", &refs, wrong);
    result
        .layers
        .insert("server.requests", (nominal.sent as f64, "count"));
    result
        .layers
        .insert("server.errors", (nominal.failed as f64, "count"));
    result.phases.push(nominal);
    runtime_counters(&mut result.layers, &[stats0], &[stats1]);
    settle();

    // Write probe: `fit` frames over the second connection.
    {
        let arrivals = schedule(plan.load.write_rps, plan.probe_s, &mut rng);
        let rows: Vec<usize> = (0..arrivals.len()).map(|_| rng.below(pool)).collect();
        fits.extend(&rows);
        let client = &mut sys.clients[1];
        let tracer = &mut tracers[1];
        let traced = args.trace;
        let mut shadow = ShadowTrainer::new(data.classes)?;
        let inputs = &inputs;
        let labels = &data.pool_labels;
        let runs = run_phase(vec![Stream {
            arrivals,
            call: Box::new(move |i| {
                let r = rows[i];
                let t0 = Instant::now();
                let ok = client.fit(&inputs.pool[r], labels[r]).is_ok();
                let t1 = Instant::now();
                if traced {
                    let sampled = (i % SAMPLE_EVERY == 0).then(|| {
                        let req = (3u64 << 32) | i as u64;
                        (tracer.record("client.fit", None, req, t0, t1), req)
                    });
                    shadow.fit(tracer, sampled, &inputs.pool[r], labels[r]);
                }
                ok
            }),
        }]);
        let refs: Vec<&StreamRun> = runs.iter().collect();
        latency_metrics(&mut result.e2e, "fit", &runs[0].samples);
        result.phases.push(phase("write-probe", &refs, 0));
    }
    // Rate ladder.
    let mut steps: Vec<Step> = Vec::new();
    for &multiple in plan.load.ladder {
        let (runs, log) = predict_phase(
            &mut sys,
            &mut rng,
            multiple,
            plan.step_s,
            false,
            &mut tracers,
        );
        let wrong = reference.wrong(&log, &fits, &data);
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

    let generations = sys.runtime.handle().stats()?.generation;
    result
        .layers
        .insert("runtime.generations", (generations as f64, "count"));

    // Recovery: warm restart from the runtime's snapshot.
    let query: Vec<(String, BinaryHypervector)> = (0..QUERY_SET)
        .map(|i| (inputs.keys[i % KEYS].clone(), inputs.pool[i % pool].clone()))
        .collect();
    let client = &mut sys.clients[1];
    client.refresh().map_err(|e| io_error("refresh", e))?;
    let before = client
        .predict_batch(query.clone())
        .map_err(|e| io_error("pre-restart query", e))?;
    let snapshot = client.snapshot().map_err(|e| io_error("snapshot", e))?;
    let path = tmp.path().join("classify.snap");
    snapshot.write(&path)?;
    let spec = reference.model.spec().clone();
    sys.shutdown();
    let mut recovery = Phase {
        name: "recovery".into(),
        ..Phase::default()
    };
    let recovery_s = timed_restarts(Duration::from_secs_f64(plan.recovery_s), || {
        restart(&spec, &path, "", &query, &before, &mut recovery)
    })?;
    result.phases.push(recovery);
    result.e2e.insert("recovery_s", (recovery_s, "s"));

    result
        .layers
        .insert("encode.us_per_row", (encode_us_per_row, "us"));
    if let Some(replay) = &replay {
        let trace = Trace::new(
            tracers
                .iter_mut()
                .flat_map(|t| std::mem::take(&mut t.spans))
                .collect(),
        );
        result.layers.insert(
            "server.self_us",
            (load::median(&trace.self_times("client.request", &[])), "us"),
        );
        result.layers.insert(
            "runtime.self_us",
            (
                load::median(&trace.self_times("runtime.predict", &[])),
                "us",
            ),
        );
        let bytes = replay.request_bytes.lock().expect("byte log lock").clone();
        wire_metrics(&mut result.layers, &trace, &bytes);
        below_metrics(
            &mut result.layers,
            &trace,
            TCP_FRAME as f64,
            data.classes as f64,
        );
        result.layers.insert(
            "learn.observe_us",
            (load::median(&trace.durations("learn.observe")), "us"),
        );
        result.spans = trace.spans;
    }
    Ok(result)
}

/// One warm restart from a snapshot file: spawns a runtime that loads it,
/// binds a server and connects, and returns the seconds from spawn to the
/// first answer. The restarted runtime's answers to `query` are counted
/// against the pre-shutdown ones in `recovery`.
fn restart(
    spec: &hdc_serve::PipelineSpec,
    path: &std::path::Path,
    name: &str,
    query: &[(String, BinaryHypervector)],
    before: &[Prediction],
    recovery: &mut Phase,
) -> Result<f64, HdcError> {
    let model = Pipeline::from_spec::<[f64]>(spec.clone())?;
    let start = Instant::now();
    let runtime = Runtime::spawn(
        model,
        RuntimeConfig {
            name: name.into(),
            load_snapshot: Some(path.to_path_buf()),
            ..RuntimeConfig::default()
        },
    )?;
    let server = Server::spawn("127.0.0.1:0", runtime.handle())
        .map_err(|e| io_error("binding the server", e))?;
    let mut client = BlockingClient::connect(server.local_addr())
        .map_err(|e| io_error("connecting a client", e))?;
    let first = client.predict(&query[0].0, &query[0].1);
    let seconds = start.elapsed().as_secs_f64();
    let after = client.predict_batch(query.to_vec());
    check_restart(recovery, before, first.ok(), after.ok());
    drop(client);
    server.shutdown();
    runtime.shutdown();
    Ok(seconds)
}

/// Counts one restart's answers against the pre-shutdown answers.
fn check_restart(
    recovery: &mut Phase,
    before: &[Prediction],
    first: Option<Prediction>,
    after: Option<Vec<Prediction>>,
) {
    recovery.sent += before.len() + 1;
    let first_ok = first.is_some_and(|p| p.label == before[0].label);
    let same = after.map_or(0, |after| {
        before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b.label == a.label)
            .count()
    });
    let good = same + usize::from(first_ok);
    recovery.succeeded += good;
    recovery.failed += before.len() + 1 - good;
}

/// Batches, rows per batch and publishes from `stats()` taken before and
/// after the nominal phase (summed over shards).
fn runtime_counters(
    layers: &mut Metrics,
    before: &[hdc_serve::RuntimeStats],
    after: &[hdc_serve::RuntimeStats],
) {
    let sum = |s: &[hdc_serve::RuntimeStats], f: fn(&hdc_serve::RuntimeStats) -> u64| -> f64 {
        s.iter().map(f).sum::<u64>() as f64
    };
    let batches = sum(after, |s| s.metrics.batches) - sum(before, |s| s.metrics.batches);
    let rows = sum(after, |s| s.metrics.requests) - sum(before, |s| s.metrics.requests);
    layers.insert("runtime.batches", (batches, "count"));
    layers.insert("runtime.rows_per_batch", (rows / batches.max(1.0), "count"));
}

// --- cluster-mixed ---------------------------------------------------------

struct Shard {
    runtime: Runtime<[f64]>,
    server: Server,
}

struct ClusterSystem {
    shards: Vec<Shard>,
    front: ClusterServer,
    clients: Vec<BlockingClient>,
}

/// Set-up timings of the snapshot layer: encode once, restore per shard.
#[derive(Default)]
struct SnapshotTimes {
    encode_ms: Vec<f64>,
    restore_ms: Vec<f64>,
}

impl ClusterSystem {
    /// Trains one model, then seeds every shard from its snapshot.
    fn build(data: &Gestures, times: &mut SnapshotTimes) -> Result<Self, HdcError> {
        let model = data.model()?;
        let start = Instant::now();
        let bytes = model.snapshot().to_bytes();
        times.encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let mut shards = Vec::with_capacity(SHARDS);
        for i in 0..SHARDS {
            let start = Instant::now();
            let shard_model = Pipeline::from_snapshot::<[f64]>(&Snapshot::from_bytes(&bytes)?)?;
            times.restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let runtime = Runtime::spawn(
                shard_model,
                RuntimeConfig {
                    name: format!("shard-{i}"),
                    ..RuntimeConfig::default()
                },
            )?;
            let server = Server::spawn("127.0.0.1:0", runtime.handle())
                .map_err(|e| io_error("binding a shard server", e))?;
            shards.push(Shard { runtime, server });
        }
        let backends = shards
            .iter()
            .map(|s| {
                RemoteShard::connect(&s.server.local_addr().to_string())
                    .map(|r| Box::new(r) as Box<dyn ShardBackend>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = ClusterRouter::new(backends, RingConfig::default(), 0)?;
        let front = ClusterServer::spawn("127.0.0.1:0", router, ClientConfig::default())
            .map_err(|e| io_error("binding the cluster front", e))?;
        let clients = (0..2)
            .map(|_| BlockingClient::connect(front.local_addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| io_error("connecting a client", e))?;
        Ok(Self {
            shards,
            front,
            clients,
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        drop(self.front.shutdown());
        for shard in self.shards {
            shard.server.shutdown();
            shard.runtime.shutdown();
        }
    }

    fn shard_stats(&self) -> Result<Vec<hdc_serve::RuntimeStats>, HdcError> {
        self.front
            .with_router(|r| r.shard_stats())
            .map(|v| v.into_iter().map(|(_, s)| s).collect())
    }
}

/// The cluster replay targets: a second router over the same shard
/// servers, one direct client per shard, and a shadow router over
/// in-process shards for fits.
struct ClusterReplay {
    router: ClusterRouter,
    shard_clients: Vec<BlockingClient>,
    local: ClusterRouter,
    local_runtimes: Vec<Runtime<[f64]>>,
    trainer: ShadowTrainer,
    request_bytes: Vec<f64>,
}

impl ClusterReplay {
    fn new(sys: &ClusterSystem, data: &Gestures) -> Result<Self, HdcError> {
        let addrs: Vec<String> = sys
            .shards
            .iter()
            .map(|s| s.server.local_addr().to_string())
            .collect();
        let remote = addrs
            .iter()
            .map(|a| RemoteShard::connect(a).map(|r| Box::new(r) as Box<dyn ShardBackend>))
            .collect::<Result<Vec<_>, _>>()?;
        let shard_clients = addrs
            .iter()
            .map(BlockingClient::connect)
            .collect::<Result<_, _>>()
            .map_err(|e| io_error("connecting a shard", e))?;
        let local_runtimes = (0..SHARDS)
            .map(|_| Runtime::spawn(data.model()?, RuntimeConfig::default()))
            .collect::<Result<Vec<_>, _>>()?;
        let local = local_runtimes
            .iter()
            .map(|r| Box::new(LocalShard::new(r.handle())) as Box<dyn ShardBackend>)
            .collect();
        Ok(Self {
            router: ClusterRouter::new(remote, RingConfig::default(), 0)?,
            shard_clients,
            local: ClusterRouter::new(local, RingConfig::default(), 0)?,
            local_runtimes,
            trainer: ShadowTrainer::new(data.classes)?,
            request_bytes: Vec::new(),
        })
    }

    fn shutdown(self) {
        drop(self.router);
        drop(self.shard_clients);
        drop(self.local);
        for runtime in self.local_runtimes {
            runtime.shutdown();
        }
    }
}

/// Runs `cluster-mixed`.
pub fn run_cluster(args: &Args, plan: Plan) -> Result<RunResult, HdcError> {
    let data = Gestures::generate(args.seed);
    let mut reference = Reference::new(&data)?;
    let encode_start = Instant::now();
    let arena = reference
        .model
        .encode_batch(data.pool_rows.iter().map(Vec::as_slice));
    let encode_us_per_row = encode_start.elapsed().as_secs_f64() * 1e6 / arena.len() as f64;
    let inputs = Inputs {
        pool: (0..arena.len()).map(|i| arena.to_hypervector(i)).collect(),
        keys: (0..KEYS).map(|k| format!("session-{k}")).collect(),
    };
    let pool = inputs.pool.len();
    let tmp = TempDir::new()?;

    let mut snap_times = SnapshotTimes::default();
    let (mut sys, setup_s) = timed_setups(
        SETUPS,
        |_| ClusterSystem::build(&data, &mut snap_times),
        ClusterSystem::shutdown,
    )?;
    let mut result = RunResult::default();
    result.e2e.insert("setup_s", (setup_s, "s"));
    let mut fits: Vec<usize> = Vec::new();
    let mut rng = Rng::new(args.seed, 2);

    let mut warm = frames(&mut rng, WARMUP, CLUSTER_FRAME, pool).into_iter();
    result.phases.push(warmup(|| {
        let frame = warm.next().unwrap_or_default();
        let mut log = Vec::new();
        let ok = log_reply(
            &frame,
            sys.clients[0].predict_batch(inputs.pairs(&frame)),
            &mut log,
        )
        .is_some();
        ok && reference.wrong(&log, &fits, &data) == 0
    }));

    let shadow_before = thread_ids();
    let mut replay = if args.trace {
        Some(ClusterReplay::new(&sys, &data)?)
    } else {
        None
    };
    let shadow: BTreeSet<u64> = thread_ids().difference(&shadow_before).copied().collect();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1 << 40);

    // One predict stream and one write stream at `multiple` × nominal.
    let mixed_phase = |sys: &mut ClusterSystem,
                       rng: &mut Rng,
                       fits: &mut Vec<usize>,
                       multiple: f64,
                       seconds: f64,
                       replay: Option<&mut ClusterReplay>,
                       tracer: &mut Tracer|
     -> (Vec<StreamRun>, Vec<Answer>) {
        let p_arrivals = schedule(plan.load.predict_rps * multiple, seconds, rng);
        let w_arrivals = schedule(plan.load.write_rps * multiple, seconds, rng);
        let p_frames = frames(rng, p_arrivals.len(), CLUSTER_FRAME, pool);
        let writes: Vec<(usize, u16)> = (0..w_arrivals.len())
            .map(|_| (rng.below(pool), rng.below(KEYS) as u16))
            .collect();
        fits.extend(
            writes
                .iter()
                .enumerate()
                .filter(|(i, _)| i % INSERT_EVERY != INSERT_EVERY - 1)
                .map(|(_, &(r, _))| r),
        );
        let mut log = Vec::with_capacity(p_frames.len() * CLUSTER_FRAME);
        let runs = {
            let [c0, c1] = &mut sys.clients[..] else {
                unreachable!("two clients")
            };
            let inputs = &inputs;
            let labels = &data.pool_labels;
            let log = &mut log;
            // The replay context is shared by both streams' samples; the
            // predict stream holds it, the write stream replays on its own.
            let (mut p_replay, mut w_replay) = match replay {
                Some(r) => {
                    let fit_router = &mut r.local;
                    let trainer = &mut r.trainer;
                    (
                        Some((&mut r.router, &mut r.shard_clients, &mut r.request_bytes)),
                        Some((fit_router, trainer)),
                    )
                }
                None => (None, None),
            };
            let mut w_tracer = Tracer::new(epoch, 2 << 40);
            let p_tracer = &mut *tracer;
            let predict = Stream {
                arrivals: p_arrivals,
                call: Box::new(move |i| {
                    let frame = &p_frames[i];
                    let pairs = inputs.pairs(frame);
                    let sampled = p_replay.is_some() && i % SAMPLE_EVERY == 0;
                    let replay_pairs = sampled.then(|| pairs.clone());
                    let t0 = Instant::now();
                    let reply = c0.predict_batch(pairs);
                    let t1 = Instant::now();
                    let Some(preds) = log_reply(frame, reply, log) else {
                        return false;
                    };
                    if let (Some(pairs), Some((router, clients, bytes))) =
                        (replay_pairs, p_replay.as_mut())
                    {
                        let req = i as u64;
                        let root = p_tracer.record("client.request", None, req, t0, t1);
                        let mut ctx = ClusterPredictReplay {
                            router,
                            clients,
                            bytes,
                        };
                        ctx.run(p_tracer, root, req, pairs, &preds);
                    }
                    true
                }),
            };
            let w_tracer_ref = &mut w_tracer;
            let write = Stream {
                arrivals: w_arrivals,
                call: Box::new(move |i| {
                    let (r, k) = writes[i];
                    let hv = &inputs.pool[r];
                    let t0 = Instant::now();
                    let ok = if i % INSERT_EVERY == INSERT_EVERY - 1 {
                        c1.insert(&inputs.keys[k as usize], hv).is_ok()
                    } else {
                        let ok = c1.fit(hv, labels[r]).is_ok();
                        let t1 = Instant::now();
                        if let Some((router, trainer)) = w_replay.as_mut() {
                            let sampled = (i % SAMPLE_EVERY == 0).then(|| {
                                let req = (1u64 << 32) | i as u64;
                                let root = w_tracer_ref.record("client.fit", None, req, t0, t1);
                                let _ = w_tracer_ref.time("cluster.fit", Some(root), req, || {
                                    router.fit_encoded(hv, labels[r])
                                });
                                (root, req)
                            });
                            trainer.fit(w_tracer_ref, sampled, hv, labels[r]);
                        }
                        ok
                    };
                    ok
                }),
            };
            let runs = run_phase(vec![predict, write]);
            tracer.spans.append(&mut w_tracer.spans);
            runs
        };
        (runs, log)
    };

    let stats0 = sys.shard_stats()?;
    let cpu0 = CpuSample::now();
    let (runs, log) = mixed_phase(
        &mut sys,
        &mut rng,
        &mut fits,
        1.0,
        plan.nominal_s,
        replay.as_mut(),
        &mut tracer,
    );
    let cpu = CpuSample::now().since(&cpu0, &shadow);
    let stats1 = sys.shard_stats()?;
    let wrong = reference.wrong(&log, &fits, &data);
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
    cpu_metrics(&mut result.e2e, &mut result.layers, &cpu, &refs);
    let nominal = phase("nominal", &refs, wrong);
    result
        .layers
        .insert("server.requests", (nominal.sent as f64, "count"));
    result
        .layers
        .insert("server.errors", (nominal.failed as f64, "count"));
    result.phases.push(nominal);
    runtime_counters(&mut result.layers, &stats0, &stats1);
    settle();

    let mut steps: Vec<Step> = Vec::new();
    for &multiple in plan.load.ladder {
        let (runs, log) = mixed_phase(
            &mut sys,
            &mut rng,
            &mut fits,
            multiple,
            plan.step_s,
            None,
            &mut tracer,
        );
        let wrong = reference.wrong(&log, &fits, &data);
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
    let (lag, deferred) = sys
        .front
        .with_router(|r| (r.lagging_shards().len(), r.deferred_cleanup()));
    result
        .layers
        .insert("cluster.lagging_shards", (lag as f64, "count"));
    result
        .layers
        .insert("cluster.deferred_removals", (deferred as f64, "count"));
    let generations = sys
        .shard_stats()?
        .iter()
        .map(|s| s.generation)
        .max()
        .unwrap_or(0);
    result
        .layers
        .insert("runtime.generations", (generations as f64, "count"));

    // Recovery: restart shard 0 from its snapshot.
    let query: Vec<(String, BinaryHypervector)> = (0..QUERY_SET)
        .map(|i| (inputs.keys[i % KEYS].clone(), inputs.pool[i % pool].clone()))
        .collect();
    sys.front
        .with_router(|r| r.refresh())
        .map_err(|e| HdcError::Transport(format!("cluster refresh: {e}")))?;
    let shard0 = sys.shards.remove(0);
    let mut direct = BlockingClient::connect(shard0.server.local_addr())
        .map_err(|e| io_error("connecting shard 0", e))?;
    let before = direct
        .predict_batch(query.clone())
        .map_err(|e| io_error("pre-restart query", e))?;
    let snapshot = direct.snapshot().map_err(|e| io_error("snapshot", e))?;
    let path = tmp.path().join("shard0.snap");
    snapshot.write(&path)?;
    drop(direct);
    let spec = reference.model.spec().clone();
    shard0.server.shutdown();
    shard0.runtime.shutdown();
    let mut recovery = Phase {
        name: "recovery".into(),
        ..Phase::default()
    };
    let recovery_s = timed_restarts(Duration::from_secs_f64(plan.recovery_s), || {
        restart(&spec, &path, "shard-0", &query, &before, &mut recovery)
    })?;
    result.phases.push(recovery);
    result.e2e.insert("recovery_s", (recovery_s, "s"));
    sys.shutdown();

    result
        .layers
        .insert("encode.us_per_row", (encode_us_per_row, "us"));
    result.layers.insert(
        "snapshot.encode_ms",
        (load::median(&snap_times.encode_ms), "ms"),
    );
    result.layers.insert(
        "snapshot.restore_ms",
        (load::median(&snap_times.restore_ms), "ms"),
    );
    if let Some(replay) = replay {
        let trace = Trace::new(std::mem::take(&mut tracer.spans));
        let med = |v: Vec<f64>| load::median(&v);
        result.layers.insert(
            "cluster.front_us",
            (med(trace.self_times("client.request", &[])), "us"),
        );
        result.layers.insert(
            "cluster.router_us",
            (med(trace.durations("cluster.router")), "us"),
        );
        result.layers.insert(
            "cluster.self_us",
            (
                med(trace.self_times("cluster.router", &["cluster.shard_rpc"])),
                "us",
            ),
        );
        result.layers.insert(
            "cluster.shard_rpc_us",
            (med(trace.durations("cluster.shard_rpc")), "us"),
        );
        let rpcs = trace.child_counts("cluster.router", "cluster.shard_rpc");
        result.layers.insert(
            "cluster.rpcs_per_request",
            (rpcs.iter().sum::<f64>() / rpcs.len().max(1) as f64, "count"),
        );
        result.layers.insert(
            "cluster.fit_us",
            (med(trace.durations("cluster.fit")), "us"),
        );
        result.layers.insert(
            "learn.observe_us",
            (med(trace.durations("learn.observe")), "us"),
        );
        result.layers.insert(
            "learn.finish_ms",
            (med(trace.durations("learn.finish")) / 1e3, "ms"),
        );
        wire_metrics(&mut result.layers, &trace, &replay.request_bytes);
        replay.shutdown();
        result.spans = trace.spans;
    }
    Ok(result)
}

/// The predict half of [`ClusterReplay`], borrowed by the predict stream.
struct ClusterPredictReplay<'a> {
    router: &'a mut ClusterRouter,
    clients: &'a mut Vec<BlockingClient>,
    bytes: &'a mut Vec<f64>,
}

impl ClusterPredictReplay<'_> {
    fn run(
        &mut self,
        tracer: &mut Tracer,
        root: u64,
        req: u64,
        pairs: Vec<(String, BinaryHypervector)>,
        preds: &[Prediction],
    ) {
        let bytes = replay_wire(tracer, root, req, pairs.clone(), preds);
        self.bytes.push(bytes as f64);
        let (_, router) = tracer.time("cluster.router", Some(root), req, || {
            black_box(self.router.predict_batch(&pairs))
        });
        let mut by_shard: Vec<Vec<(String, BinaryHypervector)>> = vec![Vec::new(); SHARDS];
        for pair in pairs {
            let owner = self.router.shard_of(&pair.0);
            by_shard[owner].push(pair);
        }
        for (client, sub) in self.clients.iter_mut().zip(by_shard) {
            if !sub.is_empty() {
                let _ = tracer.time("cluster.shard_rpc", Some(router), req, || {
                    black_box(client.predict_batch(sub))
                });
            }
        }
    }
}
