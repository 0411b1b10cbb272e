//! Open-loop serving benchmark of the HDC serving stack.
//!
//! One process builds the real system (runtimes, durable store, loopback
//! servers, shard cluster), drives one workload against it from at most
//! two generator threads over at most two client connections, checks every
//! answer against a reference model rebuilt offline, and prints the
//! end-to-end metrics. With `--trace 1` it instead replays each sampled
//! request through the public entry point of every layer below it and
//! prints the per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path loadbench/Cargo.toml -- \
//!     --workload classify-tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Human-readable phase counts and provenance go to standard error.

mod classify;
mod load;
mod procfs;
mod regress;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hdc_serve::HdcError;

use crate::load::{backlog_grows, latencies, quantile, Sample, StreamRun};

/// Where results and traces are written, relative to the checkout root.
const OUT_DIR: &str = "loadbench/out";
/// Parent of the per-run scratch directories (stores, snapshots).
const TMP_DIR: &str = ".loadbench_tmp";
/// How many times a run builds the system to time set-up.
pub const SETUPS: usize = 15;
/// How many times a run restarts the system to time recovery.
pub const RECOVERIES: usize = 25;
/// Every how many requests of a stream one is replayed in a traced run.
pub const SAMPLE_EVERY: usize = 8;
/// Observations between generation publishes (`refresh_every`, the
/// runtime default every workload serves with).
pub const PUBLISH_EVERY: usize = 256;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("predict_p50_us", "us"),
    ("fit_p50_us", "us"),
    ("max_rps", "requests/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("failed_ratio", "ratio"),
    ("recovery_s", "s"),
];

/// The per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.requests", "count"),
    ("server.self_us", "us"),
    ("server.cpu_s", "s"),
    ("server.errors", "count"),
    ("wire.request_bytes", "bytes"),
    ("wire.request_us", "us"),
    ("wire.response_us", "us"),
    ("cluster.front_us", "us"),
    ("cluster.router_us", "us"),
    ("cluster.self_us", "us"),
    ("cluster.shard_rpc_us", "us"),
    ("cluster.rpcs_per_request", "count"),
    ("cluster.fit_us", "us"),
    ("cluster.cpu_s", "s"),
    ("cluster.lagging_shards", "count"),
    ("cluster.deferred_removals", "count"),
    ("runtime.self_us", "us"),
    ("runtime.batches", "count"),
    ("runtime.rows_per_batch", "count"),
    ("runtime.dispatch_cpu_s", "s"),
    ("runtime.train_cpu_s", "s"),
    ("runtime.generations", "count"),
    ("sharded.self_us", "us"),
    ("hash.route_us", "us"),
    ("encode.us_per_row", "us"),
    ("learn.readout_us_per_row", "us"),
    ("learn.observe_us", "us"),
    ("learn.finish_ms", "ms"),
    ("kernels.hamming_ns", "ns"),
    ("kernels.masked_sum_ns", "ns"),
    ("store.append_us", "us"),
    ("store.commit_wait_us", "us"),
    ("store.fsync_us", "us"),
    ("store.fsyncs", "count"),
    ("store.acks_per_fsync", "count"),
    ("store.bytes_per_record", "bytes"),
    ("store.flush_cpu_s", "s"),
    ("store.snapshots", "count"),
    ("store.install_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.replayed", "count"),
    ("wal_bytes_per_write", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("process.other_cpu_s", "s"),
    ("generator.late_p99_us", "us"),
    ("generator.cpu_s", "s"),
];

/// The frozen per-workload load settings.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Nominal predict requests per second (both predict streams together
    /// when a workload has two).
    pub predict_rps: f64,
    /// Nominal write requests per second.
    pub write_rps: f64,
    /// Ladder steps as multiples of the nominal rates.
    pub ladder: &'static [f64],
    /// p99 latency limit of a ladder step, µs. It sits above the stalls of
    /// up to about 100 ms a shared 2-core host imposes, so a rung fails on
    /// overload rather than on one stall.
    pub p99_limit_us: f64,
}

/// How a run splits `--seconds` between its phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload's frozen load settings.
    pub load: Load,
    /// Seconds of the nominal phase.
    pub nominal_s: f64,
    /// Seconds of each ladder step.
    pub step_s: f64,
    /// Seconds of a workload's write probe, where it has one.
    pub probe_s: f64,
    /// Seconds the recovery restarts are spread over.
    pub recovery_s: f64,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the inputs: datasets, keys, arrivals.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// One phase's request counts.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered correctly in time.
    pub succeeded: usize,
    /// Errors, timeouts and wrong answers.
    pub failed: usize,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Counts per phase.
    pub phases: Vec<Phase>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
    /// Provenance facts the workload adds (e.g. the store's filesystem).
    pub facts: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Attempted and failed requests over the phases `failed_ratio`
    /// covers: the nominal phase and the recovery check.
    fn scored(&self) -> (usize, usize) {
        self.phases
            .iter()
            .filter(|p| p.name == "nominal" || p.name == "recovery")
            .fold((0, 0), |(a, f), p| (a + p.sent, f + p.failed))
    }
}

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.loadbench_tmp/run-<pid>-<nanos>`.
    pub fn new() -> Result<Self, HdcError> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(TMP_DIR).join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| io_error("creating the scratch directory", e))?;
        Ok(Self(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = fs::remove_dir(TMP_DIR);
    }
}

/// Wraps an I/O error as the stack's error type.
pub fn io_error(what: &str, e: std::io::Error) -> HdcError {
    HdcError::Storage(format!("{what}: {e}"))
}

/// Builds the system `count` times with `build`, keeping the last one;
/// returns it with the typical build time in seconds ([`trimmed_mean`]).
/// Earlier builds are torn down with `teardown`.
pub fn timed_setups<S>(
    count: usize,
    mut build: impl FnMut(usize) -> Result<S, HdcError>,
    mut teardown: impl FnMut(S),
) -> Result<(S, f64), HdcError> {
    let mut times = Vec::with_capacity(count);
    let mut kept = None;
    for i in 0..count {
        let start = Instant::now();
        let system = build(i)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(system) {
            teardown(old);
        }
    }
    let system = kept.ok_or(HdcError::EmptyInput)?;
    Ok((system, trimmed_mean("setup", &times)))
}

/// The interquartile mean of repeated timings (seconds): the lowest and
/// highest quarter are dropped and the rest averaged. Robust to a stray
/// slow repetition like a median, but smooth where the timings fall into
/// two modes, where a median jumps between them. Printed with every value.
pub fn trimmed_mean(what: &str, seconds: &[f64]) -> f64 {
    let ms: Vec<String> = seconds.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    eprintln!("  {what} times (ms): {}", ms.join(" "));
    let mut sorted = seconds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Restarts the system [`RECOVERIES`] times, spread evenly over `window`,
/// and returns the fastest restart's time in seconds (`restart` restarts
/// it once and returns its time). Every restart does the same work, so the
/// fastest is the one the shared host disturbed least, and spreading them
/// outlasts a load burst on the host of a second or two; the middle of the
/// times moves with the host's load. Every time is printed.
pub fn timed_restarts(
    window: Duration,
    mut restart: impl FnMut() -> Result<f64, HdcError>,
) -> Result<f64, HdcError> {
    let start = Instant::now();
    let mut times = Vec::with_capacity(RECOVERIES);
    for i in 0..RECOVERIES {
        let due = start + window.mul_f64(i as f64 / RECOVERIES as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        times.push(restart()?);
    }
    let ms: Vec<String> = times.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    eprintln!("  recovery times (ms): {}", ms.join(" "));
    Ok(times.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Requests of the closed warm-up burst before the nominal phase.
pub const WARMUP: usize = 40;

/// A closed, untimed warm-up burst that fills caches and lazy state; each
/// call reports whether its answer was correct.
pub fn warmup(mut call: impl FnMut() -> bool) -> Phase {
    let ok = (0..WARMUP).filter(|_| call()).count();
    Phase {
        name: "warmup".into(),
        sent: WARMUP,
        succeeded: ok,
        failed: WARMUP - ok,
    }
}

/// Latency percentiles of a set of samples into `e2e` under `prefix`.
/// Only the medians are bounded end-to-end metrics; the tail percentiles
/// swing by more than any allowed bound from run to run on a shared
/// 2-core host, so they are printed and kept in the result file only.
pub fn latency_metrics(e2e: &mut Metrics, prefix: &str, samples: &[Sample]) {
    let lat = latencies(samples);
    let names: [(&'static str, f64); 3] = match prefix {
        "predict" => [
            ("predict_p50_us", 0.5),
            ("predict_p90_us", 0.9),
            ("predict_p99_us", 0.99),
        ],
        _ => [
            ("fit_p50_us", 0.5),
            ("fit_p90_us", 0.9),
            ("fit_p99_us", 0.99),
        ],
    };
    for (name, q) in names {
        e2e.insert(name, (quantile(&lat, q), "us"));
    }
    eprintln!(
        "  {prefix:<8} n={:<6} p50 {:>9.0}  p90 {:>9.0}  p95 {:>9.0}  p99 {:>9.0}  p99.9 {:>9.0} us",
        lat.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        quantile(&lat, 0.95),
        quantile(&lat, 0.99),
        quantile(&lat, 0.999)
    );
}

/// A phase's request counts; `wrong` is the number of answers the
/// reference check rejected.
pub fn phase(name: &str, runs: &[&StreamRun], wrong: usize) -> Phase {
    let sent: usize = runs.iter().map(|r| r.samples.len()).sum();
    let bad: usize = runs
        .iter()
        .map(|r| r.samples.iter().filter(|s| !s.ok).count())
        .sum::<usize>()
        + wrong;
    Phase {
        name: name.to_string(),
        sent,
        succeeded: sent.saturating_sub(bad),
        failed: bad.min(sent),
    }
}

/// CPU and generator figures of the nominal phase.
pub fn cpu_metrics(
    e2e: &mut Metrics,
    layers: &mut Metrics,
    cpu: &BTreeMap<&'static str, f64>,
    runs: &[&StreamRun],
) {
    let generator: f64 = runs.iter().map(|r| r.cpu_s).sum();
    let completed = runs
        .iter()
        .flat_map(|r| r.samples.iter())
        .filter(|s| s.ok)
        .count()
        .max(1);
    let process = cpu.get("process").copied().unwrap_or(0.0);
    e2e.insert(
        "cpu_us_per_op",
        (
            (process - generator).max(0.0) * 1e6 / completed as f64,
            "us",
        ),
    );
    let late: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.late_us))
        .collect();
    layers.insert("generator.late_p99_us", (quantile(&late, 0.99), "us"));
    layers.insert("generator.cpu_s", (generator, "s"));
    // Generator threads are named, so "other" already excludes them.
    let get = |k: &str| cpu.get(k).copied().unwrap_or(0.0);
    layers.insert("process.other_cpu_s", (get("other"), "s"));
    layers.insert("server.cpu_s", (get("server.conn"), "s"));
    layers.insert("cluster.cpu_s", (get("cluster.conn"), "s"));
    layers.insert("runtime.dispatch_cpu_s", (get("runtime.dispatch"), "s"));
    layers.insert("runtime.train_cpu_s", (get("runtime.train"), "s"));
    layers.insert("store.flush_cpu_s", (get("store.flush"), "s"));
}

/// One rung of the rate ladder as measured.
#[derive(Debug, Clone)]
pub struct Step {
    /// Multiple of the nominal rates.
    pub multiple: f64,
    /// Completed requests per second over the step.
    pub achieved_rps: f64,
    /// The highest p99 latency of its streams, µs.
    pub p99_us: f64,
    /// Whether the step met every condition.
    pub passed: bool,
    /// Why it did not.
    pub note: String,
}

/// Judges one ladder step: each stream's p99 under the limit, nothing
/// failed, and no stream's lateness grew. `wrong` counts answers the
/// reference check rejected in the step.
pub fn judge_step(multiple: f64, runs: &[&StreamRun], limit_us: f64, wrong: usize) -> Step {
    let mut notes = Vec::new();
    let mut completed = 0usize;
    let mut span: f64 = 0.0;
    let mut worst_p99: f64 = 0.0;
    for (k, run) in runs.iter().enumerate() {
        let p99 = quantile(&latencies(&run.samples), 0.99);
        worst_p99 = worst_p99.max(p99);
        if p99 > limit_us {
            notes.push(format!("stream {k} p99 {p99:.0} us"));
        }
        let failed = run.samples.iter().filter(|s| !s.ok).count();
        if failed > 0 {
            notes.push(format!("stream {k} {failed} failed"));
        }
        if backlog_grows(&run.samples) {
            notes.push(format!("stream {k} backlog grows"));
        }
        completed += run.samples.len() - failed;
        span = span.max(run.span_s);
    }
    if wrong > 0 {
        notes.push(format!("{wrong} wrong answers"));
    }
    Step {
        multiple,
        achieved_rps: completed as f64 / span.max(1e-9),
        p99_us: worst_p99,
        passed: notes.is_empty(),
        note: notes.join(", "),
    }
}

/// Prints every rung and returns `max_rps`: the achieved rate of the
/// highest passing rung (0 if none).
pub fn max_rps(steps: &[Step]) -> f64 {
    for s in steps {
        let verdict = match s.passed {
            true => "pass".to_string(),
            false => format!("FAIL ({})", s.note),
        };
        eprintln!(
            "  ladder x{:<4} achieved {:>8.1} req/s  p99 {:>9.0} us  {verdict}",
            s.multiple, s.achieved_rps, s.p99_us
        );
    }
    steps
        .iter()
        .filter(|s| s.passed)
        .map(|s| s.achieved_rps)
        .next_back()
        .unwrap_or(0.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn plan(load: Load, seconds: f64) -> Plan {
    Plan {
        load,
        nominal_s: 0.6 * seconds,
        step_s: 0.3 * seconds / load.ladder.len() as f64,
        probe_s: 0.1 * seconds,
        recovery_s: 0.1 * seconds,
    }
}

fn provenance(args: &Args, extra: &[(&'static str, String)]) -> Vec<(&'static str, String)> {
    let mut facts = vec![
        ("nproc", procfs::nproc().to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "minipool_threads",
            std::env::var("MINIPOOL_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "kernel_backend",
            hdc_core::kernels::dispatch::selected_backend()
                .name()
                .to_string(),
        ),
        ("git_revision", procfs::git_revision()),
        ("seed", args.seed.to_string()),
        ("generator_threads", "2".into()),
        ("client_connections", "2".into()),
    ];
    facts.extend(extra.iter().cloned());
    facts
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push('}');
    out
}

/// The result file of the untraced run to measure tracing overhead
/// against: the same seed's if present, else the newest of the workload.
fn untraced_baseline(args: &Args, stem: &str) -> Option<(String, String)> {
    let same_seed = format!("{stem}_t0.json");
    let prefix = format!("BENCH_{}_s", args.workload);
    let newest = || {
        fs::read_dir(OUT_DIR)
            .ok()?
            .flatten()
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with(&prefix) && name.ends_with("_t0.json")
            })
            .max_by_key(|e| e.metadata().and_then(|m| m.modified()).ok())
            .map(|e| e.path().display().to_string())
    };
    let path = Some(same_seed)
        .filter(|p| Path::new(p).exists())
        .or_else(newest)?;
    let text = fs::read_to_string(&path).ok()?;
    Some((path, text))
}

/// Reads a metric value back from a result file this tool wrote.
fn read_metric(text: &str, name: &str) -> Option<f64> {
    let at = text.find(&format!("\"{name}\":{{\"value\":"))? + name.len() + 12;
    let rest = &text[at..];
    let end = rest.find(',')?;
    rest[..end].parse().ok()
}

fn complete(names: &[(&'static str, &'static str)], got: &Metrics) -> Metrics {
    names
        .iter()
        .map(|(name, unit)| {
            let value = got.get(name).map_or(0.0, |(v, _)| *v);
            (*name, (value, *unit))
        })
        .collect()
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["classify-tcp", "regress-durable", "cluster-mixed"];

fn run(args: &Args) -> Result<RunResult, HdcError> {
    match args.workload.as_str() {
        "classify-tcp" => classify::run_tcp(args, plan(classify::TCP_LOAD, args.seconds)),
        "cluster-mixed" => classify::run_cluster(args, plan(classify::CLUSTER_LOAD, args.seconds)),
        _ => regress::run(args, plan(regress::LOAD, args.seconds)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadbench: {message}");
            eprintln!(
                "usage: loadbench --workload <classify-tcp|regress-durable|cluster-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut result = match run(&args) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("loadbench: {} failed: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    result
        .e2e
        .insert("peak_rss_mb", (procfs::peak_rss_mib(), "MiB"));
    let (attempted, failed) = result.scored();
    // Add-one estimate: a clean run reads 1/(attempted+1), never 0, and
    // every failure raises it.
    result.e2e.insert(
        "failed_ratio",
        ((failed + 1) as f64 / (attempted + 1) as f64, "ratio"),
    );
    let wrong_anywhere = result
        .phases
        .iter()
        .any(|p| p.failed > 0 && !p.name.starts_with("ladder"));
    let correct = !wrong_anywhere;

    let facts = provenance(&args, &result.facts);
    eprintln!(
        "loadbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &facts {
        eprintln!("  {k} = {v}");
    }
    for p in &result.phases {
        eprintln!(
            "  phase {:<12} sent {:>6}  succeeded {:>6}  failed {:>4}",
            p.name, p.sent, p.succeeded, p.failed
        );
    }
    let e2e = complete(END_TO_END, &result.e2e);
    let layers = complete(PER_LAYER, &result.layers);
    let shown = if args.trace { &layers } else { &e2e };
    for (name, (value, unit)) in shown {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }

    let _ = fs::create_dir_all(OUT_DIR);
    let stem = format!("{}/BENCH_{}_s{}", OUT_DIR, args.workload, args.seed);
    if args.trace {
        // Tracing overhead: this run's end-to-end figures minus those of the
        // untraced run of the same workload and seed, or else of the latest
        // untraced run of the workload.
        match untraced_baseline(&args, &stem) {
            Some((path, baseline)) => {
                eprintln!("  tracing overhead (traced - untraced {path}):");
                for (name, (value, unit)) in &e2e {
                    if let Some(base) = read_metric(&baseline, name) {
                        eprintln!("    {name:<26} {:>+14.4} {unit}", value - base);
                    }
                }
            }
            None => eprintln!("  tracing overhead: no untraced run of this workload to compare"),
        }
        let spans = trace::Trace::new(std::mem::take(&mut result.spans));
        let _ = fs::write(format!("{stem}_trace.jsonl"), spans.to_jsonl());
    }
    let mut file = String::from("{\"host\":{");
    for (i, (k, v)) in facts.iter().enumerate() {
        if i > 0 {
            file.push(',');
        }
        let _ = write!(file, "\"{k}\":\"{v}\"");
    }
    let _ = writeln!(
        file,
        "}},\"workload\":\"{}\",\"seconds\":{},\"trace\":{},\"e2e\":{},\"per_layer\":{}}}",
        args.workload,
        args.seconds,
        args.trace,
        metrics_json(&result.e2e),
        metrics_json(&layers)
    );
    let _ = fs::write(format!("{stem}_t{}.json", u8::from(args.trace)), file);

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(shown)
    );
    ExitCode::SUCCESS
}

/// Sleeps briefly so the system under test settles between phases.
pub fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}
