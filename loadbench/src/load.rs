//! The open-loop load generator: seeded arrival schedules, one generator
//! thread per stream, and the statistics a phase is judged by.
//!
//! Each request is timed from its *scheduled* send time, so a stall that
//! delays later sends is charged to them (no coordinated omission). A
//! generator thread blocks on each call, so it also records how late it
//! sent each request against its schedule.

use std::thread;
use std::time::{Duration, Instant};

use crate::procfs::own_thread_cpu_s;

/// A request slower than this counts as a timeout.
pub const TIMEOUT: Duration = Duration::from_secs(1);

/// Lateness growth, from a step's first third to its last, that marks a
/// growing backlog.
const BACKLOG_GROWTH_US: f64 = 1_000.0;

/// The benchmark's own seeded generator (SplitMix64): the system under
/// test never sees it, only the inputs it picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Arrival offsets of one stream over a phase: a Poisson process at
/// `rate` per second conditioned on its expected count, i.e. that many
/// uniform times, sorted. The fixed count keeps the write stream's length,
/// and so the log the recovery check replays, the same for every seed.
pub fn schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<Duration> {
    let count = (rate * seconds).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times.into_iter().map(Duration::from_secs_f64).collect()
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Microseconds the send started after its scheduled time.
    pub late_us: f64,
    /// Microseconds from the scheduled send to the reply.
    pub latency_us: f64,
    /// The call returned without error within [`TIMEOUT`].
    pub ok: bool,
}

/// The outcome of one stream over one phase.
#[derive(Debug, Clone, Default)]
pub struct StreamRun {
    /// One entry per scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// CPU seconds of the generator thread itself.
    pub cpu_s: f64,
    /// Wall seconds from the phase start to the stream's last reply.
    pub span_s: f64,
}

/// One open-loop stream: its schedule and the call it makes. The call gets
/// the request's index in the schedule and reports success.
pub struct Stream<'a> {
    /// Arrival offsets from the phase start.
    pub arrivals: Vec<Duration>,
    /// Issues request `i`, blocking until its reply.
    pub call: Box<dyn FnMut(usize) -> bool + Send + 'a>,
}

/// Runs every stream on its own generator thread (`lb-gen-<k>`) against a
/// shared start time, and waits for all of them.
pub fn run_phase(streams: Vec<Stream<'_>>) -> Vec<StreamRun> {
    let start = Instant::now() + Duration::from_millis(2);
    thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(k, stream)| {
                thread::Builder::new()
                    .name(format!("lb-gen-{k}"))
                    .spawn_scoped(scope, move || drive(start, stream))
                    .expect("spawning a generator thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

fn drive(start: Instant, mut stream: Stream<'_>) -> StreamRun {
    let cpu0 = own_thread_cpu_s();
    let mut samples = Vec::with_capacity(stream.arrivals.len());
    let mut last = start;
    for (i, offset) in stream.arrivals.iter().enumerate() {
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = (stream.call)(i);
        let done = Instant::now();
        last = done;
        let latency = done.saturating_duration_since(due);
        samples.push(Sample {
            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            latency_us: latency.as_secs_f64() * 1e6,
            ok: ok && latency <= TIMEOUT,
        });
    }
    StreamRun {
        samples,
        cpu_s: own_thread_cpu_s() - cpu0,
        span_s: last.saturating_duration_since(start).as_secs_f64(),
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation; `0`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies of a set of samples.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_us).collect()
}

/// Whether a step's send lateness grew from its first third to its last.
/// Medians, so one storage stall that delays a few sends is not a backlog;
/// an overloaded step's lateness grows for every send after the onset.
pub fn backlog_grows(samples: &[Sample]) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let late = |s: &[Sample]| median(&s.iter().map(|x| x.late_us).collect::<Vec<_>>());
    late(&samples[samples.len() - third..]) > late(&samples[..third]) + BACKLOG_GROWTH_US
}
