//! Serving metrics: queue depth, request/batch counters and the batch-size
//! and latency distributions of the micro-batching runtime.
//!
//! [`ServeMetrics`] is the live, shared instrument — lock-free counters for
//! the hot path plus a batch-size [`dirstats::LinearHistogram`] and a
//! latency [`dirstats::LogHistogram`] behind one mutex that is only taken
//! once per *batch*, not per request. A
//! [`MetricsSnapshot`] is the plain-data copy exported through
//! [`RuntimeStats`](crate::RuntimeStats) and the wire protocol's `stats`
//! operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dirstats::{LinearHistogram, LogHistogram};

/// Latency histogram range (µs): 1 µs to 60 s; slower requests clamp into
/// the top bucket.
const LATENCY_MIN_US: f64 = 1.0;
const LATENCY_MAX_US: f64 = 60_000_000.0;

/// Relative error of the reported latency percentiles (log buckets).
const LATENCY_RELATIVE_ERROR: f64 = 0.02;

/// Live counters and histograms of one serving runtime, shared between the
/// ingestion handles (enqueue side) and the dispatcher (dequeue/serve side).
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    queue_depth: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
    fits: AtomicU64,
    histograms: Mutex<Histograms>,
}

#[derive(Debug)]
struct Histograms {
    batch_sizes: LinearHistogram,
    latency_us: LogHistogram,
}

impl ServeMetrics {
    /// Creates metrics for a runtime whose micro-batches hold at most
    /// `max_batch` requests (sizes the batch-size histogram: one bin per
    /// possible size, capped at 256 bins).
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        let top = max_batch.max(1) as f64;
        let bins = max_batch.clamp(1, 256);
        Self {
            started: Instant::now(),
            queue_depth: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            fits: AtomicU64::new(0),
            histograms: Mutex::new(Histograms {
                batch_sizes: LinearHistogram::new(0.0, top, bins)
                    .expect("max_batch >= 1 yields a valid range"),
                latency_us: LogHistogram::new(
                    LATENCY_MIN_US,
                    LATENCY_MAX_US,
                    LATENCY_RELATIVE_ERROR,
                )
                .expect("constant range is valid"),
            }),
        }
    }

    /// Time since these metrics (i.e. their runtime) were created — the
    /// uptime reported by `stats` and the `ping` health probe, so load
    /// balancers can tell a fresh runtime from a long-lived one without
    /// issuing a prediction.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records `n` work items entering the ingestion queue.
    pub fn enqueued(&self, n: usize) {
        self.queue_depth.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records `n` work items leaving the queue (picked up by the
    /// dispatcher, or abandoned by a failed send).
    pub fn dequeued(&self, n: usize) {
        self.queue_depth.fetch_sub(n as u64, Ordering::Relaxed);
    }

    /// Records one served micro-batch of `size` predictions and the
    /// per-request queue+serve latencies.
    pub fn record_batch(&self, size: usize, latencies: impl IntoIterator<Item = Duration>) {
        self.requests.fetch_add(size as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut histograms = self.histograms.lock().expect("metrics lock never poisons");
        histograms.batch_sizes.add(size as f64);
        for latency in latencies {
            histograms.latency_us.add(latency.as_secs_f64() * 1e6);
        }
    }

    /// Records one item-memory insert.
    pub fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one item-memory removal.
    pub fn record_remove(&self) {
        self.removes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one training observation folded into the online trainer.
    pub fn record_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counters and distributions out as plain data.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let histograms = self.histograms.lock().expect("metrics lock never poisons");
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        MetricsSnapshot {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            requests,
            batches,
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            fits: self.fits.load(Ordering::Relaxed),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            batch_sizes: histograms.batch_sizes.counts().to_vec(),
            latency_us_p50: histograms.latency_us.percentile(50.0).unwrap_or(0.0),
            latency_us_p95: histograms.latency_us.percentile(95.0).unwrap_or(0.0),
            latency_us_p99: histograms.latency_us.percentile(99.0).unwrap_or(0.0),
        }
    }
}

/// A point-in-time copy of [`ServeMetrics`]: what the `stats` operation
/// reports over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Work items currently queued (enqueued, not yet picked up).
    pub queue_depth: u64,
    /// Predictions served since start.
    pub requests: u64,
    /// Micro-batches served since start.
    pub batches: u64,
    /// Item-memory inserts applied since start.
    pub inserts: u64,
    /// Item-memory removals applied since start.
    pub removes: u64,
    /// Training observations folded into the online trainer since start.
    pub fits: u64,
    /// Mean predictions per micro-batch (`requests / batches`).
    pub mean_batch_size: f64,
    /// Batch-size histogram counts (bin `i` covers sizes around
    /// `(i + 1) · max_batch / bins`).
    pub batch_sizes: Vec<u64>,
    /// Median request latency (enqueue → reply) in microseconds.
    pub latency_us_p50: f64,
    /// 95th-percentile request latency in microseconds.
    pub latency_us_p95: f64,
    /// 99th-percentile request latency in microseconds.
    pub latency_us_p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_flow_into_the_snapshot() {
        let metrics = ServeMetrics::new(16);
        metrics.enqueued(5);
        metrics.dequeued(3);
        metrics.record_batch(
            3,
            [
                Duration::from_micros(100),
                Duration::from_micros(200),
                Duration::from_micros(90_000_000),
            ],
        );
        metrics.record_batch(1, [Duration::from_micros(150)]);
        metrics.record_insert();
        metrics.record_remove();
        metrics.record_fit();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.queue_depth, 2);
        assert_eq!(snapshot.requests, 4);
        assert_eq!(snapshot.batches, 2);
        assert_eq!(snapshot.inserts, 1);
        assert_eq!(snapshot.removes, 1);
        assert_eq!(snapshot.fits, 1);
        assert!((snapshot.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(snapshot.batch_sizes.iter().sum::<u64>(), 2);
        assert!(snapshot.latency_us_p50 > 0.0);
        // The 90-second outlier clamps into the top bucket.
        assert!(snapshot.latency_us_p99 <= LATENCY_MAX_US);
        assert!(snapshot.latency_us_p50 <= snapshot.latency_us_p95);
        assert!(snapshot.latency_us_p95 <= snapshot.latency_us_p99);
    }

    #[test]
    fn latency_percentiles_resolve_microseconds() {
        // 10..=1000 µs: every reported percentile lies within 3% of the
        // exact one (400 µs linear bins reported p50 = 400 here).
        let metrics = ServeMetrics::new(64);
        metrics.record_batch(100, (1..=100).map(|i| Duration::from_micros(10 * i)));
        let snapshot = metrics.snapshot();
        for (reported, exact) in [
            (snapshot.latency_us_p50, 500.0),
            (snapshot.latency_us_p95, 950.0),
            (snapshot.latency_us_p99, 990.0),
        ] {
            assert!(
                (reported - exact).abs() <= 0.03 * exact,
                "{reported} vs {exact}"
            );
        }
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let snapshot = ServeMetrics::new(1).snapshot();
        assert_eq!(snapshot.requests, 0);
        assert_eq!(snapshot.mean_batch_size, 0.0);
        assert_eq!(snapshot.latency_us_p50, 0.0);
    }
}
