use std::fmt;

use crate::angles::wrap;
use crate::{DirStatsError, TAU};

/// A histogram over the circle: `bins` equal arcs of `[0, 2π)`.
///
/// Useful for inspecting the angular structure of synthetic datasets and for
/// quick goodness-of-fit eyeballing in examples.
///
/// # Example
///
/// ```
/// use dirstats::CircularHistogram;
///
/// let mut hist = CircularHistogram::new(4)?;
/// hist.extend([0.1, 0.2, 3.2, 6.4]); // 6.4 > 2π wraps into the first quadrant bin
/// assert_eq!(hist.count(0), 3);
/// assert_eq!(hist.count(2), 1);
/// assert_eq!(hist.total(), 4);
/// # Ok::<(), dirstats::DirStatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircularHistogram {
    counts: Vec<u64>,
}

impl CircularHistogram {
    /// Creates a histogram with `bins` equal arcs.
    ///
    /// # Errors
    ///
    /// Returns [`DirStatsError::InvalidParameter`] if `bins == 0`.
    pub fn new(bins: usize) -> Result<Self, DirStatsError> {
        if bins == 0 {
            return Err(DirStatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        Ok(Self {
            counts: vec![0; bins],
        })
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Adds one angle (radians; wrapped automatically).
    pub fn add(&mut self, angle: f64) {
        let idx = self.bin_index(angle);
        self.counts[idx] += 1;
    }

    /// The bin an angle falls into.
    #[must_use]
    pub fn bin_index(&self, angle: f64) -> usize {
        let w = wrap(angle);
        ((w / TAU * self.counts.len() as f64) as usize).min(self.counts.len() - 1)
    }

    /// The count of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= self.bins()`.
    #[must_use]
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// All bin counts in order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded angles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The central angle of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= self.bins()`.
    #[must_use]
    pub fn bin_center(&self, bin: usize) -> f64 {
        assert!(bin < self.counts.len(), "bin {bin} out of range");
        TAU * (bin as f64 + 0.5) / self.counts.len() as f64
    }

    /// The empirical density of bin `bin` (count / total / bin width);
    /// `0.0` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= self.bins()`.
    #[must_use]
    pub fn density(&self, bin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let width = TAU / self.counts.len() as f64;
        self.counts[bin] as f64 / total as f64 / width
    }
}

impl Extend<f64> for CircularHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for a in iter {
            self.add(a);
        }
    }
}

impl fmt::Display for CircularHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c * 40 / max) as usize);
            writeln!(f, "[{:6.3} rad] {:>6} {bar}", self.bin_center(i), c)?;
        }
        Ok(())
    }
}

/// A histogram over a bounded linear range `[lo, hi]`: `bins` equal-width
/// intervals, with out-of-range samples clamped into the edge bins.
///
/// The linear sibling of [`CircularHistogram`], used by the serving layer's
/// metrics for batch-size and latency distributions: counting is one
/// branch-free index computation, percentiles come out of the cumulative
/// counts, and the fixed bin count keeps the memory footprint constant no
/// matter how many samples stream through.
///
/// # Example
///
/// ```
/// use dirstats::LinearHistogram;
///
/// let mut hist = LinearHistogram::new(0.0, 10.0, 5)?;
/// hist.extend([0.5, 1.0, 3.0, 9.5, 42.0]); // 42 clamps into the last bin
/// assert_eq!(hist.count(0), 2);
/// assert_eq!(hist.count(4), 2);
/// assert_eq!(hist.total(), 5);
/// assert!(hist.percentile(50.0).unwrap() < 5.0);
/// # Ok::<(), dirstats::DirStatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Running total of recorded samples, maintained by
    /// [`add`](Self::add)/[`clear`](Self::clear) so [`total`](Self::total)
    /// is O(1) on the metrics hot path instead of an O(bins) sum.
    total: u64,
}

impl LinearHistogram {
    /// Creates a histogram of `bins` equal-width intervals over `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`DirStatsError::InvalidParameter`] if `bins == 0`, either
    /// bound is not finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, DirStatsError> {
        if bins == 0 {
            return Err(DirStatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(DirStatsError::InvalidParameter {
                name: "range",
                value: hi - lo,
            });
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower bound of the covered range.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the covered range.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Adds one sample. Values below `lo` land in the first bin, values
    /// above `hi` in the last; NaN samples are ignored.
    pub fn add(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let idx = self.bin_index(value);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// The bin a value falls into (edge bins absorb out-of-range values).
    #[must_use]
    pub fn bin_index(&self, value: f64) -> usize {
        let bins = self.counts.len();
        let fraction = (value - self.lo) / (self.hi - self.lo);
        if fraction <= 0.0 {
            return 0;
        }
        ((fraction * bins as f64) as usize).min(bins - 1)
    }

    /// The count of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= self.bins()`.
    #[must_use]
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// All bin counts in order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples. O(1): the total is maintained as
    /// samples are added rather than summed over the bins per call.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` if no sample has been recorded (or every sample was wiped by
    /// [`clear`](Self::clear)) — the state in which
    /// [`percentile`](Self::percentile) has no answer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The central value of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= self.bins()`.
    #[must_use]
    pub fn bin_center(&self, bin: usize) -> f64 {
        assert!(bin < self.counts.len(), "bin {bin} out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (bin as f64 + 0.5)
    }

    /// The approximate `p`-th percentile (`0 < p <= 100`): the upper edge of
    /// the first bin whose cumulative count reaches `ceil(p/100 · total)`.
    ///
    /// An **empty** histogram (no samples recorded yet, or just cleared)
    /// has no percentiles: the result is `None` for every `p`, never a
    /// fabricated `lo`/`hi` — callers that report distributions must
    /// distinguish "no data" from "all data at the bound" (the serving
    /// metrics map it to an explicit zero).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]` — including on an empty
    /// histogram, where the argument is validated before the data.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = (p / 100.0 * total as f64).ceil() as u64;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut cumulative = 0;
        for (bin, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(self.lo + width * (bin as f64 + 1.0));
            }
        }
        Some(self.hi)
    }

    /// Resets every bin (and the running total) to zero.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

impl Extend<f64> for LinearHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for value in iter {
            self.add(value);
        }
    }
}

impl fmt::Display for LinearHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c * 40 / max) as usize);
            writeln!(f, "[{:>10.3}] {:>6} {bar}", self.bin_center(i), c)?;
        }
        Ok(())
    }
}

/// A log-bucketed histogram over `[lo, hi]` (`lo > 0`) with a fixed
/// **relative** error: bucket edges grow geometrically by
/// `γ = (1 + α)/(1 − α)`, and every percentile is reported as the point
/// within `α` of both edges of its bucket — so it lies within `α` of the
/// exact sample percentile, whether that is 3 µs or 3 s. Out-of-range
/// samples clamp into the edge buckets.
///
/// The log-scale sibling of [`LinearHistogram`], used by the serving
/// layer's latency metrics: a linear histogram fine enough for
/// microsecond requests would need millions of bins to also hold a
/// second-long stall; this one spans 1 µs to 60 s at 2% in ≈450 buckets.
///
/// # Example
///
/// ```
/// use dirstats::LogHistogram;
///
/// let mut hist = LogHistogram::new(1.0, 1e6, 0.02)?;
/// hist.extend([3.0, 40.0, 500.0, 6_000.0]);
/// let p50 = hist.percentile(50.0).unwrap();
/// assert!((p50 - 40.0).abs() <= 0.02 * 40.0);
/// # Ok::<(), dirstats::DirStatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    hi: f64,
    /// `ln γ`, the log-width of every bucket.
    ln_gamma: f64,
    /// `2γ/(γ + 1)`: bucket `i`'s reported value is `lo·γ^i` times this.
    midpoint: f64,
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Creates a histogram over `[lo, hi]` whose percentiles carry at most
    /// `relative_error` relative error.
    ///
    /// # Errors
    ///
    /// Returns [`DirStatsError::InvalidParameter`] if `lo` is not finite
    /// and positive, `hi` is not finite and above `lo`, or
    /// `relative_error` is not in `(0, 1)`.
    pub fn new(lo: f64, hi: f64, relative_error: f64) -> Result<Self, DirStatsError> {
        if !(lo.is_finite() && lo > 0.0 && hi.is_finite() && hi > lo) {
            return Err(DirStatsError::InvalidParameter {
                name: "range",
                value: hi - lo,
            });
        }
        if !(relative_error > 0.0 && relative_error < 1.0) {
            return Err(DirStatsError::InvalidParameter {
                name: "relative_error",
                value: relative_error,
            });
        }
        let gamma = (1.0 + relative_error) / (1.0 - relative_error);
        let ln_gamma = gamma.ln();
        let buckets = ((hi / lo).ln() / ln_gamma).floor() as usize + 1;
        Ok(Self {
            lo,
            hi,
            ln_gamma,
            midpoint: 2.0 * gamma / (gamma + 1.0),
            counts: vec![0; buckets],
            total: 0,
        })
    }

    /// Adds one sample. Values below `lo` land in the first bucket, values
    /// above `hi` in the last; NaN samples are ignored.
    pub fn add(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// The bucket a value falls into: bucket `i` covers
    /// `[lo·γ^i, lo·γ^(i+1))`.
    fn bucket_index(&self, value: f64) -> usize {
        let clamped = value.clamp(self.lo, self.hi);
        (((clamped / self.lo).ln() / self.ln_gamma) as usize).min(self.counts.len() - 1)
    }

    /// The value bucket `bucket` reports: within the relative error of
    /// every value in the bucket (and never above `hi`).
    fn bucket_value(&self, bucket: usize) -> f64 {
        (self.lo * (self.ln_gamma * bucket as f64).exp() * self.midpoint).min(self.hi)
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the reported
    /// value of the bucket holding the `ceil(p/100 · total)`-th smallest
    /// sample; `None` for an empty histogram (the same contract as
    /// [`LinearHistogram::percentile`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(self.bucket_value(bucket));
            }
        }
        Some(self.bucket_value(self.counts.len() - 1))
    }
}

impl Extend<f64> for LogHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for value in iter {
            self.add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VonMises;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn rejects_zero_bins() {
        assert!(CircularHistogram::new(0).is_err());
    }

    #[test]
    fn wraps_negative_angles() {
        let mut h = CircularHistogram::new(8).unwrap();
        h.add(-0.1); // wraps to just under 2π → last bin
        assert_eq!(h.count(7), 1);
    }

    #[test]
    fn bin_boundaries() {
        let h = CircularHistogram::new(4).unwrap();
        assert_eq!(h.bin_index(0.0), 0);
        assert_eq!(h.bin_index(TAU / 4.0), 1);
        assert_eq!(h.bin_index(TAU - 1e-9), 3);
        assert_eq!(h.bin_index(TAU), 0); // wraps
    }

    #[test]
    fn density_integrates_to_one() {
        let mut r = StdRng::seed_from_u64(3);
        let vm = VonMises::new(1.0, 2.0).unwrap();
        let mut h = CircularHistogram::new(32).unwrap();
        h.extend(vm.sample_n(5_000, &mut r));
        let width = TAU / 32.0;
        let integral: f64 = (0..32).map(|b| h.density(b) * width).sum();
        assert!((integral - 1.0).abs() < 1e-9);
        // Mode near μ = 1.0.
        let mode = (0..32).max_by_key(|&b| h.count(b)).unwrap();
        let center = h.bin_center(mode);
        assert!(
            crate::angles::angular_distance(center, 1.0) < 0.5,
            "mode at {center}"
        );
    }

    #[test]
    fn display_renders_all_bins() {
        let mut h = CircularHistogram::new(5).unwrap();
        h.extend([0.1, 0.1, 2.0]);
        let text = h.to_string();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains('#'));
    }

    #[test]
    fn empty_density_is_zero() {
        let h = CircularHistogram::new(3).unwrap();
        assert_eq!(h.density(0), 0.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn linear_rejects_degenerate_parameters() {
        assert!(LinearHistogram::new(0.0, 1.0, 0).is_err());
        assert!(LinearHistogram::new(1.0, 1.0, 4).is_err());
        assert!(LinearHistogram::new(2.0, 1.0, 4).is_err());
        assert!(LinearHistogram::new(0.0, f64::INFINITY, 4).is_err());
    }

    #[test]
    fn linear_bins_and_clamping() {
        let mut h = LinearHistogram::new(0.0, 8.0, 4).unwrap();
        assert_eq!(h.bins(), 4);
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 8.0);
        h.extend([-3.0, 0.0, 1.9, 2.0, 7.9, 8.0, 100.0, f64::NAN]);
        // Below-range and boundary values: [-3, 0, 1.9] → bin 0, 2.0 → bin 1,
        // [7.9, 8.0, 100] → bin 3; NaN ignored.
        assert_eq!(h.counts(), &[3, 1, 0, 3]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_index(3.99), 1);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(3), 7.0);
        h.clear();
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn linear_percentiles_walk_the_cumulative_counts() {
        let mut h = LinearHistogram::new(0.0, 100.0, 100).unwrap();
        assert!(h.percentile(50.0).is_none());
        h.extend((0..100).map(f64::from)); // one sample per bin
        assert_eq!(h.percentile(1.0), Some(1.0));
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(99.0), Some(99.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        // A spike histogram reports the spike's bin edge for every p.
        let mut spike = LinearHistogram::new(0.0, 10.0, 10).unwrap();
        spike.extend(std::iter::repeat(4.5).take(1000));
        assert_eq!(spike.percentile(1.0), Some(5.0));
        assert_eq!(spike.percentile(99.9), Some(5.0));
    }

    #[test]
    fn linear_empty_histogram_has_no_percentiles() {
        // The defined empty-histogram contract: every p yields None — both
        // before any sample and again after clear() wipes the data — and
        // the argument is still validated first.
        let mut h = LinearHistogram::new(0.0, 10.0, 5).unwrap();
        assert!(h.is_empty());
        for p in [0.001, 1.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), None, "p = {p}");
        }
        h.add(4.0);
        assert!(!h.is_empty());
        assert_eq!(h.total(), 1);
        assert!(h.percentile(50.0).is_some());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile(50.0), None);
        // NaN samples never count toward the total, so a NaN-only history
        // is still empty.
        h.add(f64::NAN);
        assert!(h.is_empty());
        assert_eq!(h.percentile(95.0), None);
    }

    #[test]
    #[should_panic(expected = "outside (0, 100]")]
    fn linear_percentile_validates_p_even_when_empty() {
        let h = LinearHistogram::new(0.0, 1.0, 2).unwrap();
        let _ = h.percentile(0.0);
    }

    #[test]
    fn linear_display_renders_all_bins() {
        let mut h = LinearHistogram::new(0.0, 4.0, 4).unwrap();
        h.extend([0.5, 0.6, 3.2]);
        let text = h.to_string();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains('#'));
    }

    #[test]
    fn log_rejects_degenerate_parameters() {
        assert!(LogHistogram::new(0.0, 1.0, 0.02).is_err());
        assert!(LogHistogram::new(1.0, 1.0, 0.02).is_err());
        assert!(LogHistogram::new(1.0, f64::INFINITY, 0.02).is_err());
        assert!(LogHistogram::new(1.0, 10.0, 0.0).is_err());
        assert!(LogHistogram::new(1.0, 10.0, 1.0).is_err());
    }

    #[test]
    fn log_percentiles_stay_within_three_percent_of_exact() {
        // Log-uniform samples over seven decades, every percentile checked
        // against the exact nearest-rank sample percentile.
        let mut r = StdRng::seed_from_u64(41);
        let mut h = LogHistogram::new(1.0, 6e7, 0.02).unwrap();
        assert_eq!(h.percentile(50.0), None);
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| 10f64.powf(r.random_range(0.0..7.0)))
            .collect();
        h.extend(samples.iter().copied());
        h.add(f64::NAN);
        assert_eq!(h.total(), 20_000);
        samples.sort_by(f64::total_cmp);
        for p in [
            0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0,
        ] {
            let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let estimate = h.percentile(p).unwrap();
            let error = (estimate - exact).abs() / exact;
            assert!(
                error <= 0.03,
                "p{p}: {estimate} vs exact {exact} ({error:.4})"
            );
        }
        // Every bucket's reported value is within the bound of its edges.
        for bucket in 0..h.counts.len() - 1 {
            let edge = (h.ln_gamma * bucket as f64).exp();
            let value = h.bucket_value(bucket);
            assert!((value - edge).abs() / edge <= 0.02 + 1e-12);
        }
    }

    #[test]
    fn log_clamps_out_of_range_samples() {
        let mut h = LogHistogram::new(10.0, 1_000.0, 0.02).unwrap();
        h.extend([0.5, 5_000.0]);
        assert_eq!(h.bucket_index(0.5), 0);
        assert_eq!(h.bucket_index(5_000.0), h.counts.len() - 1);
        assert!((h.percentile(50.0).unwrap() - 10.0).abs() <= 0.2);
        assert!(h.percentile(100.0).unwrap() <= 1_000.0);
    }
}
