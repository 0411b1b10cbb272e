//! Table 2 (and Figure 7) — regression mean squared error on the Beijing
//! temperature and Mars Express power surrogates, comparing random, level
//! and circular basis-hypervectors (circular with `r = 0.01`, as in the
//! paper).
//!
//! Protocol (paper §6.2):
//!
//! * **Beijing** — samples encoded as `Y ⊗ D ⊗ H`; the year hypervector is
//!   always a level encoding (macro trend), while day-of-year and
//!   hour-of-day switch between random/level/circular. Temporal 70/30
//!   split; the label (temperature) is level-encoded.
//! * **Mars Express** — samples are the mean anomaly of Mars' orbit,
//!   encoded with the basis under test; random 70/30 split; the label
//!   (power) is level-encoded.

use hdc_basis::BasisKind;
use hdc_core::BinaryHypervector;
use hdc_datasets::{beijing, mars};
use hdc_encode::ScalarEncoder;
use hdc_learn::{metrics, split, RegressionTrainer};
use rand::{rngs::StdRng, SeedableRng};

use crate::encoders::BinnedAngleEncoder;

/// Configuration of the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Quantization bins for day-of-year.
    pub day_bins: usize,
    /// Quantization bins for hour-of-day.
    pub hour_bins: usize,
    /// Level count for the year feature.
    pub year_levels: usize,
    /// Quantization bins for the Mars mean anomaly.
    pub mars_bins: usize,
    /// Level count for the label encoders.
    pub label_levels: usize,
    /// Randomness `r` of the circular basis (the paper uses 0.01).
    pub circular_randomness: f64,
    /// Train fraction for both datasets.
    pub train_fraction: f64,
    /// Beijing generation parameters.
    pub beijing: beijing::BeijingConfig,
    /// Mars generation parameters.
    pub mars: mars::MarsConfig,
    /// Seed for basis generation, splits and tie-breaking.
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Self {
            dim: 10_000,
            day_bins: 73,
            hour_bins: 24,
            year_levels: 8,
            mars_bins: 512,
            label_levels: 64,
            circular_randomness: 0.01,
            train_fraction: 0.7,
            beijing: beijing::BeijingConfig::default(),
            mars: mars::MarsConfig::default(),
            seed: 0x7AB1E2,
        }
    }
}

impl Table2Config {
    /// A reduced configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            dim: 2_048,
            day_bins: 36,
            label_levels: 32,
            mars_bins: 192,
            // Two years minimum: a 70% temporal split of a single year
            // would leave part of the day-of-year range unseen in training.
            beijing: beijing::BeijingConfig {
                years: 2,
                ..beijing::BeijingConfig::default()
            },
            mars: mars::MarsConfig {
                samples: 400,
                ..mars::MarsConfig::default()
            },
            ..Self::default()
        }
    }
}

/// One row of Table 2: MSE per basis kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Dataset name as printed in the paper ("Beijing", "Mars Express").
    pub dataset: &'static str,
    /// MSE with random-hypervectors.
    pub random: f64,
    /// MSE with level-hypervectors.
    pub level: f64,
    /// MSE with circular-hypervectors.
    pub circular: f64,
}

/// Runs the full Table 2 experiment.
#[must_use]
pub fn run(config: &Table2Config) -> Vec<Table2Row> {
    let beijing_data = beijing::generate(&config.beijing);
    let mars_data = mars::generate(&config.mars);
    let circular = BasisKind::Circular {
        randomness: config.circular_randomness,
    };
    vec![
        Table2Row {
            dataset: "Beijing",
            random: run_beijing(&beijing_data, BasisKind::Random, config),
            level: run_beijing(&beijing_data, BasisKind::Level { randomness: 0.0 }, config),
            circular: run_beijing(&beijing_data, circular, config),
        },
        Table2Row {
            dataset: "Mars Express",
            random: run_mars(&mars_data, BasisKind::Random, config),
            level: run_mars(&mars_data, BasisKind::Level { randomness: 0.0 }, config),
            circular: run_mars(&mars_data, circular, config),
        },
    ]
}

/// Trains and scores one basis kind on the Beijing surrogate; returns the
/// test MSE. Exposed for the Figure 8 sweep.
#[must_use]
pub fn run_beijing(data: &beijing::BeijingDataset, kind: BasisKind, config: &Table2Config) -> f64 {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Year is always level-encoded (macro trend); day and hour switch kind.
    let years_span = config.beijing.years as f64;
    let year_enc =
        ScalarEncoder::with_levels(0.0, years_span, config.year_levels, config.dim, &mut rng)
            .expect("valid year encoder");
    let day_enc = BinnedAngleEncoder::new(kind, config.day_bins, config.dim, &mut rng)
        .expect("valid day encoder");
    let hour_enc = BinnedAngleEncoder::new(kind, config.hour_bins, config.dim, &mut rng)
        .expect("valid hour encoder");

    let encode = |s: &beijing::BeijingSample| -> BinaryHypervector {
        let mut hv = year_enc.encode(s.year).clone();
        hv.bind_assign(day_enc.encode_periodic(s.day_of_year, beijing::DAYS_PER_YEAR));
        hv.bind_assign(hour_enc.encode_periodic(s.hour, 24.0));
        hv
    };

    let (min_t, max_t) = data.temperature_range();
    let label_enc =
        ScalarEncoder::with_levels(min_t, max_t, config.label_levels, config.dim, &mut rng)
            .expect("valid label encoder");

    let (train, test) = data.temporal_split(config.train_fraction);
    let mut trainer = RegressionTrainer::new(label_enc);
    for s in &train {
        trainer.observe(&encode(s), s.temperature);
    }
    let model = trainer.finish(&mut rng).expect("non-empty training set");

    let predicted: Vec<f64> = test.iter().map(|s| model.predict(&encode(s))).collect();
    let truth: Vec<f64> = test.iter().map(|s| s.temperature).collect();
    metrics::mse(&predicted, &truth)
}

/// Trains and scores one basis kind on the Mars surrogate; returns the test
/// MSE. Exposed for the Figure 8 sweep.
#[must_use]
pub fn run_mars(data: &mars::MarsDataset, kind: BasisKind, config: &Table2Config) -> f64 {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));

    let anomaly_enc = BinnedAngleEncoder::new(kind, config.mars_bins, config.dim, &mut rng)
        .expect("valid anomaly encoder");
    let (min_p, max_p) = data.power_range();
    let label_enc =
        ScalarEncoder::with_levels(min_p, max_p, config.label_levels, config.dim, &mut rng)
            .expect("valid label encoder");

    let (train_idx, test_idx) = split::random(data.samples.len(), config.train_fraction, &mut rng);
    let mut trainer = RegressionTrainer::new(label_enc);
    for &i in &train_idx {
        let s = &data.samples[i];
        trainer.observe(anomaly_enc.encode(s.mean_anomaly), s.power);
    }
    let model = trainer.finish(&mut rng).expect("non-empty training set");

    let predicted: Vec<f64> = test_idx
        .iter()
        .map(|&i| model.predict(anomaly_enc.encode(data.samples[i].mean_anomaly)))
        .collect();
    let truth: Vec<f64> = test_idx.iter().map(|&i| data.samples[i].power).collect();
    metrics::mse(&predicted, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick configuration with every seed (bases, splits, and both
    /// surrogate datasets) set from `seed`.
    fn quick_seeded(seed: u64) -> Table2Config {
        let mut config = Table2Config::quick();
        config.seed = seed;
        config.beijing.seed = seed;
        config.mars.seed = seed;
        config
    }

    /// The paper's Table 2 orderings, pinned over seeds 0–7 of the quick
    /// configuration (≈0.2 s a seed). The margins sit below the smallest
    /// ratio measured over those seeds: circular beat the better of level
    /// and random by ≥1.77× on Beijing and ≥1.59× on Mars Express, and
    /// level beat random on Beijing by ≥2.22×. Level vs random on Mars
    /// Express is not asserted: level was worse on 5 of the 8 seeds
    /// (random/level 0.56–1.32).
    #[test]
    fn quick_run_beats_variance_baseline_with_circular() {
        for seed in 0..8 {
            let config = quick_seeded(seed);
            let rows = run(&config);
            let [beijing, mars] = &rows[..] else {
                panic!("Table 2 has one row per dataset");
            };
            for row in [beijing, mars] {
                let best_other = row.random.min(row.level);
                assert!(
                    best_other >= 1.5 * row.circular,
                    "seed {seed}, {}: circular MSE {} must be ≥1.5× below level {} and random {}",
                    row.dataset,
                    row.circular,
                    row.level,
                    row.random
                );
            }
            assert!(
                beijing.random >= 2.0 * beijing.level,
                "seed {seed}, Beijing: level MSE {} must be ≥2× below random {}",
                beijing.level,
                beijing.random
            );

            let data = mars::generate(&config.mars);
            let truth: Vec<f64> = data.samples.iter().map(|s| s.power).collect();
            let mean = truth.iter().sum::<f64>() / truth.len() as f64;
            let variance =
                truth.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / truth.len() as f64;
            assert!(
                mars.circular < variance,
                "seed {seed}: circular MSE {} must beat variance {variance}",
                mars.circular
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = Table2Config::quick();
        let data = mars::generate(&config.mars);
        let a = run_mars(&data, BasisKind::Random, &config);
        let b = run_mars(&data, BasisKind::Random, &config);
        assert_eq!(a, b);
    }
}
