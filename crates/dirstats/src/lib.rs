//! Directional (circular) statistics.
//!
//! Circular data — angles, compass directions, times of day, phases of an
//! orbit — live on the unit circle rather than the real line, and standard
//! statistics mislead on them (the "mean" of 359° and 1° is 0°, not 180°).
//! This crate implements the core toolkit of directional statistics (Mardia
//! & Jupp; Fisher):
//!
//! * [`angles`] — wrapping, angular differences and the circular distance
//!   `ρ(α, β) = (1 − cos(α − β))/2` used by the paper (§5),
//! * [`descriptive`] — circular mean, resultant length, variance, standard
//!   deviation,
//! * [`VonMises`] — the canonical circular distribution, with density and
//!   Best–Fisher rejection sampling,
//! * [`Normal`] — Box–Muller Gaussian sampling (kept here so the workspace
//!   needs no external distribution crate),
//! * [`correlation`] — circular–linear (Mardia) and circular–circular
//!   (Jammalamadaka–SenGupta) association measures,
//! * [`CircularHistogram`] — binned summaries of angle samples,
//! * [`LinearHistogram`] — its bounded-range linear sibling (batch-size
//!   distributions in the serving layer's metrics),
//! * [`LogHistogram`] — log-bucketed with a fixed relative error (latency
//!   distributions in the serving layer's metrics).
//!
//! # Example
//!
//! ```
//! use dirstats::{descriptive, VonMises};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let vm = VonMises::new(std::f64::consts::PI, 4.0)?;
//! let samples: Vec<f64> = (0..2000).map(|_| vm.sample(&mut rng)).collect();
//! let mean = descriptive::circular_mean(&samples).expect("non-empty");
//! assert!((mean - std::f64::consts::PI).abs() < 0.1);
//! # Ok::<(), dirstats::DirStatsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angles;
pub mod bessel;
pub mod correlation;
pub mod descriptive;
mod error;
mod histogram;
mod normal;
mod von_mises;
mod wrapped_cauchy;

pub use error::DirStatsError;
pub use histogram::{CircularHistogram, LinearHistogram, LogHistogram};
pub use normal::Normal;
pub use von_mises::VonMises;
pub use wrapped_cauchy::WrappedCauchy;

/// Full circle in radians (`2π`).
pub const TAU: f64 = std::f64::consts::TAU;
