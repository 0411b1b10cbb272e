//! # hdc — hyperdimensional computing with circular basis-hypervectors
//!
//! Facade crate for the reproduction of *"An Extension to Basis-Hypervectors
//! for Learning from Circular Data in Hyperdimensional Computing"* (Nunes,
//! Heddes, Givargis & Nicolau, DAC 2023). It re-exports every sub-crate of
//! the workspace:
//!
//! * `core` ([`hdc_core`]) — packed binary hypervectors, the three HDC
//!   operations, accumulators, item memory, a bipolar (MAP) model.
//! * `basis` ([`hdc_basis`]) — random, level (legacy + interpolation), scatter
//!   and circular basis-hypervector sets, plus the `r` randomness
//!   hyperparameter.
//! * `encode` ([`hdc_encode`]) — scalar, angle, categorical, record, sequence
//!   and n-gram encoders.
//! * `learn` ([`hdc_learn`]) — centroid and adaptive classifiers, associative
//!   regression, metrics and splits.
//! * [`dirstats`] — directional statistics (von Mises, circular descriptive
//!   statistics, circular–linear correlation).
//! * `datasets` ([`hdc_datasets`]) — synthetic surrogates of the paper's three
//!   evaluation datasets.
//! * `hash` ([`hdc_hash`]) — hyperdimensional consistent hashing, the original
//!   application of circular hypervectors.
//! * `serve` ([`hdc_serve`]) — the unified [`Pipeline`]/[`Model`] builder API,
//!   [`ShardedModel`] serving over the consistent-hash ring, the
//!   long-running [`Runtime`] (micro-batching ingestion, versioned online
//!   learning) with its framed-TCP [`Server`]/[`BlockingClient`] front-end,
//!   and the multi-process [`ClusterRouter`]/[`ClusterServer`] that routes
//!   keys across shard processes and warm-joins fresh shards by streaming
//!   [`Snapshot`]s.
//!
//! # Quickstart
//!
//! A full classifier through the builder — basis, encoder and learner behind
//! one object:
//!
//! ```
//! use hdc::{Basis, Enc, Pipeline, Radians};
//!
//! let mut model = Pipeline::builder(10_000)
//!     .seed(42)
//!     .basis(Basis::Circular { m: 24, r: 0.0 })
//!     .encoder(Enc::angle())
//!     .build()?;
//! let hours: Vec<Radians> = (0..24).map(|h| Radians::periodic(h as f64, 24.0)).collect();
//! let labels: Vec<usize> = (0..24).map(|h| usize::from(h >= 12)).collect();
//! model.fit_batch(&hours, &labels)?;
//! assert_eq!(model.predict(&Radians::periodic(3.0, 24.0)), 0);
//! # Ok::<(), hdc::HdcError>(())
//! ```
//!
//! The underlying pieces stay directly usable, e.g. the basis sets:
//!
//! ```
//! use hdc::basis::{BasisSet, CircularBasis};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // Twelve hypervectors arranged on a circle: opposite points are
//! // quasi-orthogonal, neighbours are highly similar, and the set wraps.
//! let circle = CircularBasis::new(12, 10_000, &mut rng)?;
//! let d_neighbor = circle.get(0).normalized_hamming(circle.get(1));
//! let d_opposite = circle.get(0).normalized_hamming(circle.get(6));
//! assert!(d_neighbor < 0.15);
//! assert!((d_opposite - 0.5).abs() < 0.05);
//! # Ok::<(), hdc::HdcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdc_basis as basis;
pub use hdc_core as core;
pub use hdc_datasets as datasets;
pub use hdc_encode as encode;
pub use hdc_hash as hash;
pub use hdc_learn as learn;
pub use hdc_serve as serve;

pub use dirstats;

pub use hdc_core::{
    BinaryHypervector, BipolarHypervector, HdcError, HvMut, HvRef, HypervectorBatch, ItemMemory,
    MajorityAccumulator, TieBreak, DEFAULT_DIMENSION,
};
pub use hdc_encode::{Encoder, FeatureRecordEncoder, FieldSpec, Radians};
pub use hdc_serve::{
    Answers, Basis, BatchPolicy, BlockingClient, ClientConfig, ClusterRouter, ClusterServer,
    DurabilityConfig, Enc, EncSpec, GroupCommitConfig, ItemStore, LocalShard, Model, PagedStore,
    Pipeline, PipelineSpec, Prediction, RemoteShard, ResidentStore, RingConfig, Runtime,
    RuntimeConfig, RuntimeHandle, RuntimeStats, Server, ShardBackend, ShardedModel, Snapshot,
    SyncPolicy, Target, Task, ValuePrediction,
};
