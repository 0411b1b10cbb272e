//! Unified pipeline building, sharded serving and a long-running service
//! runtime for the circular-hypervector workspace.
//!
//! The layers:
//!
//! * [`Pipeline`] / [`Model`] — the typed builder that replaces the
//!   hand-wired `StdRng → BasisSet → Encoder → CentroidClassifier` glue:
//!   pick a dimensionality, seed, [`Basis`] family and [`Enc`] encoder
//!   spec, get one object with `fit`/`fit_batch`/`predict`/`predict_batch`/
//!   `evaluate`, backed by the workspace's batched parallel paths.
//! * [`ShardedModel`] — production-shaped serving on top: class vectors
//!   replicated across shards, per-key item memories partitioned over an
//!   `hdc-hash` consistent-hash ring, query batches routed per shard
//!   through `predict_rows` and merged in input order. Bit-identical to
//!   the unsharded model for any shard count, with graceful `1/n`
//!   remapping under shard churn — the serving setting circular
//!   hypervectors were invented for (Heddes et al., DAC 2022).
//! * [`Runtime`] — the long-running process around the fleet: an MPSC
//!   ingestion queue that serves whatever requests are queued as one
//!   micro-batch, up to a [`BatchPolicy`] size cap and without waiting
//!   for more, a background trainer publishing
//!   `Arc`-snapshotted class-vector [`Generation`]s that swap atomically
//!   across all shards (reads never block on training; every
//!   [`Prediction`] carries its generation id), and live
//!   [`metrics`].
//! * [`Server`] / [`BlockingClient`] — a `std::net` framed-TCP front-end
//!   over the runtime ([`wire`] documents the protocol), so many processes
//!   can share one fleet and their traffic coalesces into the same
//!   micro-batches.
//! * [`ClusterRouter`] / [`ClusterServer`] — the multi-process form of the
//!   fleet: shard `Runtime`s run as separate processes, the router maps
//!   keys to them over the same consistent ring `ShardedModel` routes by
//!   (behind the transport-agnostic [`ShardBackend`] seam), replicates
//!   training to every shard, and warm-joins fresh shards by streaming
//!   [`Snapshot`]s — bit-identical to the in-process fleet for any shard
//!   count.
//! * [`DurabilityConfig`] — the storage layer under the runtime
//!   (re-exported from `hdc-store`): a CRC-framed segmented write-ahead
//!   log on the fit/insert/remove path (acks released only after the
//!   configured [`SyncPolicy`] flush), periodic background snapshots
//!   installed atomically off the serving threads, and an optional paged
//!   file-backed item memory ([`PagedStore`] behind the [`ItemStore`]
//!   seam) bounding resident memory by an LRU cache budget. A durable
//!   runtime recovers **bit-identically** to its last acknowledged state
//!   from snapshot + log replay after a crash.
//!
//! # Quickstart
//!
//! ```
//! use hdc_serve::{Basis, Enc, Pipeline, Radians};
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
//! # Ok::<(), hdc_serve::HdcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod codec;
pub mod metrics;
mod pipeline;
mod runtime;
mod server;
mod sharded;
mod snapshot;
mod spec;
pub mod wire;

pub use cluster::{ClusterRouter, ClusterServer, FanOut, LocalShard, RemoteShard, ShardBackend};
pub use hdc_core::HdcError;
pub use hdc_encode::{FieldSpec, Radians};
pub use hdc_store::{
    DurabilityConfig, GroupCommitConfig, ItemStore, PagedStore, ResidentStore, SyncPolicy, WalCodec,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use pipeline::{
    AngleSpec, CategoricalSpec, DynEncoder, Enc, EncoderSpec, Model, ModelBuilder, Pipeline,
    PipelineBuilder, RecordSpec, ScalarSpec, SequenceSpec,
};
pub use runtime::{
    BatchPolicy, Generation, OnlineLearner, Prediction, Runtime, RuntimeConfig, RuntimeHandle,
    RuntimeStats, ValuePrediction,
};
pub use server::{BlockingClient, ClientConfig, Server};
pub use sharded::{Head, RingConfig, ShardedModel};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use spec::{Basis, EncSpec, PipelineSpec, SpecInput, Task, SPEC_VERSION};
