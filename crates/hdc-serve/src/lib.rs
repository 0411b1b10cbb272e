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
//! * [`Target`] / [`OnlineLearner`] / [`Head`] / [`Answers`] — the task
//!   family (classification or regression) behind one type each: what an
//!   observation teaches, the accumulators it folds into, the finalized
//!   model with its one readout, and that readout's rows. Every layer
//!   below reaches the task through these.
//! * [`ShardedModel`] — production-shaped serving on top: per-key item
//!   memories partitioned over a fixed set of shards on an `hdc-hash`
//!   consistent-hash ring, and one head answering every query batch
//!   whole. A key decides where an item is stored, never an answer, so
//!   the fleet is bit-identical to the unsharded model for any shard
//!   count.
//! * [`Runtime`] — the long-running process: an MPSC ingestion queue
//!   that serves whatever requests are queued as one micro-batch, up to a
//!   [`BatchPolicy`] size cap and without waiting for more, answered by
//!   the head of the adopted [`Generation`]; a background trainer
//!   publishing `Arc`-snapshotted generations (reads never block on
//!   training; every [`Prediction`] carries its generation id); item
//!   memories in a [`ShardedModel`]'s shard maps; and live [`metrics`].
//! * [`Server`] / [`BlockingClient`] — a `std::net` framed-TCP front-end
//!   over the runtime ([`wire`] documents the protocol), so many processes
//!   can share one fleet and their traffic coalesces into the same
//!   micro-batches.
//! * [`ClusterRouter`] / [`ClusterServer`] — the multi-process form of the
//!   fleet: shard `Runtime`s run as separate processes (behind the
//!   transport-agnostic [`ShardBackend`] seam). The router places items on
//!   them over the same consistent ring `ShardedModel` uses, sends each
//!   read whole to one shard, replicates training to every shard, and is
//!   the one place that reshards: it warm-joins fresh shards by streaming
//!   [`Snapshot`]s and drains leaving ones, remapping only about `1/n` of
//!   the keys — the serving setting circular hypervectors were invented
//!   for (Heddes et al., DAC 2022). Bit-identical to the unsharded model
//!   for any shard count.
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
pub mod metrics;
mod pipeline;
mod runtime;
mod server;
mod sharded;
mod snapshot;
mod spec;
mod task;
pub mod wire;

pub use cluster::{ClusterRouter, ClusterServer, LocalShard, RemoteShard, ShardBackend};
pub use hdc_core::HdcError;
pub use hdc_encode::{FieldSpec, Radians};
pub use hdc_store::{
    DurabilityConfig, GroupCommitConfig, ItemStore, PagedStore, ResidentStore, SyncPolicy,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use pipeline::{
    AngleSpec, CategoricalSpec, DynEncoder, Enc, EncoderSpec, Model, ModelBuilder, Pipeline,
    PipelineBuilder, RecordSpec, ScalarSpec, SequenceSpec,
};
pub use runtime::{BatchPolicy, Generation, Runtime, RuntimeConfig, RuntimeHandle, RuntimeStats};
pub use server::{BlockingClient, ClientConfig, Server};
pub use sharded::{RingConfig, ShardedModel};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use spec::{Basis, EncSpec, PipelineSpec, SpecInput, Task, SPEC_VERSION};
pub use task::{Answers, Head, OnlineLearner, Prediction, Target, ValuePrediction};
