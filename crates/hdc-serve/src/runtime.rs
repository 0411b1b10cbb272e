//! The long-running serving runtime: micro-batching ingestion over an MPSC
//! work queue, versioned online learning with atomically swapped
//! generations, live [`metrics`](crate::metrics), both task families
//! behind one queue, and durable warm restarts.
//!
//! A [`Runtime`] owns two background threads:
//!
//! * the **dispatcher** drains the work queue and owns the item memories
//!   (a [`ShardedModel`]'s shard maps, or the paged item store). Each
//!   prediction request (one or many keyed rows) and each observation is
//!   one work item. When the dispatcher is free it takes whatever is
//!   already queued, up to [`BatchPolicy::max_batch`] rows, into one
//!   [`HypervectorBatch`] and serves it; it never waits for more. Batches
//!   grow under load because requests queue while the previous batch is
//!   served, so the encode and the readout's fan-out are paid once per
//!   micro-batch instead of once per caller. The head of the adopted
//!   generation answers the whole batch at once ([`Head::answer`]): labels
//!   from a classifier, values from a regressor ([`Answers`]). A key picks
//!   the item shard an insert or a remove lands on, never a query's
//!   answer. Every observation passes through here on its way to the
//!   trainer, logged first on a durable runtime;
//! * the **trainer** folds observations (each with its [`Target`]) into
//!   the task's [`OnlineLearner`] off the serving path and periodically
//!   publishes an immutable, `Arc`-snapshotted [`Generation`] of the
//!   finalized [`Head`]. The dispatcher adopts the newest generation at
//!   each micro-batch boundary — readers never block on training, never
//!   observe a torn mix of two generations, and every
//!   [`Prediction`]/[`ValuePrediction`] reports the generation that served
//!   it.
//!
//! # Warm restarts
//!
//! A live [`RuntimeHandle::snapshot`] captures a [`Snapshot`] (spec +
//! trainer accumulators + item memories); write it with
//! [`Snapshot::write`] before [`Runtime::shutdown`]. With
//! [`RuntimeConfig::load_snapshot`] set, [`Runtime::spawn`] restores that
//! state before serving — so the restarted process answers bit-identically
//! to the one that shut down.
//!
//! With [`RuntimeConfig::durability`] set, `spawn` also recovers from the
//! store. It checks the installed snapshot's spec, restores its counters
//! into the online learner, folds the logged fits after the snapshot's
//! cover point in one bit-sliced pass, and finalizes the head once. Each
//! background snapshot cuts the log at its cover point and its install
//! deletes the segments it covers, so that tail holds about
//! [`DurabilityConfig::snapshot_every`] records, whatever the segment
//! size.
//!
//! ```
//! use hdc_serve::{Basis, Enc, Pipeline, Radians, Runtime, RuntimeConfig};
//!
//! let mut model = Pipeline::builder(2_048)
//!     .seed(9)
//!     .basis(Basis::Circular { m: 24, r: 0.0 })
//!     .encoder(Enc::angle())
//!     .build()?;
//! let hours: Vec<Radians> = (0..24).map(|h| Radians::periodic(h as f64, 24.0)).collect();
//! let labels: Vec<usize> = (0..24).map(|h| usize::from(h >= 12)).collect();
//! model.fit_batch(&hours, &labels)?;
//!
//! let runtime = Runtime::spawn(model, RuntimeConfig::default())?;
//! let handle = runtime.handle();
//! let prediction = handle.predict("sensor-3", &Radians::periodic(3.0, 24.0))?;
//! assert_eq!(prediction.label, 0);
//! assert_eq!(prediction.generation, 0);
//! runtime.shutdown();
//! # Ok::<(), hdc_serve::HdcError>(())
//! ```

use std::borrow::Borrow;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hdc_core::{BinaryHypervector, HdcError, HypervectorBatch};
use hdc_learn::CentroidClassifier;
use hdc_store::{
    DurabilityConfig, GroupAck, GroupCommitWal, ItemStore, PagedStore, SnapshotInstaller, Store,
    SyncPolicy, WalRecord,
};

use crate::metrics::ServeMetrics;
use crate::pipeline::DynEncoder;
use crate::sharded::RingConfig;
use crate::snapshot::Snapshot;
use crate::spec::{PipelineSpec, Task};
use crate::task::{Answers, Head, OnlineLearner, Prediction, Target, ValuePrediction};
use crate::{Model, ShardedModel};

/// How large a micro-batch may grow. There is no timer: the dispatcher
/// serves whatever is queued when it becomes free, so a lone request on an
/// idle queue is served at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum rows (predicted rows plus fits) served in one batch (`>= 1`;
    /// `0` is clamped to `1`). A request is never split: one that would
    /// push a non-empty batch past the cap opens the next batch, and one
    /// larger than the cap is served as a batch of its own.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    /// Up to 64 rows per batch.
    fn default() -> Self {
        Self { max_batch: 64 }
    }
}

/// Configuration of a [`Runtime`]: fleet geometry, ingestion and
/// online-learning policy, plus the durability hooks. (`Clone`, not
/// `Copy`: the snapshot paths own heap data.)
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Human-readable identity of this runtime, reported in the `stats`
    /// shard-identity section so a cluster router (or an operator) can
    /// tell shard processes apart. Empty by default.
    pub name: String,
    /// Number of item-memory shards (`>= 1`), fixed at spawn. Shards
    /// partition the stored items by key; every query is answered by the
    /// adopted head, whatever its key. Only a cluster router reshards
    /// ([`ClusterRouter::join`](crate::ClusterRouter::join)/
    /// [`leave`](crate::ClusterRouter::leave)).
    pub shards: usize,
    /// Geometry of the consistent-hash ring the item shards are placed on,
    /// fixed at spawn.
    pub ring: RingConfig,
    /// Seed of the item ring's circular basis, fixed at spawn.
    pub seed: u64,
    /// Micro-batching policy of the ingestion queue.
    pub policy: BatchPolicy,
    /// Observations between automatic generation publishes; `0` publishes
    /// only on explicit [`RuntimeHandle::refresh`].
    pub refresh_every: usize,
    /// Restore a previously written [`Snapshot`] (see
    /// [`RuntimeHandle::snapshot`]) from this path on [`Runtime::spawn`],
    /// making the restart warm. A missing file is a
    /// cold start (not an error); a present-but-incompatible snapshot
    /// (different spec) is an error.
    pub load_snapshot: Option<PathBuf>,
    /// Continuous durability: a [`DurabilityConfig`] turns on the
    /// write-ahead log, periodic background snapshotting, and (when its
    /// `page_cache` is set) the paged file-backed item memory. At spawn the
    /// runtime recovers **bit-identically** to its last acknowledged state
    /// from the installed snapshot plus WAL replay — this composes with
    /// [`load_snapshot`](Self::load_snapshot), which seeds the model before
    /// the store's own recovery is applied on top. Under the default
    /// [`SyncPolicy::EveryBatch`], every fit, insert and remove is
    /// acknowledged only after one group `fdatasync` covers its log
    /// record, and on the paged item plane an insert or a remove also
    /// waits for the item files' fsync. [`SyncPolicy::Never`] acks without
    /// syncing. A storage failure on the logging path is fail-stop: the
    /// dispatcher panics rather than acknowledge a write it cannot
    /// recover.
    pub durability: Option<DurabilityConfig>,
}

impl Default for RuntimeConfig {
    /// One shard, default ring and batch policy, a new generation every 256
    /// observations, no durability hooks.
    fn default() -> Self {
        Self {
            name: String::new(),
            shards: 1,
            ring: RingConfig::default(),
            seed: 0,
            policy: BatchPolicy::default(),
            refresh_every: 256,
            load_snapshot: None,
            durability: None,
        }
    }
}

/// An immutable snapshot of one published generation: the finalized
/// [`Head`] behind an `Arc`, tagged with its publish ordinal. Cloning is a
/// reference-count bump; the head is never mutated after publish, so any
/// thread holding a `Generation` sees a complete, self-consistent model.
#[derive(Debug, Clone)]
pub struct Generation {
    id: u64,
    head: Arc<Head>,
}

impl Generation {
    /// The publish ordinal (0 = the spawn-time head).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The finalized head of this generation.
    #[must_use]
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The finalized classifier of this generation.
    ///
    /// # Panics
    ///
    /// Panics on a regression runtime's generation — use
    /// [`head`](Self::head).
    #[must_use]
    pub fn classifier(&self) -> &CentroidClassifier {
        self.head.classifier()
    }
}

/// The swap point between the trainer (writer) and everyone else (readers):
/// a single `RwLock<Generation>` held only for the pointer swap — the
/// expensive finalization happens off-lock, so readers are never blocked on
/// training work.
#[derive(Debug)]
struct GenerationCell {
    current: RwLock<Generation>,
}

impl GenerationCell {
    fn new(head: Arc<Head>) -> Self {
        Self {
            current: RwLock::new(Generation { id: 0, head }),
        }
    }

    fn load(&self) -> Generation {
        self.current
            .read()
            .expect("generation lock never poisons")
            .clone()
    }

    fn publish(&self, head: Arc<Head>) -> u64 {
        let mut current = self.current.write().expect("generation lock never poisons");
        current.id += 1;
        current.head = head;
        current.id
    }
}

/// A prediction/fit payload: either a raw input (encoded by the dispatcher,
/// amortized across the whole micro-batch) or an already encoded
/// hypervector (e.g. arriving over the wire).
enum Payload<O> {
    Input(O),
    Encoded(BinaryHypervector),
}

/// One request's keyed payloads, in order.
type KeyedPayloads<O> = Vec<(String, Payload<O>)>;

/// One prediction request: its keyed rows, served together by one
/// generation and answered, in order, by one reply.
struct PredictJob<O> {
    rows: KeyedPayloads<O>,
    enqueued: Instant,
    reply: Sender<Answers>,
}

enum Work<O> {
    Predict(PredictJob<O>),
    Insert {
        key: String,
        hv: BinaryHypervector,
        reply: Sender<bool>,
    },
    Remove {
        key: String,
        reply: Sender<bool>,
    },
    Fit {
        payload: Payload<O>,
        target: Target,
        /// `Some` on a durable runtime: the dispatcher acknowledges after
        /// the observation's WAL record is flushed, `None` keeps the
        /// fire-and-forget fast path.
        ack: Option<Sender<()>>,
    },
    Refresh {
        reply: Sender<u64>,
    },
    Stats {
        reply: Sender<RuntimeStats>,
    },
    Snapshot {
        spec: PipelineSpec,
        reply: Sender<Snapshot>,
    },
    Restore {
        snapshot: Snapshot,
        reply: Sender<Result<u64, HdcError>>,
    },
    Shutdown,
}

/// What the dispatcher, the trainer's only sender, relays to it; the
/// trainer stops once the dispatcher has exited and the queue is drained.
enum TrainerMsg {
    Observe {
        hv: BinaryHypervector,
        target: Target,
    },
    Refresh {
        reply: Sender<u64>,
    },
    /// Capture the trainer's accumulators (the dispatcher has already
    /// collected `items` from the fleet) into one consistent [`Snapshot`].
    Snapshot {
        spec: PipelineSpec,
        items: Vec<(String, BinaryHypervector)>,
        reply: Sender<Snapshot>,
    },
    /// Adopt a snapshot's accumulators and publish the rebuilt head as a
    /// new generation (the dispatcher has already adopted the items).
    Restore {
        snapshot: Snapshot,
        reply: Sender<Result<u64, HdcError>>,
    },
}

/// A point-in-time view of the whole runtime, served by the `stats`
/// operation: generation, uptime, fleet shape, per-shard load and the
/// ingestion metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// The currently published generation.
    pub generation: u64,
    /// Microseconds since the runtime spawned — so a load balancer can
    /// tell a fresh (cold-cache) runtime from a long-lived one without
    /// issuing a prediction.
    pub uptime_us: u64,
    /// The runtime's configured identity ([`RuntimeConfig::name`]; empty
    /// by default) — the shard-identity field a cluster router uses to
    /// tell shard processes apart.
    pub name: String,
    /// Number of ring positions each shard occupies on the consistent-hash
    /// ring ([`RingConfig::positions`]) — the rest of the shard-identity
    /// section (the item-memory key count is [`keys`](Self::keys)).
    pub ring_positions: u64,
    /// Query dimensionality `d`.
    pub dim: u64,
    /// Number of classes of the published head (`0` for a regression
    /// runtime, whose head has a label grid instead of a class set).
    pub classes: u64,
    /// Per-shard `(shard id, stored entries)` in creation order.
    pub shard_loads: Vec<(u64, u64)>,
    /// Total stored item-memory entries.
    pub keys: u64,
    /// Ingestion counters and distributions.
    pub metrics: crate::MetricsSnapshot,
}

/// The long-running serving process: owns the dispatcher and trainer
/// threads. Obtain cloneable [`RuntimeHandle`]s with
/// [`handle`](Self::handle); stop (and recover the final fleet and trainer
/// state) with [`shutdown`](Self::shutdown).
pub struct Runtime<X: ?Sized + ToOwned> {
    handle: RuntimeHandle<X>,
    spec: PipelineSpec,
    dispatcher: JoinHandle<ShardedModel<String>>,
    trainer: JoinHandle<OnlineLearner>,
    snapshotter: Option<JoinHandle<()>>,
}

impl<X: ?Sized + ToOwned> fmt::Debug for Runtime<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime").field("spec", &self.spec).finish()
    }
}

impl<X> Runtime<X>
where
    X: ?Sized + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    /// Spawns the runtime around a trained [`Model`]: the model's finalized
    /// head answers as generation 0, its learner seeds the online trainer,
    /// and its encoder moves to the dispatcher for batched server-side
    /// encoding. Stored items are partitioned over `config.shards` shards.
    ///
    /// With [`RuntimeConfig::load_snapshot`] set and the file present, the
    /// snapshot's trainer state and item memories are restored first (the
    /// snapshot must describe the model's spec), so the runtime resumes
    /// bit-identically where the snapshotting process stopped. With
    /// [`RuntimeConfig::durability`] set, the store's installed snapshot
    /// and log tail are applied on top (see the module's "Warm restarts").
    /// The head is finalized once, after everything is restored.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for an invalid shard count or ring geometry,
    /// and [`HdcError::Snapshot`] for a present-but-incompatible snapshot.
    pub fn spawn(model: Model<X>, config: RuntimeConfig) -> Result<Self, HdcError> {
        let (spec, encoder, mut learner, mut head) = model.into_parts();
        let encoder: Arc<dyn DynEncoder<X>> = Arc::from(encoder);
        let task = spec.task;
        // Warm and durable restarts restore counters into the learner; the
        // head is then finalized once, after all of them.
        let adopt = |learner: &mut OnlineLearner, snapshot: &Snapshot| {
            if *snapshot.spec() != spec {
                return Err(HdcError::Snapshot(
                    "snapshot spec does not match the model's spec".into(),
                ));
            }
            snapshot.restore(learner)
        };
        let mut restored = false;
        let mut restored_items = Vec::new();
        if let Some(path) = &config.load_snapshot {
            // Only a *missing* file is a cold start. Any other read failure
            // (permissions, broken mount) must be loud: silently serving an
            // untrained model — and then overwriting the snapshot with its
            // blank state on shutdown — would destroy the saved training.
            match std::fs::read(path) {
                Ok(bytes) => {
                    let mut snapshot = Snapshot::from_bytes(&bytes)?;
                    restored_items = snapshot.take_items();
                    adopt(&mut learner, &snapshot)?;
                    restored = true;
                }
                Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
                Err(error) => {
                    return Err(HdcError::Snapshot(format!(
                        "reading {}: {error}",
                        path.display()
                    )))
                }
            }
        }
        // Durable recovery composes on top of the (optional) seed snapshot:
        // the installed background snapshot restores first, then the WAL
        // tail replays over it. The spec digest in every segment header
        // guarantees the log belongs to this model's spec.
        let mut item_replay = Vec::new();
        let mut durable_parts = None;
        if let Some(dcfg) = &config.durability {
            let (store, recovery) = Store::open(&dcfg.dir, spec.hash64(), dcfg.wal_config())?;
            if let Some(blob) = &recovery.snapshot {
                let mut snapshot = Snapshot::from_bytes(blob)?;
                restored_items.extend(snapshot.take_items());
                adopt(&mut learner, &snapshot)?;
                restored = true;
            }
            // Fits fold into the accumulators in one pass (commutative
            // integer addition, so the result is bit-identical to the
            // pre-crash fold order); item mutations are applied to the
            // item plane below, in log order.
            restored |= learner.replay(&recovery.records, task, spec.dim)? > 0;
            item_replay = recovery
                .records
                .into_iter()
                .filter(|record| {
                    matches!(record, WalRecord::Insert { .. } | WalRecord::Remove { .. })
                })
                .collect();
            durable_parts = Some(store.into_parts());
        }
        if restored {
            head = learner.finish();
        }
        let mut fleet = ShardedModel::with_head(
            head.clone(),
            spec.dim,
            config.shards,
            config.ring,
            config.seed,
        )?;
        // The item plane: by default items live in the fleet's in-RAM
        // shard maps; with a page-cache budget they live in the file-backed
        // paged store instead (bounded resident memory), and the fleet only
        // routes keys.
        let mut plane: Option<PagedStore> = match &config.durability {
            Some(dcfg) => match dcfg.page_cache {
                Some(budget) => Some(PagedStore::open(dcfg.dir.join("items"), spec.dim, budget)?),
                None => None,
            },
            None => None,
        };
        match plane.as_mut() {
            Some(store) => {
                for (key, hv) in restored_items {
                    if hv.dim() != spec.dim {
                        return Err(HdcError::Storage(format!(
                            "restored item has dimension {}, model expects {}",
                            hv.dim(),
                            spec.dim
                        )));
                    }
                    store.insert(&key, &hv)?;
                }
            }
            None => {
                for (key, hv) in restored_items {
                    if hv.dim() != spec.dim {
                        return Err(HdcError::Storage(format!(
                            "restored item has dimension {}, model expects {}",
                            hv.dim(),
                            spec.dim
                        )));
                    }
                    fleet.insert(key, hv);
                }
            }
        }
        for record in item_replay {
            match record {
                WalRecord::Insert { key, hv } => {
                    if hv.dim() != spec.dim {
                        return Err(HdcError::Storage(format!(
                            "logged insert has dimension {}, model expects {}",
                            hv.dim(),
                            spec.dim
                        )));
                    }
                    match plane.as_mut() {
                        Some(store) => {
                            store.insert(&key, &hv)?;
                        }
                        None => {
                            fleet.insert(key, hv);
                        }
                    }
                }
                WalRecord::Remove { key } => match plane.as_mut() {
                    Some(store) => {
                        store.remove(&key)?;
                    }
                    None => {
                        fleet.remove(&key);
                    }
                },
                // Filtered out: the fits were folded above.
                WalRecord::Fit { .. } | WalRecord::FitValue { .. } => {}
            }
        }
        let policy = BatchPolicy {
            max_batch: config.policy.max_batch.max(1),
        };
        let metrics = Arc::new(ServeMetrics::new(policy.max_batch));
        let generations = Arc::new(GenerationCell::new(Arc::new(head)));
        // The spawn generation, also the fleet's head: the dispatcher
        // starts from it and adopts the newest one at each batch.
        let spawned = generations.load();
        let alive = Arc::new(AtomicBool::new(true));

        let (work_tx, work_rx) = mpsc::channel::<Work<X::Owned>>();
        let (trainer_tx, trainer_rx) = mpsc::channel::<TrainerMsg>();

        let identity = ShardIdentity {
            name: config.name.clone(),
            ring_positions: config.ring.positions as u64,
            classes: match task {
                Task::Classification { classes } => classes as u64,
                Task::Regression { .. } => 0,
            },
        };
        // The durable halves: the dispatcher owns the append half (the
        // WAL behind its group-commit flush scheduler); the snapshotter
        // thread owns the install half, receiving one job per triggered
        // snapshot so installation and segment GC never block serving or
        // training.
        let mut snapshotter = None;
        let durability = match (config.durability.as_ref(), durable_parts) {
            (Some(dcfg), Some((wal, installer))) => {
                let (snap_tx, snap_rx) = mpsc::channel::<SnapJob>();
                snapshotter = Some(
                    thread::Builder::new()
                        .name("hdc-serve-snap".into())
                        .spawn(move || snapshot_loop(snap_rx, installer))
                        .expect("spawning the snapshotter thread"),
                );
                let last_seq = wal.next_seq();
                Some(Durability {
                    wal: GroupCommitWal::new(wal, dcfg.group_commit_config()),
                    spec: spec.clone(),
                    snapshot_every: dcfg.snapshot_every,
                    appended: 0,
                    snap_tx,
                    sync: dcfg.sync,
                    last_seq,
                })
            }
            _ => None,
        };
        let dispatcher = {
            let metrics = Arc::clone(&metrics);
            let generations = Arc::clone(&generations);
            let alive = Arc::clone(&alive);
            let dispatch_encoder = Arc::clone(&encoder);
            thread::Builder::new()
                .name("hdc-serve-dispatch".into())
                .spawn(move || {
                    // Drop guard: the liveness flag goes false the moment
                    // the dispatcher exits — graceful shutdown *or* panic —
                    // so health probes stop reporting a dead queue healthy.
                    let _alive = AliveGuard(alive);
                    dispatcher_loop(
                        work_rx,
                        fleet,
                        dispatch_encoder,
                        policy,
                        metrics,
                        generations,
                        spawned,
                        trainer_tx,
                        identity,
                        durability,
                        plane,
                    )
                })
                .expect("spawning the dispatcher thread")
        };
        let trainer_thread = {
            let metrics = Arc::clone(&metrics);
            let generations = Arc::clone(&generations);
            thread::Builder::new()
                .name("hdc-serve-train".into())
                .spawn(move || {
                    trainer_loop(
                        trainer_rx,
                        learner,
                        generations,
                        config.refresh_every,
                        metrics,
                    )
                })
                .expect("spawning the trainer thread")
        };

        Ok(Self {
            handle: RuntimeHandle {
                work_tx,
                generations,
                metrics,
                alive,
                encoder,
                dim: spec.dim,
                task,
                spec: Arc::new(spec.clone()),
                durable: config.durability.is_some(),
            },
            spec,
            dispatcher,
            trainer: trainer_thread,
            snapshotter,
        })
    }

    /// A cloneable ingestion handle. Handles stay valid until
    /// [`shutdown`](Self::shutdown); afterwards every call returns
    /// [`HdcError::ServiceUnavailable`].
    #[must_use]
    pub fn handle(&self) -> RuntimeHandle<X> {
        self.handle.clone()
    }

    /// The spec of the pipeline this runtime serves.
    #[must_use]
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Stops both threads gracefully — queued work ahead of the shutdown
    /// marker is still served — and returns the final sharded fleet and the
    /// accumulated trainer state (for persistence or warm restart); callers
    /// that only want to stop may ignore them. The fleet holds the item
    /// memories and the head of the last adopted generation, so it answers
    /// like the runtime's last reply. To restart warm, write a live
    /// [`RuntimeHandle::snapshot`] before shutting down.
    pub fn shutdown(self) -> (ShardedModel<String>, OnlineLearner) {
        let _ = self.handle.work_tx.send(Work::Shutdown);
        let fleet = self.dispatcher.join().expect("dispatcher thread panicked");
        // The dispatcher's exit dropped the trainer's only sender, so the
        // trainer drains what it relayed and stops.
        let learner = self.trainer.join().expect("trainer thread panicked");
        // The dispatcher's exit also dropped the snapshot-job sender, and
        // the trainer answered every queued capture — so this join waits
        // only for in-flight installations to land.
        if let Some(snapshotter) = self.snapshotter {
            let _ = snapshotter.join();
        }
        (fleet, learner)
    }
}

/// A cheap, cloneable client of a [`Runtime`]: every method is a blocking
/// RPC into the work queue (predictions are answered when their micro-batch
/// is served). Handles are `Send`, so any number of threads — or any number
/// of TCP connection handlers — can share one runtime.
pub struct RuntimeHandle<X: ?Sized + ToOwned> {
    work_tx: Sender<Work<X::Owned>>,
    generations: Arc<GenerationCell>,
    metrics: Arc<ServeMetrics>,
    alive: Arc<AtomicBool>,
    /// The dispatcher's encoder, shared so raw inputs are checked before
    /// they are enqueued.
    encoder: Arc<dyn DynEncoder<X>>,
    dim: usize,
    task: Task,
    spec: Arc<PipelineSpec>,
    durable: bool,
}

/// The identity fields of the `stats` reply — fixed at spawn, owned by the
/// dispatcher.
struct ShardIdentity {
    name: String,
    ring_positions: u64,
    /// The spec's class count (`0` for a regression runtime): every head
    /// the runtime adopts is finalized from that spec.
    classes: u64,
}

/// Flips the runtime's liveness flag to `false` when dropped — installed
/// on the dispatcher thread so the flag falls on graceful exit *and* on a
/// dispatcher panic alike.
struct AliveGuard(Arc<AtomicBool>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

impl<X: ?Sized + ToOwned> Clone for RuntimeHandle<X> {
    fn clone(&self) -> Self {
        Self {
            work_tx: self.work_tx.clone(),
            generations: Arc::clone(&self.generations),
            metrics: Arc::clone(&self.metrics),
            alive: Arc::clone(&self.alive),
            encoder: Arc::clone(&self.encoder),
            dim: self.dim,
            task: self.task,
            spec: Arc::clone(&self.spec),
            durable: self.durable,
        }
    }
}

impl<X: ?Sized + ToOwned> fmt::Debug for RuntimeHandle<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("dim", &self.dim)
            .field("task", &self.task)
            .finish()
    }
}

impl<X> RuntimeHandle<X>
where
    X: ?Sized + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    /// Query dimensionality `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The task family this runtime serves.
    #[must_use]
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of classes the runtime was spawned with.
    ///
    /// # Panics
    ///
    /// Panics on a regression runtime (which has no class set).
    #[must_use]
    pub fn classes(&self) -> usize {
        match self.task {
            Task::Classification { classes } => classes,
            Task::Regression { .. } => {
                panic!("classes() requires a classification runtime, found regression")
            }
        }
    }

    /// Time since the runtime spawned — the probe field `ping` serves.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.metrics.uptime()
    }

    /// `true` while the dispatcher is draining the work queue. Falls on
    /// [`Runtime::shutdown`] *and* if the dispatcher thread dies — the
    /// signal the `ping` health probe reports, so a load balancer never
    /// keeps a dead backend in rotation on generation/uptime reads alone.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// The currently published generation (snapshot; cheap).
    #[must_use]
    pub fn generation(&self) -> Generation {
        self.generations.load()
    }

    /// Answers a set of raw inputs, in order, with the adopted head's
    /// readout: labels on a classifier, values on a regressor. The inputs
    /// are encoded server-side inside the micro-batch's parallel encode
    /// pass. The set is one request: the dispatcher may serve it beside
    /// other queued requests but never splits it, so one generation
    /// answers every row. Blocks until the batch is served.
    ///
    /// # Errors
    ///
    /// Returns the encoder's input error (see
    /// [`hdc_encode::Encoder::check_input`]) if any input cannot be encoded
    /// (nothing is enqueued then) and [`HdcError::ServiceUnavailable`]
    /// after shutdown.
    pub fn answer<'a, I>(&self, inputs: I) -> Result<Answers, HdcError>
    where
        I: IntoIterator<Item = (String, &'a X)>,
        X: 'a,
    {
        let rows = inputs
            .into_iter()
            .map(|(key, input)| Ok((key, self.raw(input)?)))
            .collect::<Result<_, HdcError>>()?;
        self.submit(rows)
    }

    /// [`answer`](Self::answer) for already encoded queries.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if any query's width differs
    /// from the runtime's and [`HdcError::ServiceUnavailable`] after
    /// shutdown.
    pub fn answer_encoded(
        &self,
        pairs: Vec<(String, BinaryHypervector)>,
    ) -> Result<Answers, HdcError> {
        for (_, hv) in &pairs {
            self.check_dim(hv.dim())?;
        }
        self.submit(
            pairs
                .into_iter()
                .map(|(key, hv)| (key, Payload::Encoded(hv)))
                .collect(),
        )
    }

    /// Predicts one raw input's label.
    ///
    /// # Errors
    ///
    /// As [`answer`](Self::answer), plus [`HdcError::TaskMismatch`] on a
    /// regression runtime.
    pub fn predict(&self, key: impl Into<String>, input: &X) -> Result<Prediction, HdcError> {
        self.answer([(key.into(), input)])?
            .into_labels()
            .map(single)
    }

    /// Predicts a set of already encoded queries' labels, in order.
    ///
    /// # Errors
    ///
    /// As [`answer_encoded`](Self::answer_encoded), plus
    /// [`HdcError::TaskMismatch`] on a regression runtime.
    pub fn predict_encoded_many(
        &self,
        pairs: Vec<(String, BinaryHypervector)>,
    ) -> Result<Vec<Prediction>, HdcError> {
        self.answer_encoded(pairs)?.into_labels()
    }

    /// Predicts one raw input's real-valued label.
    ///
    /// # Errors
    ///
    /// As [`answer`](Self::answer), plus [`HdcError::TaskMismatch`] on a
    /// classification runtime.
    pub fn predict_value(
        &self,
        key: impl Into<String>,
        input: &X,
    ) -> Result<ValuePrediction, HdcError> {
        self.answer([(key.into(), input)])?
            .into_values()
            .map(single)
    }

    /// Predicts a set of raw inputs' values, in order.
    ///
    /// # Errors
    ///
    /// As [`answer`](Self::answer), plus [`HdcError::TaskMismatch`] on a
    /// classification runtime.
    pub fn predict_value_many<'a, I>(&self, inputs: I) -> Result<Vec<ValuePrediction>, HdcError>
    where
        I: IntoIterator<Item = (String, &'a X)>,
        X: 'a,
    {
        self.answer(inputs)?.into_values()
    }

    /// A raw input's payload, once the encoder has accepted it: an input
    /// the dispatcher would panic on is refused here instead.
    fn raw(&self, input: &X) -> Result<Payload<X::Owned>, HdcError> {
        self.encoder.check_input(input)?;
        Ok(Payload::Input(input.to_owned()))
    }

    /// The one prediction path: the rows travel as one work item and come
    /// back as one reply, in order.
    fn submit(&self, rows: KeyedPayloads<X::Owned>) -> Result<Answers, HdcError> {
        if rows.is_empty() {
            return Ok(Answers::none(self.task));
        }
        let enqueued = Instant::now();
        self.rpc(|reply| {
            Work::Predict(PredictJob {
                rows,
                enqueued,
                reply,
            })
        })
    }

    /// Stores an encoded hypervector under `key` on its owning shard.
    /// Returns `true` if a previous entry was replaced.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] for a wrong-width vector and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn insert(&self, key: impl Into<String>, hv: BinaryHypervector) -> Result<bool, HdcError> {
        self.check_dim(hv.dim())?;
        self.rpc(|reply| Work::Insert {
            key: key.into(),
            hv,
            reply,
        })
    }

    /// Removes a stored entry. Returns `true` if the key was stored.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn remove(&self, key: impl Into<String>) -> Result<bool, HdcError> {
        self.rpc(|reply| Work::Remove {
            key: key.into(),
            reply,
        })
    }

    /// Enqueues one raw training observation. Encoding rides the
    /// dispatcher's next micro-batch; the observation is then folded into
    /// the online trainer in the background and becomes visible to
    /// predictions at the next generation publish. Fire-and-forget on an
    /// in-RAM runtime; on a durable runtime this blocks until the
    /// observation's write-ahead-log record is flushed — an `Ok` return is
    /// a durability acknowledgement, and the observation survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] for the other task's target,
    /// [`HdcError::LabelOutOfRange`] for an unknown label, the encoder's
    /// input error for an input it cannot encode and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn observe(&self, input: &X, target: Target) -> Result<(), HdcError> {
        target.check(self.task)?;
        self.send_fit(self.raw(input)?, target)
    }

    /// [`observe`](Self::observe) for an already encoded observation.
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe), with
    /// [`HdcError::DimensionMismatch`] for a wrong-width vector in place
    /// of the encoder's error.
    pub fn observe_encoded(&self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        target.check(self.task)?;
        self.check_dim(hv.dim())?;
        self.send_fit(Payload::Encoded(hv), target)
    }

    /// Enqueues one raw `(input, label)` observation (see
    /// [`observe`](Self::observe)).
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn fit(&self, input: &X, label: usize) -> Result<(), HdcError> {
        self.observe(input, Target::Label(label))
    }

    /// Enqueues one raw `(input, value)` observation (see
    /// [`observe`](Self::observe)).
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn fit_value(&self, input: &X, value: f64) -> Result<(), HdcError> {
        self.observe(input, Target::Value(value))
    }

    /// The one fit path: every observation rides the work queue, so the
    /// dispatcher relays it to the trainer (logging it first when
    /// durable). Fire-and-forget in RAM, blocking until its log record is
    /// flushed when durable.
    fn send_fit(&self, payload: Payload<X::Owned>, target: Target) -> Result<(), HdcError> {
        if self.durable {
            return self.rpc(|ack| Work::Fit {
                payload,
                target,
                ack: Some(ack),
            });
        }
        self.send_work(Work::Fit {
            payload,
            target,
            ack: None,
        })
    }

    /// Forces the trainer to publish a new generation, returning its id.
    /// The request travels through the same work queue as `fit`, so every
    /// observation enqueued before `refresh` is included in the published
    /// generation; the dispatcher adopts it at the next micro-batch
    /// boundary, so a prediction issued after `refresh` returns reports
    /// this generation (or a later one).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn refresh(&self) -> Result<u64, HdcError> {
        self.rpc(|reply| Work::Refresh { reply })
    }

    /// Snapshots the runtime's state and metrics.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn stats(&self) -> Result<RuntimeStats, HdcError> {
        self.rpc(|reply| Work::Stats { reply })
    }

    /// The spec of the pipeline this runtime serves.
    #[must_use]
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Captures a live [`Snapshot`] of the runtime — spec, trainer
    /// accumulators and item memories — without stopping it. The capture
    /// is consistent: the dispatcher collects the items at a micro-batch
    /// boundary and the trainer folds its accumulators in after every
    /// observation relayed before the call, so the snapshot a cluster
    /// router streams to a warm-joining shard is a coherent point in time.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn snapshot(&self) -> Result<Snapshot, HdcError> {
        let spec = (*self.spec).clone();
        self.rpc(|reply| Work::Snapshot { spec, reply })
    }

    /// Adopts a [`Snapshot`]'s state into the live runtime: its trainer
    /// accumulators replace the online trainer's, the rebuilt head is
    /// published as a new generation, and its items are merged
    /// (upsert-style) into the fleet. This is how a fresh shard process
    /// joins a cluster warm — a peer's streamed snapshot makes it answer
    /// bit-identically to the shard state it inherits. Returns the id of
    /// the published generation.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] if the snapshot's spec differs from
    /// the runtime's, and [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn restore(&self, snapshot: Snapshot) -> Result<u64, HdcError> {
        if snapshot.spec() != &*self.spec {
            return Err(HdcError::Snapshot(
                "snapshot spec does not match the runtime's spec".into(),
            ));
        }
        self.rpc(|reply| Work::Restore { snapshot, reply })?
    }

    fn rpc<R>(&self, make: impl FnOnce(Sender<R>) -> Work<X::Owned>) -> Result<R, HdcError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send_work(make(reply_tx))?;
        reply_rx.recv().map_err(|_| HdcError::ServiceUnavailable)
    }

    fn send_work(&self, work: Work<X::Owned>) -> Result<(), HdcError> {
        // Increment before the send so the dispatcher's matching decrement
        // (which can only happen after the send) never underflows.
        self.metrics.enqueued(1);
        self.work_tx.send(work).map_err(|_| {
            self.metrics.dequeued(1);
            HdcError::ServiceUnavailable
        })
    }

    fn check_dim(&self, found: usize) -> Result<(), HdcError> {
        if found != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                found,
            });
        }
        Ok(())
    }
}

/// The single answer of a one-row request.
fn single<R>(mut answers: Vec<R>) -> R {
    answers.pop().expect("one prediction per request")
}

/// One row of a micro-batch, borrowed from its pending job.
enum RowSource<'a, X: ?Sized> {
    Input(&'a X),
    Encoded(&'a BinaryHypervector),
}

impl<'a, X: ?Sized> RowSource<'a, X> {
    fn of<O: Borrow<X>>(payload: &'a Payload<O>) -> Self {
        match payload {
            Payload::Input(input) => RowSource::Input(input.borrow()),
            Payload::Encoded(hv) => RowSource::Encoded(hv),
        }
    }
}

/// Fills `batch` (already sized to `sources.len()`) from the row sources:
/// raw inputs are encoded, pre-encoded rows copied — forking only when the
/// rows' summed work pays for it, bit-identical to the serial loop.
fn fill_batch<X: ?Sized + Sync>(
    encoder: &dyn DynEncoder<X>,
    sources: &[RowSource<'_, X>],
    batch: &mut HypervectorBatch,
) {
    let work: usize = sources
        .iter()
        .map(|source| match source {
            RowSource::Input(_) => encoder.row_word_ops(),
            RowSource::Encoded(_) => batch.words_per_row(),
        })
        .sum();
    minipool::par_fill_indexed(&mut batch.rows_mut().collect::<Vec<_>>(), work, |i, row| {
        match &sources[i] {
            RowSource::Input(input) => encoder.encode_into(input, row.reborrow()),
            RowSource::Encoded(hv) => row.copy_from(hv.view()),
        }
    });
}

/// One background-snapshot installation job: the trainer's capture arrives
/// on `snapshot_rx` (queued behind every observation it must include), and
/// `upto` is the log sequence number the installed snapshot covers — replay
/// after installation starts there.
struct SnapJob {
    snapshot_rx: Receiver<Snapshot>,
    upto: u64,
}

/// The dispatcher-owned durability state: the WAL append half (behind the
/// group-commit flush scheduler), the spec (re-sent with every snapshot
/// capture), and the snapshot cadence.
struct Durability {
    wal: GroupCommitWal,
    spec: PipelineSpec,
    snapshot_every: u64,
    /// Records appended since the last triggered snapshot.
    appended: u64,
    snap_tx: Sender<SnapJob>,
    /// The configured flush policy: under every policy but
    /// [`SyncPolicy::Never`], an item commit also fsyncs the paged item
    /// files.
    sync: SyncPolicy,
    /// Sequence of the last appended record: the ticket the next
    /// [`commit`](Durability::commit) parks on.
    last_seq: u64,
}

impl Durability {
    /// Appends one record. Fail-stop on a storage error: the dispatcher
    /// must never acknowledge a write it cannot recover, and exiting flips
    /// the liveness flag so health probes drop this runtime.
    fn append(&mut self, record: &WalRecord) {
        self.last_seq = self
            .wal
            .append(record)
            .expect("write-ahead log append failed; refusing to acknowledge non-durable writes");
        self.appended += 1;
    }

    /// Parks this micro-batch's acknowledgements on the flush scheduler:
    /// they fire when the group's single `fdatasync` retires everything
    /// appended so far (at once under [`SyncPolicy::Never`]). Fail-stop
    /// like [`append`](Durability::append).
    fn commit(&mut self, acks: Vec<GroupAck>) {
        self.wal
            .commit(self.last_seq, acks)
            .expect("write-ahead log flush failed; refusing to acknowledge non-durable writes");
    }

    /// Parks an insert's or a remove's reply like [`commit`](Self::commit).
    /// The paged item files share the WAL's commit boundary: they are
    /// fsynced before the reply parks, so an acked binding is durable in
    /// both planes, not just replayable.
    fn commit_item(&mut self, plane: Option<&mut PagedStore>, ack: GroupAck) {
        if let Some(store) = plane.filter(|_| self.sync != SyncPolicy::Never) {
            store
                .sync_files()
                .expect("paged item store fsync failed; refusing to acknowledge");
        }
        self.commit(vec![ack]);
    }

    fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.appended >= self.snapshot_every
    }
}

/// Runs on the `hdc-serve-snap` thread: waits for each triggered capture to
/// arrive from the trainer, then installs it (tmp+rename + manifest) and
/// garbage-collects the WAL segments it retires. Install failures are
/// reported, never fatal — the log still covers everything.
fn snapshot_loop(snap_rx: Receiver<SnapJob>, installer: SnapshotInstaller) {
    while let Ok(job) = snap_rx.recv() {
        let Ok(snapshot) = job.snapshot_rx.recv() else {
            continue;
        };
        if let Err(error) = installer.install(&snapshot.to_bytes(), job.upto) {
            eprintln!("hdc-serve: background snapshot installation failed: {error}");
        }
    }
}

/// Collects the item plane's full contents for a snapshot capture. With the
/// paged plane the items are *not* copied into the snapshot — the paged
/// files are themselves durable, so the store is flushed instead and the
/// snapshot carries only the trainer state.
fn snapshot_items(
    plane: &mut Option<PagedStore>,
    fleet: &ShardedModel<String>,
) -> Result<Vec<(String, BinaryHypervector)>, HdcError> {
    match plane.as_mut() {
        Some(store) => {
            store.flush()?;
            Ok(Vec::new())
        }
        None => Ok(fleet
            .entries()
            .map(|(key, hv)| (key.clone(), hv.clone()))
            .collect()),
    }
}

/// Triggers one background snapshot: flush/collect the items, cut the log
/// at the cover point (the next segment starts there, so the install's
/// segment GC deletes every record the snapshot covers), and wire the
/// trainer's capture (queued behind every observation relayed so far) to
/// the snapshotter thread.
fn trigger_snapshot(
    dur: &mut Durability,
    plane: &mut Option<PagedStore>,
    fleet: &ShardedModel<String>,
    trainer_tx: &Sender<TrainerMsg>,
) {
    let items = match snapshot_items(plane, fleet) {
        Ok(items) => items,
        Err(error) => {
            eprintln!("hdc-serve: background snapshot skipped: {error}");
            return;
        }
    };
    // The cut seals the outgoing segment with an fsync. Fail-stop like an
    // append: after a failed fsync the log can no longer vouch for acks.
    let upto = dur
        .wal
        .cut()
        .expect("write-ahead log segment cut failed; refusing to acknowledge non-durable writes");
    let (reply, snapshot_rx) = mpsc::channel();
    if trainer_tx
        .send(TrainerMsg::Snapshot {
            spec: dur.spec.clone(),
            items,
            reply,
        })
        .is_err()
    {
        return;
    }
    let _ = dur.snap_tx.send(SnapJob { snapshot_rx, upto });
    dur.appended = 0;
}

/// A fit queued in the current micro-batch: the observation payload, its
/// target, and the ack channel a durable caller is blocked on until the
/// WAL flush — `None` for fire-and-forget fits.
type PendingFit<O> = (Payload<O>, Target, Option<Sender<()>>);

/// Serves queued prediction requests as one arena: every row is encoded
/// (or copied) into `scratch`, the adopted generation's head answers the
/// whole arena at once, and each request gets its own rows' answers back,
/// in order, naming that generation.
fn serve_requests<X, O>(
    jobs: &mut Vec<PredictJob<O>>,
    encoder: &dyn DynEncoder<X>,
    scratch: &mut HypervectorBatch,
    latencies: &mut Vec<Duration>,
    adopted: &Generation,
) where
    X: ?Sized + Sync,
    O: Borrow<X>,
{
    if jobs.is_empty() {
        return;
    }
    let sources: Vec<RowSource<'_, X>> = jobs
        .iter()
        .flat_map(|job| &job.rows)
        .map(|(_, payload)| RowSource::of(payload))
        .collect();
    scratch.resize_zeroed(sources.len());
    fill_batch(encoder, &sources, scratch);
    let answers = adopted.head().answer(scratch);
    let mut start = 0;
    for job in jobs.drain(..) {
        let n = job.rows.len();
        latencies.extend(std::iter::repeat(job.enqueued.elapsed()).take(n));
        let _ = job
            .reply
            .send(answers.slice(start..start + n, adopted.id()));
        start += n;
    }
}

/// Serves the work queue until shutdown. `adopted` is the generation that
/// answers until the first batch adopts the newest one: every reply names
/// the generation that served it. `fleet` holds the item memories; on exit
/// it gets the last adopted head and is handed back.
///
/// One batching rule, no timer: the dispatcher blocks for the first work
/// item, then takes whatever else is already queued, up to
/// `policy.max_batch` rows, and serves it. A prediction request counts its
/// rows and a fit counts one. A request is never split: one that would
/// push a non-empty batch past the cap is held for the next batch (one
/// larger than the cap is a batch of its own). Any other operation closes
/// the batch and is served right after it, so queue order is kept.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn dispatcher_loop<X>(
    work_rx: Receiver<Work<X::Owned>>,
    mut fleet: ShardedModel<String>,
    encoder: Arc<dyn DynEncoder<X>>,
    policy: BatchPolicy,
    metrics: Arc<ServeMetrics>,
    generations: Arc<GenerationCell>,
    mut adopted: Generation,
    trainer_tx: Sender<TrainerMsg>,
    identity: ShardIdentity,
    mut durability: Option<Durability>,
    mut plane: Option<PagedStore>,
) -> ShardedModel<String>
where
    X: ?Sized + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    let dim = fleet.dim();
    // One scratch arena, recycled across micro-batches (`resize_zeroed`
    // keeps the allocation) and shared by the batch's predictions and then
    // its fits.
    let mut scratch = HypervectorBatch::with_capacity(dim, policy.max_batch);
    let mut jobs: Vec<PredictJob<X::Owned>> = Vec::new();
    let mut fits: Vec<PendingFit<X::Owned>> = Vec::new();
    let mut fit_acks: Vec<Sender<()>> = Vec::new();
    let mut latencies: Vec<Duration> = Vec::new();
    // A request that did not fit under the cap: it opens the next batch.
    let mut held: Option<Work<X::Owned>> = None;

    'runtime: loop {
        let mut work = match held.take() {
            Some(work) => work,
            None => match work_rx.recv() {
                Ok(work) => {
                    metrics.dequeued(1);
                    work
                }
                Err(_) => break 'runtime,
            },
        };
        // --- Collect what is queued, up to the cap. -----------------------
        let mut rows = 0usize;
        let stashed = loop {
            let room = |size: usize| rows == 0 || rows + size <= policy.max_batch;
            match work {
                Work::Predict(job) if room(job.rows.len()) => {
                    rows += job.rows.len();
                    jobs.push(job);
                }
                Work::Fit {
                    payload,
                    target,
                    ack,
                } if room(1) => {
                    rows += 1;
                    fits.push((payload, target, ack));
                }
                Work::Predict(_) | Work::Fit { .. } => {
                    held = Some(work);
                    break None;
                }
                // Any other operation closes the batch; it is served right
                // after it, so queue order is preserved.
                other => break Some(other),
            }
            if rows >= policy.max_batch {
                break None;
            }
            match work_rx.try_recv() {
                Ok(next) => {
                    metrics.dequeued(1);
                    work = next;
                }
                Err(_) => break None,
            }
        };

        // --- Serve the collected micro-batch. ---------------------------
        if rows > 0 {
            // Adopt the newest published generation at the batch boundary:
            // the whole batch — and every reply in it — is served by
            // exactly one generation.
            adopted = generations.load();
            serve_requests(
                &mut jobs,
                encoder.as_ref(),
                &mut scratch,
                &mut latencies,
                &adopted,
            );
            metrics.record_batch(rows, latencies.drain(..));

            if !fits.is_empty() {
                scratch.resize_zeroed(fits.len());
                let sources: Vec<RowSource<'_, X>> = fits
                    .iter()
                    .map(|(payload, _, _)| RowSource::of(payload))
                    .collect();
                fill_batch(encoder.as_ref(), &sources, &mut scratch);
                drop(sources);
                for ((_, target, ack), row) in fits.drain(..).zip(scratch.rows()) {
                    let hv = row.to_hypervector();
                    if let Some(dur) = durability.as_mut() {
                        dur.append(&target.record(&hv));
                    }
                    let _ = trainer_tx.send(TrainerMsg::Observe { hv, target });
                    fit_acks.extend(ack);
                }
            }
            // The micro-batch's acknowledgements park on the flush
            // scheduler as one group ticket: they release when a single
            // `fdatasync` covers every record appended above (possibly
            // shared with neighbouring micro-batches), so an acked fit is
            // on stable storage (per the configured sync policy). Only
            // durable fits carry acks.
            if !fit_acks.is_empty() {
                let acks = fit_acks.drain(..).map(|ack| -> GroupAck {
                    Box::new(move || {
                        let _ = ack.send(());
                    })
                });
                match durability.as_mut() {
                    Some(dur) => dur.commit(acks.collect()),
                    None => acks.for_each(|ack| ack()),
                }
            }
        }

        // --- Then the control operation that closed it, if any. ---------
        match stashed {
            None => {}
            Some(Work::Insert { key, hv, reply }) => {
                // Log-then-apply: the record parks on the group commit and
                // the caller sees the reply only after its flush retires,
                // so an acknowledged insert survives a crash (replay
                // re-applies it, idempotently).
                if let Some(dur) = durability.as_mut() {
                    dur.append(&WalRecord::Insert {
                        key: key.clone(),
                        hv: hv.clone(),
                    });
                }
                let replaced = match plane.as_mut() {
                    Some(store) => store
                        .insert(&key, &hv)
                        .expect("paged item store write failed; refusing to acknowledge"),
                    None => fleet.insert(key, hv).is_some(),
                };
                metrics.record_insert();
                match durability.as_mut() {
                    Some(dur) => dur.commit_item(
                        plane.as_mut(),
                        Box::new(move || {
                            let _ = reply.send(replaced);
                        }),
                    ),
                    None => {
                        let _ = reply.send(replaced);
                    }
                }
            }
            Some(Work::Remove { key, reply }) => {
                if let Some(dur) = durability.as_mut() {
                    dur.append(&WalRecord::Remove { key: key.clone() });
                }
                let removed = match plane.as_mut() {
                    Some(store) => store
                        .remove(&key)
                        .expect("paged item store write failed; refusing to acknowledge"),
                    None => fleet.remove(&key).is_some(),
                };
                metrics.record_remove();
                match durability.as_mut() {
                    Some(dur) => dur.commit_item(
                        plane.as_mut(),
                        Box::new(move || {
                            let _ = reply.send(removed);
                        }),
                    ),
                    None => {
                        let _ = reply.send(removed);
                    }
                }
            }
            Some(Work::Refresh { reply }) => {
                // Forwarded over the trainer channel *after* every fit this
                // dispatcher already relayed, so the published generation
                // includes them; the trainer answers the caller directly.
                let _ = trainer_tx.send(TrainerMsg::Refresh { reply });
            }
            Some(Work::Stats { reply }) => {
                // With the paged plane the fleet's shard maps are empty —
                // keys live in the store, so the key count comes from it
                // (and per-shard loads report the routing fleet, i.e. 0).
                let keys = match plane.as_ref() {
                    Some(store) => store.len() as u64,
                    None => fleet.len() as u64,
                };
                let _ = reply.send(RuntimeStats {
                    generation: generations.load().id(),
                    uptime_us: metrics.uptime().as_micros() as u64,
                    name: identity.name.clone(),
                    ring_positions: identity.ring_positions,
                    dim: dim as u64,
                    classes: identity.classes,
                    shard_loads: fleet
                        .shard_loads()
                        .into_iter()
                        .map(|(id, len)| (id as u64, len as u64))
                        .collect(),
                    keys,
                    metrics: metrics.snapshot(),
                });
            }
            Some(Work::Snapshot { spec, reply }) => {
                // The dispatcher owns the items; the trainer owns the
                // accumulators. Collecting here and capturing there keeps
                // the snapshot consistent: every fit this dispatcher
                // relayed before the call precedes the capture in the
                // trainer's queue. A caller-facing snapshot (warm-join
                // streaming) always carries the items — even from the
                // paged plane, whose full scan bypasses its hot cache.
                let items: Vec<(String, BinaryHypervector)> = match plane.as_mut() {
                    Some(store) => store
                        .entries()
                        .expect("paged item store scan failed during snapshot"),
                    None => fleet
                        .entries()
                        .map(|(key, hv)| (key.clone(), hv.clone()))
                        .collect(),
                };
                let _ = trainer_tx.send(TrainerMsg::Snapshot { spec, items, reply });
            }
            Some(Work::Restore {
                mut snapshot,
                reply,
            }) => {
                // Items merge into the item plane first (upsert), then the
                // trainer adopts the accumulators and publishes — so by
                // the time the caller sees the reply, both halves of the
                // snapshot are live.
                for (key, hv) in snapshot.take_items() {
                    match plane.as_mut() {
                        Some(store) => {
                            store
                                .insert(&key, &hv)
                                .expect("paged item store write failed during restore");
                        }
                        None => {
                            fleet.insert(key, hv);
                        }
                    }
                }
                let _ = trainer_tx.send(TrainerMsg::Restore { snapshot, reply });
                // Restored state arrived out-of-band of the WAL, so force a
                // background snapshot to cover it — the capture is queued
                // behind the restore, so it sees the adopted accumulators.
                if let Some(dur) = durability.as_mut() {
                    trigger_snapshot(dur, &mut plane, &fleet, &trainer_tx);
                }
            }
            Some(Work::Shutdown) => break 'runtime,
            Some(Work::Predict(_) | Work::Fit { .. }) => {
                unreachable!("predictions and fits are collected, never stashed")
            }
        }

        // Periodic background snapshotting: once enough records have been
        // logged since the last snapshot, capture one off-thread so replay
        // stays short and retired segments can be collected.
        if durability.as_ref().is_some_and(Durability::snapshot_due) {
            let dur = durability.as_mut().expect("checked above");
            trigger_snapshot(dur, &mut plane, &fleet, &trainer_tx);
        }
    }
    // Graceful exit: flush whatever the sync policy deferred. Best-effort —
    // every acknowledgement already implied its own flush.
    if let Some(dur) = durability.as_mut() {
        if let Err(error) = dur.wal.sync_now() {
            eprintln!("hdc-serve: final WAL flush failed: {error}");
        }
    }
    if let Some(store) = plane.as_mut() {
        if let Err(error) = store.flush() {
            eprintln!("hdc-serve: final item-store flush failed: {error}");
        }
    }
    // The returned fleet answers like the last reply.
    fleet
        .set_head(adopted.head().clone())
        .expect("every adopted head has the fleet's dimensionality");
    fleet
}

fn trainer_loop(
    rx: Receiver<TrainerMsg>,
    mut learner: OnlineLearner,
    generations: Arc<GenerationCell>,
    refresh_every: usize,
    metrics: Arc<ServeMetrics>,
) -> OnlineLearner {
    let mut since_publish = 0usize;
    while let Ok(message) = rx.recv() {
        match message {
            TrainerMsg::Observe { hv, target } => {
                learner
                    .observe(&hv, target)
                    .expect("observations are validated at the handle");
                metrics.record_fit();
                since_publish += 1;
                if refresh_every > 0 && since_publish >= refresh_every {
                    publish(&learner, &generations);
                    since_publish = 0;
                }
            }
            TrainerMsg::Refresh { reply } => {
                let _ = reply.send(publish(&learner, &generations));
                since_publish = 0;
            }
            TrainerMsg::Snapshot { spec, items, reply } => {
                let _ = reply.send(Snapshot::capture(spec, &learner, items));
            }
            TrainerMsg::Restore { snapshot, reply } => {
                let _ = reply.send(snapshot.restore(&mut learner).map(|()| {
                    since_publish = 0;
                    publish(&learner, &generations)
                }));
            }
        }
    }
    learner
}

/// Finalizes the learner's accumulators **off-lock** into an immutable
/// head and swaps it in as the next generation.
fn publish(learner: &OnlineLearner, generations: &GenerationCell) -> u64 {
    generations.publish(Arc::new(learner.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Basis, Enc, Pipeline};
    use hdc_encode::{FieldSpec, Radians};

    fn trained_model(dim: usize, seed: u64) -> Model<Radians> {
        let mut model = Pipeline::builder(dim)
            .seed(seed)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        let labels: Vec<usize> = (0..48).map(|i| usize::from(i >= 24)).collect();
        model.fit_batch(&hours, &labels).unwrap();
        model
    }

    fn trained_value_model(dim: usize, seed: u64) -> Model<Radians> {
        let mut model = Pipeline::builder(dim)
            .seed(seed)
            .regression(0.0, 24.0, 24)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        let values: Vec<f64> = (0..48).map(|i| f64::from(i) / 2.0).collect();
        model.fit_value_batch(&hours, &values).unwrap();
        model
    }

    fn config(shards: usize, max_batch: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            policy: BatchPolicy { max_batch },
            refresh_every: 0,
            ..RuntimeConfig::default()
        }
    }

    /// Runs `dispatcher_loop` on the calling thread over a queue the caller
    /// has already filled (ending in `Work::Shutdown`), so every batch
    /// boundary is decided by the queue contents alone. Returns what the
    /// dispatcher relayed to the trainer.
    fn run_dispatcher(
        work_rx: Receiver<Work<Radians>>,
        fleet: ShardedModel<String>,
        encoder: Box<dyn DynEncoder<Radians>>,
        max_batch: usize,
        metrics: &Arc<ServeMetrics>,
        generations: Arc<GenerationCell>,
        spawned: Generation,
    ) -> Receiver<TrainerMsg> {
        let (trainer_tx, trainer_rx) = mpsc::channel();
        dispatcher_loop(
            work_rx,
            fleet,
            encoder.into(),
            BatchPolicy { max_batch },
            Arc::clone(metrics),
            generations,
            spawned,
            trainer_tx,
            ShardIdentity {
                name: String::new(),
                ring_positions: 0,
                classes: 2,
            },
            None,
            None,
        );
        trainer_rx
    }

    /// A request of `rows` answered on `reply`.
    fn request(rows: &[Radians], first_key: usize, reply: Sender<Answers>) -> PredictJob<Radians> {
        PredictJob {
            rows: rows
                .iter()
                .enumerate()
                .map(|(i, row)| (format!("k{}", first_key + i), Payload::Input(*row)))
                .collect(),
            enqueued: Instant::now(),
            reply,
        }
    }

    #[test]
    fn dispatcher_serves_whole_queued_requests_up_to_the_cap() {
        // A pre-filled queue under `max_batch` 8, with encoded fits between
        // requests. A fit counts one row toward the cap. 3 rows + a fit + 4
        // rows fill the first batch. The next 3-row request is cut off by
        // the `Stats` behind it, which is answered after that batch and
        // before the 70-row request. 70 rows are a batch of their own. 5
        // rows + 2 fits leave no room for the 2-row request (it would fit
        // if fits did not count), so it waits for the next batch instead of
        // being split. A second `Stats` closes that batch, and 4 fits make a
        // batch without a prediction: 8, 3, 70, 7, 2 and 4 rows.
        enum Item {
            Request(usize),
            Fit(Target),
            /// Answered with these predicted rows and batches served.
            Stats(u64, u64),
        }
        let queue = [
            Item::Request(3),
            Item::Fit(Target::Label(0)),
            Item::Request(4),
            Item::Request(3),
            Item::Stats(10, 2),
            Item::Request(70),
            Item::Request(5),
            Item::Fit(Target::Label(1)),
            Item::Fit(Target::Label(0)),
            Item::Request(2),
            Item::Stats(87, 5),
            Item::Fit(Target::Label(2)),
            Item::Fit(Target::Label(0)),
            Item::Fit(Target::Label(1)),
            Item::Fit(Target::Label(2)),
        ];
        let model = trained_model(256, 3);
        let head = Head::Classes(model.classifier().clone());
        let fleet =
            ShardedModel::with_head(head.clone(), 256, 2, RingConfig::default(), 0).unwrap();
        let generations = Arc::new(GenerationCell::new(Arc::new(head)));
        let spawned = generations.load();

        let (work_tx, work_rx) = mpsc::channel();
        let mut replies = Vec::new();
        let mut fits = Vec::new();
        let mut next = 0u32;
        let mut first_key = 0;
        let mut input = || {
            next += 1;
            Radians::periodic(f64::from(next) * 0.37, 24.0)
        };
        for item in &queue {
            match *item {
                Item::Request(n) => {
                    let rows: Vec<Radians> = (0..n).map(|_| input()).collect();
                    let (reply_tx, reply_rx) = mpsc::channel();
                    work_tx
                        .send(Work::Predict(request(&rows, first_key, reply_tx)))
                        .unwrap();
                    replies.push(Ok((reply_rx, model.predict_batch(&rows))));
                    first_key += n;
                }
                Item::Fit(target) => {
                    let hv = model.encode(&input());
                    work_tx
                        .send(Work::Fit {
                            payload: Payload::Encoded(hv.clone()),
                            target,
                            ack: None,
                        })
                        .unwrap();
                    fits.push((hv, target));
                }
                Item::Stats(requests, batches) => {
                    let (stats_tx, stats_rx) = mpsc::channel();
                    work_tx.send(Work::Stats { reply: stats_tx }).unwrap();
                    replies.push(Err((stats_rx, requests, batches)));
                }
            }
        }
        work_tx.send(Work::Shutdown).unwrap();
        let (_, encoder, _, _) = model.into_parts();
        let metrics = Arc::new(ServeMetrics::new(8));
        let trainer_rx = run_dispatcher(work_rx, fleet, encoder, 8, &metrics, generations, spawned);

        for reply in replies {
            match reply {
                Ok((rx, expected)) => {
                    let served = rx.try_recv().expect("every request is answered");
                    let served = served.into_labels().expect("a classifier answers labels");
                    assert!(served.iter().all(|p| p.generation == 0));
                    let labels: Vec<usize> = served.iter().map(|p| p.label).collect();
                    assert_eq!(labels, expected, "rows answered in order");
                }
                Err((stats_rx, requests, batches)) => {
                    let stats = stats_rx.try_recv().expect("stats is answered");
                    assert_eq!(
                        (stats.metrics.requests, stats.metrics.batches),
                        (requests, batches),
                        "stats is served after the rows queued before it, and only those"
                    );
                }
            }
        }
        // Every fit reached the trainer, in queue order.
        let observed: Vec<(BinaryHypervector, Target)> = trainer_rx
            .try_iter()
            .map(|message| match message {
                TrainerMsg::Observe { hv, target } => (hv, target),
                _ => panic!("only observations were queued for the trainer"),
            })
            .collect();
        assert_eq!(observed, fits);
        // One histogram bin per row count up to the cap, fits included,
        // and the 70-row batch in the overflow bin after them: the six
        // batches, each once. `requests` counts predicted rows only.
        let snapshot = metrics.snapshot();
        assert_eq!((snapshot.requests, snapshot.batches), (87, 6));
        assert!((snapshot.mean_batch_size - 94.0 / 6.0).abs() < 1e-12);
        assert_eq!(snapshot.batch_sizes, [0, 1, 1, 1, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn runtime_predictions_match_the_direct_model() {
        let model = trained_model(512, 3);
        let inputs: Vec<Radians> = (0..40)
            .map(|i| Radians::periodic(f64::from(i) * 0.6, 24.0))
            .collect();
        let expected = model.predict_batch(&inputs);
        let encoded = model.encode_batch(&inputs);

        let runtime = Runtime::spawn(trained_model(512, 3), config(3, 8)).unwrap();
        let handle = runtime.handle();
        assert_eq!(handle.dim(), 512);
        assert_eq!(handle.classes(), 2);
        assert!(handle.task().is_classification());
        assert!(runtime.spec().task.is_classification());

        // Typed single predictions (server-side encode)…
        for (input, &label) in inputs.iter().zip(&expected) {
            let p = handle.predict("k", input).unwrap();
            assert_eq!(p.label, label);
            assert_eq!(p.generation, 0);
        }
        // …many at once (one queue burst, coalesced into micro-batches)…
        let many = handle
            .answer(inputs.iter().enumerate().map(|(i, x)| (format!("k{i}"), x)))
            .unwrap()
            .into_labels()
            .unwrap();
        assert_eq!(many.iter().map(|p| p.label).collect::<Vec<_>>(), expected);
        // …and pre-encoded rows.
        let pairs: Vec<(String, BinaryHypervector)> = encoded
            .rows()
            .enumerate()
            .map(|(i, row)| (format!("k{i}"), row.to_hypervector()))
            .collect();
        let served = handle.predict_encoded_many(pairs).unwrap();
        assert_eq!(served.iter().map(|p| p.label).collect::<Vec<_>>(), expected);

        let stats = handle.stats().unwrap();
        assert_eq!(stats.dim, 512);
        assert_eq!(stats.classes, 2);
        assert_eq!(stats.shard_loads.len(), 3);
        assert!(stats.metrics.requests >= 120);
        assert!(stats.metrics.batches >= 1);
        assert!(stats.metrics.mean_batch_size >= 1.0);
        runtime.shutdown();
    }

    #[test]
    fn replies_name_the_generation_whose_head_served_them() {
        // The trainer publishes generation 1 before the dispatcher serves
        // its first batch. The fleet still holds the spawn head, so the
        // dispatcher must start from the spawn generation and adopt
        // generation 1 at the batch boundary.
        let model = trained_model(256, 3);
        let inputs: Vec<Radians> = (0..24)
            .map(|h| Radians::periodic(f64::from(h), 24.0))
            .collect();
        let encoded: Vec<BinaryHypervector> = inputs.iter().map(|x| model.encode(x)).collect();
        let spawn_classifier = model.classifier().clone();
        let (spec, encoder, _, _) = model.into_parts();
        // Generation 1 swaps the class-vectors, so it answers every query
        // the other way round.
        let published_classifier = CentroidClassifier::from_class_vectors(vec![
            spawn_classifier.class_vector(1).clone(),
            spawn_classifier.class_vector(0).clone(),
        ])
        .unwrap();
        let heads = [&spawn_classifier, &published_classifier];
        for hv in &encoded {
            assert_ne!(heads[0].predict(hv), heads[1].predict(hv));
        }

        let spawn_head = Head::Classes(spawn_classifier.clone());
        let generations = Arc::new(GenerationCell::new(Arc::new(spawn_head.clone())));
        let spawned = generations.load();
        generations.publish(Arc::new(Head::Classes(published_classifier.clone())));
        let fleet =
            ShardedModel::with_head(spawn_head, spec.dim, 2, RingConfig::default(), 0).unwrap();

        let (work_tx, work_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        for (index, input) in inputs.iter().enumerate() {
            work_tx
                .send(Work::Predict(request(
                    std::slice::from_ref(input),
                    index,
                    reply_tx.clone(),
                )))
                .unwrap();
        }
        work_tx.send(Work::Shutdown).unwrap();
        drop(reply_tx);
        run_dispatcher(
            work_rx,
            fleet,
            encoder,
            8,
            &Arc::new(ServeMetrics::new(8)),
            generations,
            spawned,
        );

        // One request per row, answered in queue order.
        let replies: Vec<Vec<Prediction>> = reply_rx
            .iter()
            .map(|answers| answers.into_labels().unwrap())
            .collect();
        assert_eq!(replies.len(), inputs.len());
        for (index, reply) in replies.into_iter().enumerate() {
            assert_eq!(reply.len(), 1);
            let prediction = reply[0];
            let head = heads[prediction.generation as usize];
            assert_eq!(
                prediction.label,
                head.predict(&encoded[index]),
                "reply {index} names generation {}",
                prediction.generation
            );
        }
    }

    #[test]
    fn regression_runtime_serves_values_bit_identically() {
        let model = trained_value_model(512, 7);
        let inputs: Vec<Radians> = (0..40)
            .map(|i| Radians::periodic(f64::from(i) * 0.6, 24.0))
            .collect();
        let expected = model.predict_value_batch(&inputs);
        let encoded = model.encode_batch(&inputs);

        let runtime = Runtime::spawn(trained_value_model(512, 7), config(3, 8)).unwrap();
        let handle = runtime.handle();
        assert!(handle.task().is_regression());

        for (input, &value) in inputs.iter().zip(&expected) {
            let p = handle.predict_value("k", input).unwrap();
            assert_eq!(p.value, value);
            assert_eq!(p.generation, 0);
        }
        let many = handle
            .predict_value_many(inputs.iter().enumerate().map(|(i, x)| (format!("k{i}"), x)))
            .unwrap();
        assert_eq!(many.iter().map(|p| p.value).collect::<Vec<_>>(), expected);
        let pairs: Vec<(String, BinaryHypervector)> = encoded
            .rows()
            .enumerate()
            .map(|(i, row)| (format!("k{i}"), row.to_hypervector()))
            .collect();
        let served = handle.answer_encoded(pairs).unwrap().into_values().unwrap();
        assert_eq!(served.iter().map(|p| p.value).collect::<Vec<_>>(), expected);

        // Stats report the regression shape: no class set, live uptime.
        let stats = handle.stats().unwrap();
        assert_eq!(stats.classes, 0);
        assert_eq!(stats.dim, 512);
        assert!(stats.metrics.requests >= 120);

        // The classification forms report the mismatch; a label fit is
        // refused before anything is enqueued.
        assert!(matches!(
            handle.predict("k", &inputs[0]),
            Err(HdcError::TaskMismatch {
                expected: "classification",
                found: "regression"
            })
        ));
        assert!(matches!(
            handle.fit(&inputs[0], 0),
            Err(HdcError::TaskMismatch { .. })
        ));
        let (_, learner) = runtime.shutdown();
        assert!(learner.as_regress().is_some());
        assert_eq!(learner.observed(), 48);
    }

    #[test]
    fn malformed_raw_rows_are_refused_and_the_runtime_keeps_serving() {
        // A 3-field record regressor: a 2-field row must come back as an
        // error, not panic the dispatcher and take every later request
        // (and shutdown) down with it.
        let fields = vec![
            FieldSpec::scalar(0.0, 1.0),
            FieldSpec::angle(),
            FieldSpec::categorical(4),
        ];
        let model = Pipeline::builder(512)
            .seed(3)
            .regression(0.0, 1.0, 8)
            .encoder(Enc::record(fields))
            .build()
            .unwrap();
        let good = [0.5, 1.0, 2.0];
        let expected = model.predict_value(&good[..]);
        let runtime = Runtime::spawn(model, config(1, 4)).unwrap();
        let handle = runtime.handle();
        assert_eq!(
            handle.predict_value("k", &[0.5, 1.0][..]),
            Err(HdcError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        );
        let bad_symbol = [0.5, 1.0, 4.0];
        assert!(matches!(
            handle.predict_value("k", &bad_symbol[..]),
            Err(HdcError::SymbolOutOfRange { symbols: 4, .. })
        ));
        // One bad row refuses the whole request; nothing is enqueued.
        let rows = [("a".to_string(), &good[..]), ("b".to_string(), &[0.5][..])];
        assert!(handle.predict_value_many(rows).is_err());
        assert!(handle.fit_value(&[0.5, 1.0][..], 0.3).is_err());

        let served = handle.predict_value("k", &good[..]).unwrap();
        assert_eq!(served.value, expected);
        assert!(handle.is_alive());
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.observed(), 0);
    }

    #[test]
    fn malformed_sequences_are_refused_by_predict_and_fit() {
        let model = Pipeline::builder(256)
            .seed(4)
            .classes(2)
            .encoder(Enc::sequence(5))
            .build()
            .unwrap();
        let runtime = Runtime::spawn(model, config(1, 4)).unwrap();
        let handle = runtime.handle();
        let empty: &[usize] = &[];
        assert_eq!(handle.predict("k", empty), Err(HdcError::EmptyInput));
        assert!(matches!(
            handle.fit(&[1, 5][..], 0),
            Err(HdcError::SymbolOutOfRange { symbols: 5, .. })
        ));
        assert!(handle.answer([("k".to_string(), &[9][..])]).is_err());
        handle.fit(&[1, 4][..], 1).unwrap();
        assert!(handle.predict("k", &[1, 4][..]).is_ok());
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.observed(), 1);
    }

    #[test]
    fn online_value_fits_publish_generations_that_change_predictions() {
        // Start from an untrained regression model; online observations
        // must teach it the hour-of-day identity.
        let blank = Pipeline::builder(512)
            .seed(11)
            .regression(0.0, 24.0, 24)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let reference = trained_value_model(512, 11);
        let runtime = Runtime::spawn(blank, config(1, 4)).unwrap();
        let handle = runtime.handle();
        assert_eq!(handle.generation().id(), 0);

        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        for (i, hour) in hours.iter().enumerate() {
            handle.fit_value(hour, f64::from(i as u32) / 2.0).unwrap();
        }
        let generation = handle.refresh().unwrap();
        assert_eq!(generation, 1);

        // After the publish the served values equal the reference model
        // trained on the same 48 observations.
        for hour in &hours {
            let p = handle.predict_value("probe", hour).unwrap();
            assert_eq!(p.value, reference.predict_value(hour));
            assert_eq!(p.generation, 1);
        }
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.observed(), 48);
        assert!(matches!(
            handle.fit_value(&hours[0], 0.0),
            Err(HdcError::ServiceUnavailable)
        ));
    }

    #[test]
    fn inserts_removes_and_shard_churn_round_trip() {
        let model = trained_model(256, 5);
        let hv = model.encode(&Radians(1.0));
        let runtime = Runtime::spawn(model, config(2, 4)).unwrap();
        let handle = runtime.handle();

        assert!(!handle.insert("profile", hv.clone()).unwrap());
        assert!(handle.insert("profile", hv.clone()).unwrap());
        // The item shards are the two the runtime was spawned with.
        let stats = handle.stats().unwrap();
        assert_eq!(stats.shard_loads.len(), 2);
        assert_eq!(stats.keys, 1);
        assert!(handle.remove("profile").unwrap());
        assert!(!handle.remove("profile").unwrap());
        assert!(matches!(
            handle.insert("p", BinaryHypervector::zeros(128)),
            Err(HdcError::DimensionMismatch { .. })
        ));

        assert!(handle.is_alive());
        let (fleet, _learner) = runtime.shutdown();
        assert!(fleet.is_empty());
        assert!(!handle.is_alive(), "liveness falls with the dispatcher");
        assert!(matches!(
            handle.remove("profile"),
            Err(HdcError::ServiceUnavailable)
        ));
        assert!(matches!(
            handle.predict("k", &Radians(0.5)),
            Err(HdcError::ServiceUnavailable)
        ));
        assert!(matches!(handle.stats(), Err(HdcError::ServiceUnavailable)));
    }

    #[test]
    fn online_fits_publish_monotonic_generations_that_change_predictions() {
        // Start from an untrained model; the first generation of online
        // observations must teach it the day/night split.
        let blank = Pipeline::builder(512)
            .seed(7)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let runtime = Runtime::spawn(blank, config(1, 4)).unwrap();
        let handle = runtime.handle();
        assert_eq!(handle.generation().id(), 0);

        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        for (i, hour) in hours.iter().enumerate() {
            handle.fit(hour, usize::from(i >= 24)).unwrap();
        }
        let generation = handle.refresh().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(handle.generation().id(), 1);
        assert!(handle.refresh().unwrap() > generation, "ids are monotonic");

        let morning = handle.predict("a", &Radians::periodic(3.0, 24.0)).unwrap();
        let evening = handle.predict("b", &Radians::periodic(21.0, 24.0)).unwrap();
        assert_eq!(morning.label, 0);
        assert_eq!(evening.label, 1);
        assert_eq!(morning.generation, 2);

        // The recovered trainer saw all 48 observations.
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.as_classify().unwrap().counts(), &[24, 24]);
        assert!(matches!(
            handle.fit(&Radians(0.1), 0),
            Err(HdcError::ServiceUnavailable)
        ));
        assert!(matches!(
            handle.refresh(),
            Err(HdcError::ServiceUnavailable)
        ));
    }

    #[test]
    fn handle_validates_before_enqueueing() {
        let runtime = Runtime::spawn(trained_model(256, 1), config(1, 4)).unwrap();
        let handle = runtime.handle();
        assert!(matches!(
            handle.answer_encoded(vec![("k".into(), BinaryHypervector::zeros(64))]),
            Err(HdcError::DimensionMismatch {
                expected: 256,
                found: 64
            })
        ));
        assert!(matches!(
            handle.observe_encoded(BinaryHypervector::zeros(256), Target::Label(9)),
            Err(HdcError::LabelOutOfRange {
                label: 9,
                classes: 2
            })
        ));
        // Regression ops on a classification runtime are refused up front.
        assert!(matches!(
            handle.predict_value("k", &Radians(0.1)),
            Err(HdcError::TaskMismatch {
                expected: "regression",
                found: "classification"
            })
        ));
        assert!(matches!(
            handle.observe_encoded(BinaryHypervector::zeros(256), Target::Value(0.5)),
            Err(HdcError::TaskMismatch { .. })
        ));
        assert_eq!(
            handle.answer(std::iter::empty()).unwrap(),
            Answers::Labels(Vec::new())
        );
        runtime.shutdown();
    }

    #[test]
    fn queue_depth_settles_back_to_zero_and_uptime_advances() {
        let runtime = Runtime::spawn(trained_model(256, 2), config(1, 16)).unwrap();
        let handle = runtime.handle();
        let inputs: Vec<Radians> = (0..64).map(|i| Radians(f64::from(i) * 0.1)).collect();
        let _ = handle
            .answer(inputs.iter().enumerate().map(|(i, x)| (format!("k{i}"), x)))
            .unwrap();
        let stats = handle.stats().unwrap();
        assert_eq!(stats.metrics.queue_depth, 0);
        assert_eq!(stats.metrics.requests, 64);
        assert!(stats.uptime_us > 0);
        assert!(handle.uptime().as_micros() >= u128::from(stats.uptime_us));
        runtime.shutdown();
    }

    #[test]
    fn snapshot_before_shutdown_makes_the_next_spawn_warm() {
        let path =
            std::env::temp_dir().join(format!("hdc-runtime-snapshot-{}.hdcs", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // First life: train online, store an item, snapshot, shut down.
        let blank = Pipeline::builder(256)
            .seed(21)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let mut first_config = config(2, 4);
        // A missing load path is a cold start, not an error.
        first_config.load_snapshot = Some(path.clone());
        let runtime = Runtime::spawn(blank, first_config).unwrap();
        let handle = runtime.handle();
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        for (i, hour) in hours.iter().enumerate() {
            handle.fit(hour, usize::from(i >= 24)).unwrap();
        }
        handle.refresh().unwrap();
        let profile = BinaryHypervector::zeros(256);
        handle.insert("profile", profile.clone()).unwrap();
        let first_answers: Vec<usize> = hours
            .iter()
            .map(|h| handle.predict("k", h).unwrap().label)
            .collect();
        handle.snapshot().unwrap().write(&path).unwrap();
        runtime.shutdown();

        // Second life: same blank model + load_snapshot → warm restart.
        let blank = Pipeline::builder(256)
            .seed(21)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let mut second_config = config(2, 4);
        second_config.load_snapshot = Some(path.clone());
        let runtime = Runtime::spawn(blank, second_config).unwrap();
        let handle = runtime.handle();
        // Item memory survived…
        assert!(handle.insert("profile", profile).unwrap(), "entry restored");
        // …and the trained state answers bit-identically without any fit.
        let warm_answers: Vec<usize> = hours
            .iter()
            .map(|h| handle.predict("k", h).unwrap().label)
            .collect();
        assert_eq!(warm_answers, first_answers);
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.as_classify().unwrap().counts(), &[24, 24]);

        // A mismatched model spec is refused at spawn.
        let other = Pipeline::builder(256)
            .seed(22)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let mut bad_config = config(1, 4);
        bad_config.load_snapshot = Some(path.clone());
        assert!(matches!(
            Runtime::spawn(other, bad_config),
            Err(HdcError::Snapshot(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_hands_back_the_fleet_with_the_last_adopted_head() {
        // Serve, fit, refresh, serve again: the second reply comes from
        // generation 1. The fleet `shutdown` returns must answer like it,
        // not like the spawn-time head.
        let blank = blank_classify(256, 61);
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        let pairs: Vec<(String, BinaryHypervector)> = hours
            .iter()
            .enumerate()
            .map(|(i, h)| (format!("k{i}"), blank.encode(h)))
            .collect();
        let labels =
            |served: Vec<Prediction>| -> Vec<usize> { served.iter().map(|p| p.label).collect() };
        let runtime = Runtime::spawn(blank, config(2, 8)).unwrap();
        let handle = runtime.handle();
        let first = labels(handle.predict_encoded_many(pairs.clone()).unwrap());
        for (i, hour) in hours.iter().enumerate() {
            handle.fit(hour, usize::from(i >= 24)).unwrap();
        }
        handle.refresh().unwrap();
        let last = handle.predict_encoded_many(pairs.clone()).unwrap();
        assert!(last.iter().all(|p| p.generation == 1));
        let last = labels(last);
        assert_ne!(first, last, "training changed the answers");

        let (fleet, _) = runtime.shutdown();
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        let rows: Vec<BinaryHypervector> = pairs.iter().map(|(_, hv)| hv.clone()).collect();
        let batch = HypervectorBatch::from_vectors(&rows).unwrap();
        assert_eq!(fleet.predict_batch(&keys, &batch).unwrap(), last);
    }

    #[test]
    fn model_and_live_runtime_snapshots_are_the_same_bytes() {
        // Both task families: a model and a runtime spawned from its twin
        // hold the same trained state, before and after a few more fits
        // (offline on the model, online on the runtime).
        let twins: [fn() -> Model<Radians>; 2] =
            [|| trained_model(256, 3), || trained_value_model(256, 7)];
        for twin in twins {
            let mut model = twin();
            let runtime = Runtime::spawn(twin(), config(2, 4)).unwrap();
            let handle = runtime.handle();
            assert_eq!(
                handle.snapshot().unwrap().to_bytes(),
                model.snapshot().to_bytes()
            );
            for i in 0..5 {
                let hour = Radians::periodic(f64::from(i) * 4.5, 24.0);
                let target = if model.task().is_classification() {
                    Target::Label(i as usize % 2)
                } else {
                    Target::Value(f64::from(i) * 4.5)
                };
                handle.observe(&hour, target).unwrap();
                match target {
                    Target::Label(label) => model.fit(&hour, label).unwrap(),
                    Target::Value(value) => model.fit_value(&hour, value).unwrap(),
                }
            }
            assert_eq!(
                handle.snapshot().unwrap().to_bytes(),
                model.snapshot().to_bytes()
            );
            runtime.shutdown();
        }
    }

    fn blank_classify(dim: usize, seed: u64) -> Model<Radians> {
        Pipeline::builder(dim)
            .seed(seed)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap()
    }

    #[test]
    fn durable_runtime_replays_the_log_across_lives() {
        let dir = std::env::temp_dir().join(format!("hdc-runtime-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();

        let durable = |snapshot_every| {
            let mut cfg = config(2, 4);
            cfg.durability = Some(DurabilityConfig {
                snapshot_every,
                ..DurabilityConfig::new(&dir)
            });
            cfg
        };

        // First life: every fit/insert below is acknowledged as durable —
        // and nothing here writes a shutdown snapshot, so the *only* way
        // the second life can answer identically is WAL replay.
        let runtime = Runtime::spawn(blank_classify(256, 31), durable(0)).unwrap();
        let handle = runtime.handle();
        for (i, hour) in hours.iter().enumerate() {
            handle.fit(hour, usize::from(i >= 24)).unwrap();
        }
        handle
            .insert("profile", BinaryHypervector::zeros(256))
            .unwrap();
        handle
            .insert("gone", BinaryHypervector::zeros(256))
            .unwrap();
        assert!(handle.remove("gone").unwrap());
        handle.refresh().unwrap();
        let first_answers: Vec<usize> = hours
            .iter()
            .map(|h| handle.predict("k", h).unwrap().label)
            .collect();
        runtime.shutdown();

        // Second life: same blank seed model, recovery from the store.
        // A small snapshot cadence also exercises background installation
        // and segment GC while this life appends more records.
        let runtime = Runtime::spawn(blank_classify(256, 31), durable(8)).unwrap();
        let handle = runtime.handle();
        let stats = handle.stats().unwrap();
        assert_eq!(stats.keys, 1, "insert and remove both replayed");
        let recovered: Vec<usize> = hours
            .iter()
            .map(|h| handle.predict("k", h).unwrap().label)
            .collect();
        assert_eq!(recovered, first_answers, "recovery is bit-identical");
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.as_classify().unwrap().counts(), &[24, 24]);

        // Third life: recovery now composes installed snapshot + log tail.
        let runtime = Runtime::spawn(blank_classify(256, 31), durable(8)).unwrap();
        let handle = runtime.handle();
        let third: Vec<usize> = hours
            .iter()
            .map(|h| handle.predict("k", h).unwrap().label)
            .collect();
        assert_eq!(third, first_answers);
        let (_, learner) = runtime.shutdown();
        assert_eq!(learner.as_classify().unwrap().counts(), &[24, 24]);

        // A different spec must be refused by the store's digest check.
        assert!(matches!(
            Runtime::spawn(blank_classify(256, 99), durable(0)),
            Err(HdcError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `snapshot_every: 8` cuts the log every 8 records: each life runs
    /// several cuts, background installs and segment GCs, and the next life
    /// replays only the tail after the newest installed snapshot, yet
    /// answers bit-identically to a model fed every fit.
    #[test]
    fn durable_runtime_replays_bit_identically_across_cuts() {
        let dir = std::env::temp_dir().join(format!("hdc-runtime-cuts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            let mut cfg = config(1, 4);
            cfg.durability = Some(DurabilityConfig {
                snapshot_every: 8,
                ..DurabilityConfig::new(&dir)
            });
            cfg
        };
        let blank = || {
            Pipeline::builder(256)
                .seed(51)
                .regression(0.0, 24.0, 24)
                .basis(Basis::Circular { m: 24, r: 0.0 })
                .encoder(Enc::angle())
                .build()
                .unwrap()
        };
        let hours: Vec<Radians> = (0..48)
            .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
            .collect();
        let mut reference = blank();
        let mut fitted = 0;
        for life in 0..3 {
            let runtime = Runtime::spawn(blank(), durable()).unwrap();
            let handle = runtime.handle();
            let recovered: Vec<u64> = hours
                .iter()
                .map(|h| handle.predict_value("k", h).unwrap().value.to_bits())
                .collect();
            let expected: Vec<u64> = hours
                .iter()
                .map(|h| reference.predict_value(h).to_bits())
                .collect();
            assert_eq!(recovered, expected, "life {life} recovers bit-identically");
            // 29 more fits per life: three cuts and a tail that no
            // snapshot covers.
            for i in 0..29 {
                let hour = &hours[(fitted + i * 7) % hours.len()];
                let value = (fitted + i) as f64 % 24.0;
                handle.fit_value(hour, value).unwrap();
                reference.fit_value(hour, value).unwrap();
            }
            fitted += 29;
            let (_, learner) = runtime.shutdown();
            assert_eq!(learner.observed(), fitted);
            // Each install deleted the segments its snapshot covers: what
            // is left starts at the newest installed cover point.
            let segments: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
                .filter(|name| name.starts_with("wal-"))
                .collect();
            assert!(segments.len() <= 2, "life {life}: {segments:?}");
            let (_, recovery) = Store::open(
                &dir,
                blank().spec().hash64(),
                durable().durability.unwrap().wal_config(),
            )
            .unwrap();
            assert!(recovery.snapshot.is_some());
            assert!(
                recovery.records.len() < 16,
                "life {life}: {}",
                recovery.records.len()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_folds_both_fit_tags_through_one_observe() {
        let dir = std::env::temp_dir().join(format!("hdc-runtime-tags-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(&dir);
        let digest = blank_classify(256, 41).spec().hash64();
        let hv = trained_model(256, 41).encode(&Radians(1.0));
        let append = |records: &[WalRecord]| {
            let (store, _) = Store::open(&dir, digest, durability.wal_config()).unwrap();
            let (mut wal, _installer) = store.into_parts();
            for record in records {
                wal.append(record).unwrap();
            }
        };
        let spawn = || {
            let mut cfg = config(1, 4);
            cfg.durability = Some(durability.clone());
            Runtime::spawn(blank_classify(256, 41), cfg)
        };

        append(&[
            WalRecord::Fit {
                hv: hv.clone(),
                label: 1,
            },
            WalRecord::Fit {
                hv: hv.clone(),
                label: 0,
            },
        ]);
        let (_, learner) = spawn().unwrap().shutdown();
        assert_eq!(learner.as_classify().unwrap().counts(), &[1, 1]);

        // A value fit in a classifier's log meets the check a live fit
        // meets, and recovery refuses loudly instead of skipping it.
        append(&[WalRecord::FitValue {
            hv: hv.clone(),
            value: 0.5,
        }]);
        match spawn() {
            Err(HdcError::Storage(message)) => assert!(message.contains("task mismatch")),
            other => panic!("expected a storage error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_item_plane_bounds_residency_and_recovers() {
        let dir = std::env::temp_dir().join(format!("hdc-runtime-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            let mut cfg = config(1, 4);
            cfg.durability = Some(DurabilityConfig {
                page_cache: Some(4),
                ..DurabilityConfig::new(&dir)
            });
            cfg
        };

        // Serve a key set 10× the cache budget.
        let runtime = Runtime::spawn(trained_model(256, 5), durable()).unwrap();
        let handle = runtime.handle();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let entries: Vec<(String, BinaryHypervector)> = (0..40)
            .map(|i| {
                (
                    format!("user-{i}"),
                    BinaryHypervector::random(256, &mut rng),
                )
            })
            .collect();
        for (key, hv) in &entries {
            assert!(!handle.insert(key.clone(), hv.clone()).unwrap());
        }
        assert!(handle.remove("user-7").unwrap());
        assert_eq!(handle.stats().unwrap().keys, 39);
        // A live snapshot streams every item out of the paged store.
        let snapshot = handle.snapshot().unwrap();
        assert_eq!(snapshot.items().len(), 39);
        let streamed: std::collections::HashMap<&str, &BinaryHypervector> = snapshot
            .items()
            .iter()
            .map(|(key, hv)| (key.as_str(), hv))
            .collect();
        for (key, hv) in &entries {
            if key == "user-7" {
                assert!(!streamed.contains_key(key.as_str()));
            } else {
                assert_eq!(streamed[key.as_str()], hv, "bit-identical to in-RAM");
            }
        }
        runtime.shutdown();

        // Second life: the paged files plus the log tail restore the keys.
        let runtime = Runtime::spawn(trained_model(256, 5), durable()).unwrap();
        let handle = runtime.handle();
        assert_eq!(handle.stats().unwrap().keys, 39);
        assert!(handle.insert("user-3", entries[3].1.clone()).unwrap());
        assert!(!handle.insert("user-7", entries[7].1.clone()).unwrap());
        runtime.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
