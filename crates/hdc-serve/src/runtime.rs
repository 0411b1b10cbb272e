//! The long-running serving runtime: micro-batching ingestion over an MPSC
//! work queue, versioned online learning with atomically swapped
//! generations, live [`metrics`](crate::metrics) — and, since PR 5, both
//! task families behind one queue plus durable warm restarts.
//!
//! A [`Runtime`] owns two background threads:
//!
//! * the **dispatcher** exclusively owns the [`ShardedModel`] and drains the
//!   work queue, coalescing concurrent keyed predictions (label *and* value
//!   predictions alike) into one [`HypervectorBatch`] by a deadline-or-size
//!   [`BatchPolicy`] — so encode, ring routing and the minipool fan-out are
//!   paid once per micro-batch instead of once per caller;
//! * the **trainer** folds `fit`/`fit_value` observations into the task's
//!   accumulators ([`CentroidTrainer`] or
//!   [`RegressionTrainer`](hdc_learn::RegressionTrainer)) off the serving
//!   path and periodically publishes an immutable, `Arc`-snapshotted
//!   [`Generation`] of the finalized [`Head`]. The dispatcher adopts the
//!   newest generation at each micro-batch boundary, swapping it across all
//!   shards at once — readers never block on training, never observe a torn
//!   mix of two generations, and every [`Prediction`]/[`ValuePrediction`]
//!   reports the generation that served it.
//!
//! # Warm restarts
//!
//! With [`RuntimeConfig::snapshot_on_shutdown`] set, [`Runtime::shutdown`]
//! writes a [`Snapshot`] (spec + trainer accumulators + item memories);
//! with [`RuntimeConfig::load_snapshot`] set, [`Runtime::spawn`] restores
//! that state before serving — so the restarted process answers
//! bit-identically to the one that shut down.
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
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hdc_core::{BinaryHypervector, HdcError, HypervectorBatch, TieBreak};
use hdc_learn::{CentroidClassifier, CentroidTrainer, RegressionTrainer};
use hdc_store::{
    DurabilityConfig, GroupAck, GroupCommitWal, ItemStore, PagedStore, SnapshotInstaller, Store,
    SyncPolicy, WalRecord,
};

use crate::metrics::ServeMetrics;
use crate::pipeline::{DynEncoder, TaskState};
use crate::sharded::{Head, RingConfig};
use crate::snapshot::Snapshot;
use crate::spec::{PipelineSpec, Task};
use crate::{Model, ShardedModel};

/// When a micro-batch closes: at `max_batch` pending predictions, or
/// `max_wait` after the first one arrived — whichever comes first. A lone
/// request on an idle queue therefore waits at most `max_wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum predictions coalesced into one batch (`>= 1`; `0` is
    /// clamped to `1`).
    pub max_batch: usize,
    /// Maximum time the dispatcher holds an open batch waiting for more
    /// requests.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    /// 64 requests or 500 µs, whichever fills first.
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_micros(500),
        }
    }
}

/// Configuration of a [`Runtime`]: fleet geometry, ingestion and
/// online-learning policy, plus the durability hooks. (`Clone`, not
/// `Copy`, since PR 5 — the snapshot paths own heap data.)
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Human-readable identity of this runtime, reported in the `stats`
    /// shard-identity section so a cluster router (or an operator) can
    /// tell shard processes apart. Empty by default.
    pub name: String,
    /// Number of item-memory shards (`>= 1`).
    pub shards: usize,
    /// Geometry of the consistent-hash ring.
    pub ring: RingConfig,
    /// Seed of the ring's circular routing basis.
    pub seed: u64,
    /// Micro-batching policy of the ingestion queue.
    pub policy: BatchPolicy,
    /// Observations between automatic generation publishes; `0` publishes
    /// only on explicit [`RuntimeHandle::refresh`].
    pub refresh_every: usize,
    /// Write a [`Snapshot`] (spec + trainer accumulators + item memories)
    /// to this path on [`Runtime::shutdown`]. Best-effort: a write failure
    /// is reported on stderr, never a panic mid-shutdown.
    pub snapshot_on_shutdown: Option<PathBuf>,
    /// Restore a previously written [`Snapshot`] from this path on
    /// [`Runtime::spawn`], making the restart warm. A missing file is a
    /// cold start (not an error); a present-but-incompatible snapshot
    /// (different spec) is an error.
    pub load_snapshot: Option<PathBuf>,
    /// Continuous durability (PR 8): a [`DurabilityConfig`] turns on the
    /// write-ahead log, periodic background snapshotting, and (when its
    /// `page_cache` is set) the paged file-backed item memory. At spawn the
    /// runtime recovers **bit-identically** to its last acknowledged state
    /// from the installed snapshot plus WAL replay — this composes with
    /// [`load_snapshot`](Self::load_snapshot), which seeds the model before
    /// the store's own recovery is applied on top. When durable,
    /// `fit`/`fit_value` (and `insert`/`remove`) acknowledge only after
    /// their log record is flushed per [`SyncPolicy`](hdc_store::SyncPolicy),
    /// and a storage
    /// failure on the logging path is fail-stop: the dispatcher panics
    /// rather than acknowledge a write it cannot recover.
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
            snapshot_on_shutdown: None,
            load_snapshot: None,
            durability: None,
        }
    }
}

/// One served classification prediction: the label plus the id of the
/// [`Generation`] that produced it. (`Default` is the all-zero
/// placeholder reply collection seeds slots with before the dispatcher
/// answers.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prediction {
    /// The predicted class label.
    pub label: usize,
    /// The generation that answered (monotonically increasing across
    /// online refreshes; `0` is the head the runtime was spawned with).
    pub generation: u64,
}

/// One served regression prediction: the real-valued label plus the id of
/// the [`Generation`] that produced it. (`Default` is the all-zero
/// placeholder reply collection seeds slots with before the dispatcher
/// answers.)
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ValuePrediction {
    /// The predicted value (a grid point of the spec's label range).
    pub value: f64,
    /// The generation that answered.
    pub generation: u64,
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
        match self.head.as_ref() {
            Head::Classes(classifier) => classifier,
            Head::Values(_) => {
                panic!("classifier() requires a classification generation, found regression")
            }
        }
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

/// The online trainer state a runtime hands back on
/// [`shutdown`](Runtime::shutdown): the task's accumulators, for
/// persistence, inspection or warm restart.
#[derive(Debug, Clone)]
pub enum OnlineLearner {
    /// Classification accumulators.
    Classify(CentroidTrainer),
    /// Regression accumulators.
    Regress(RegressionTrainer),
}

impl OnlineLearner {
    /// The classification trainer, if this is a classification runtime.
    #[must_use]
    pub fn as_classify(&self) -> Option<&CentroidTrainer> {
        match self {
            OnlineLearner::Classify(trainer) => Some(trainer),
            OnlineLearner::Regress(_) => None,
        }
    }

    /// The regression trainer, if this is a regression runtime.
    #[must_use]
    pub fn as_regress(&self) -> Option<&RegressionTrainer> {
        match self {
            OnlineLearner::Regress(trainer) => Some(trainer),
            OnlineLearner::Classify(_) => None,
        }
    }

    /// Total observations folded in.
    #[must_use]
    pub fn observed(&self) -> usize {
        match self {
            OnlineLearner::Classify(trainer) => trainer.counts().iter().sum(),
            OnlineLearner::Regress(trainer) => trainer.observed(),
        }
    }

    /// Finalizes the current accumulators into a publishable [`Head`]
    /// (deterministic for both tasks).
    fn finish(&self) -> Head {
        match self {
            OnlineLearner::Classify(trainer) => {
                Head::Classes(trainer.finish_deterministic(TieBreak::Alternate))
            }
            OnlineLearner::Regress(trainer) => Head::Values(trainer.finish_integer()),
        }
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

struct PredictJob<O, R> {
    key: String,
    payload: Payload<O>,
    enqueued: Instant,
    index: usize,
    reply: Sender<(usize, R)>,
}

enum Work<O> {
    Predict(PredictJob<O, Prediction>),
    PredictValue(PredictJob<O, ValuePrediction>),
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
        label: usize,
        /// `Some` on a durable runtime: the dispatcher acknowledges after
        /// the observation's WAL record is flushed, `None` keeps the
        /// fire-and-forget fast path.
        ack: Option<Sender<()>>,
    },
    FitValue {
        payload: Payload<O>,
        value: f64,
        ack: Option<Sender<()>>,
    },
    Refresh {
        reply: Sender<u64>,
    },
    AddShard {
        reply: Sender<usize>,
    },
    RemoveShard {
        id: usize,
        reply: Sender<bool>,
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

enum TrainerMsg {
    Observe {
        hv: BinaryHypervector,
        label: usize,
    },
    ObserveValue {
        hv: BinaryHypervector,
        value: f64,
    },
    Refresh {
        reply: Option<Sender<u64>>,
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
    Stop,
}

/// A point-in-time view of the whole runtime, served by the `stats`
/// operation: generation, uptime, fleet shape, per-shard load, remap
/// behaviour and the ingestion metrics.
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
    /// Fraction of entries moved by the most recent shard churn (`None`
    /// before any reshard touched data).
    pub last_remap_fraction: Option<f64>,
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
    snapshot_on_shutdown: Option<PathBuf>,
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
    /// head is replicated onto `config.shards` shards (generation 0), its
    /// trainer state seeds the online trainer, and its encoder moves to
    /// the dispatcher for batched server-side encoding.
    ///
    /// With [`RuntimeConfig::load_snapshot`] set and the file present, the
    /// snapshot's trainer state and item memories are restored first (the
    /// snapshot must describe the model's spec), so the runtime resumes
    /// bit-identically where the snapshotting process stopped.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError`] for an invalid shard count or ring geometry,
    /// and [`HdcError::Snapshot`] for a present-but-incompatible snapshot.
    pub fn spawn(mut model: Model<X>, config: RuntimeConfig) -> Result<Self, HdcError> {
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
                    model.restore(&snapshot)?;
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
        let mut replay = Vec::new();
        let mut durable_parts = None;
        if let Some(dcfg) = &config.durability {
            let digest = model.spec().hash64();
            let (store, recovery) = Store::open(&dcfg.dir, digest, dcfg.wal_config())?;
            if let Some(blob) = &recovery.snapshot {
                let mut snapshot = Snapshot::from_bytes(blob)?;
                restored_items.extend(snapshot.take_items());
                model.restore(&snapshot)?;
            }
            replay = recovery.records;
            durable_parts = Some(store.into_parts());
        }
        let (spec, encoder, state) = model.into_parts();
        let encoder: Arc<dyn DynEncoder<X>> = Arc::from(encoder);
        let task = spec.task;
        let (mut head, mut learner) = match state {
            TaskState::Classify {
                trainer,
                classifier,
            } => (Head::Classes(classifier), OnlineLearner::Classify(trainer)),
            TaskState::Regress { trainer, model } => {
                (Head::Values(model), OnlineLearner::Regress(trainer))
            }
        };
        // Replay the WAL tail: fits fold into the trainer accumulators
        // (commutative integer addition, so the result is bit-identical to
        // the pre-crash fold order); item mutations are applied to the item
        // plane below, in log order.
        let mut item_replay = Vec::new();
        let mut replayed_fits = 0usize;
        for record in replay {
            match record {
                WalRecord::Fit { hv, label } => {
                    let OnlineLearner::Classify(trainer) = &mut learner else {
                        return Err(HdcError::Storage(
                            "log holds classification fits, model is regression".into(),
                        ));
                    };
                    if hv.dim() != spec.dim {
                        return Err(HdcError::Storage(format!(
                            "logged fit has dimension {}, model expects {}",
                            hv.dim(),
                            spec.dim
                        )));
                    }
                    let label = usize::try_from(label).ok().filter(
                        |&l| matches!(task, Task::Classification { classes } if l < classes),
                    );
                    let Some(label) = label else {
                        return Err(HdcError::Storage(
                            "logged fit label out of range for the model".into(),
                        ));
                    };
                    trainer
                        .observe(&hv, label)
                        .map_err(|e| HdcError::Storage(format!("replaying fit: {e}")))?;
                    replayed_fits += 1;
                }
                WalRecord::FitValue { hv, value } => {
                    let OnlineLearner::Regress(trainer) = &mut learner else {
                        return Err(HdcError::Storage(
                            "log holds regression fits, model is classification".into(),
                        ));
                    };
                    if hv.dim() != spec.dim {
                        return Err(HdcError::Storage(format!(
                            "logged fit has dimension {}, model expects {}",
                            hv.dim(),
                            spec.dim
                        )));
                    }
                    trainer.observe(&hv, value);
                    replayed_fits += 1;
                }
                record @ (WalRecord::Insert { .. } | WalRecord::Remove { .. }) => {
                    item_replay.push(record);
                }
            }
        }
        if replayed_fits > 0 {
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
                WalRecord::Fit { .. } | WalRecord::FitValue { .. } => {
                    unreachable!("fits are folded above, never deferred")
                }
            }
        }
        let policy = BatchPolicy {
            max_batch: config.policy.max_batch.max(1),
            max_wait: config.policy.max_wait,
        };
        let metrics = Arc::new(ServeMetrics::new(policy.max_batch));
        let generations = Arc::new(GenerationCell::new(Arc::new(head)));
        // The generation the fleet's head belongs to, taken before any
        // thread starts: an in-RAM fit goes straight to the trainer, which
        // may publish before the dispatcher runs its first line.
        let spawned = generations.load();
        let alive = Arc::new(AtomicBool::new(true));

        let (work_tx, work_rx) = mpsc::channel::<Work<X::Owned>>();
        let (trainer_tx, trainer_rx) = mpsc::channel::<TrainerMsg>();

        let identity = ShardIdentity {
            name: config.name.clone(),
            ring_positions: config.ring.positions as u64,
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
            let trainer_tx = trainer_tx.clone();
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
                trainer_tx,
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
            snapshot_on_shutdown: config.snapshot_on_shutdown,
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
    /// that only want to stop may ignore them.
    ///
    /// With [`RuntimeConfig::snapshot_on_shutdown`] set, the final state
    /// (spec + trainer accumulators + item memories) is written there
    /// before returning — best-effort: a write failure is reported on
    /// stderr so shutdown always completes.
    pub fn shutdown(self) -> (ShardedModel<String>, OnlineLearner) {
        let _ = self.handle.work_tx.send(Work::Shutdown);
        let fleet = self.dispatcher.join().expect("dispatcher thread panicked");
        let _ = self.handle.trainer_tx.send(TrainerMsg::Stop);
        let learner = self.trainer.join().expect("trainer thread panicked");
        // The dispatcher's exit dropped the snapshot-job sender, and the
        // trainer answered every capture queued before Stop — so this join
        // waits only for in-flight installations to land.
        if let Some(snapshotter) = self.snapshotter {
            let _ = snapshotter.join();
        }
        if let Some(path) = &self.snapshot_on_shutdown {
            let items: Vec<(String, BinaryHypervector)> = fleet
                .entries()
                .map(|(key, hv)| (key.clone(), hv.clone()))
                .collect();
            let snapshot = match &learner {
                OnlineLearner::Classify(trainer) => {
                    Snapshot::of_classify(self.spec.clone(), trainer, items)
                }
                OnlineLearner::Regress(trainer) => {
                    Snapshot::of_regress(self.spec.clone(), trainer, items)
                }
            };
            if let Err(error) = snapshot.write(path) {
                eprintln!(
                    "hdc-serve: shutdown snapshot to {} failed: {error}",
                    path.display()
                );
            }
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
    trainer_tx: Sender<TrainerMsg>,
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
            trainer_tx: self.trainer_tx.clone(),
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

    fn check_classification(&self) -> Result<(), HdcError> {
        if self.task.is_classification() {
            Ok(())
        } else {
            Err(HdcError::TaskMismatch {
                expected: "classification",
                found: self.task.name(),
            })
        }
    }

    fn check_regression(&self) -> Result<(), HdcError> {
        if self.task.is_regression() {
            Ok(())
        } else {
            Err(HdcError::TaskMismatch {
                expected: "regression",
                found: self.task.name(),
            })
        }
    }

    /// Predicts one raw input. The input is encoded server-side inside the
    /// micro-batch's parallel encode pass. Blocks until the batch is
    /// served.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime, the
    /// encoder's input error (see [`hdc_encode::Encoder::check_input`]) for
    /// an input it cannot encode and [`HdcError::ServiceUnavailable`] after
    /// shutdown.
    pub fn predict(&self, key: impl Into<String>, input: &X) -> Result<Prediction, HdcError> {
        self.check_classification()?;
        self.submit_jobs(vec![(key.into(), self.raw(input)?)], Work::Predict)
            .map(|mut replies| replies.pop().expect("one prediction per request"))
    }

    /// Predicts one already encoded query.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime,
    /// [`HdcError::DimensionMismatch`] for a wrong-width query and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_encoded(
        &self,
        key: impl Into<String>,
        hv: BinaryHypervector,
    ) -> Result<Prediction, HdcError> {
        self.check_classification()?;
        self.check_dim(hv.dim())?;
        self.submit_jobs(vec![(key.into(), Payload::Encoded(hv))], Work::Predict)
            .map(|mut replies| replies.pop().expect("one prediction per request"))
    }

    /// Predicts a set of raw inputs, in order. The requests enter the same
    /// queue as everyone else's — the dispatcher is free to coalesce them
    /// with concurrent callers or split them across micro-batches (each
    /// prediction reports the generation that served it).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime, the
    /// encoder's input error if any input cannot be encoded (nothing is
    /// enqueued then) and [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_many<'a, I>(&self, inputs: I) -> Result<Vec<Prediction>, HdcError>
    where
        I: IntoIterator<Item = (String, &'a X)>,
        X: 'a,
    {
        self.check_classification()?;
        self.submit_jobs(self.raw_jobs(inputs)?, Work::Predict)
    }

    /// Predicts a set of already encoded queries, in order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime,
    /// [`HdcError::DimensionMismatch`] if any query's width differs from
    /// the runtime's and [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_encoded_many(
        &self,
        pairs: Vec<(String, BinaryHypervector)>,
    ) -> Result<Vec<Prediction>, HdcError> {
        self.check_classification()?;
        for (_, hv) in &pairs {
            self.check_dim(hv.dim())?;
        }
        self.submit_jobs(
            pairs
                .into_iter()
                .map(|(key, hv)| (key, Payload::Encoded(hv)))
                .collect(),
            Work::Predict,
        )
    }

    /// Predicts one raw input's real-valued label — the regression twin of
    /// [`predict`](Self::predict), riding the same micro-batched queue.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime, the
    /// encoder's input error for an input it cannot encode and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_value(
        &self,
        key: impl Into<String>,
        input: &X,
    ) -> Result<ValuePrediction, HdcError> {
        self.check_regression()?;
        self.submit_jobs(vec![(key.into(), self.raw(input)?)], Work::PredictValue)
            .map(|mut replies| replies.pop().expect("one prediction per request"))
    }

    /// Predicts one already encoded query's real-valued label.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime,
    /// [`HdcError::DimensionMismatch`] for a wrong-width query and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_value_encoded(
        &self,
        key: impl Into<String>,
        hv: BinaryHypervector,
    ) -> Result<ValuePrediction, HdcError> {
        self.check_regression()?;
        self.check_dim(hv.dim())?;
        self.submit_jobs(vec![(key.into(), Payload::Encoded(hv))], Work::PredictValue)
            .map(|mut replies| replies.pop().expect("one prediction per request"))
    }

    /// Predicts a set of raw inputs' values, in order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime, the
    /// encoder's input error if any input cannot be encoded (nothing is
    /// enqueued then) and [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_value_many<'a, I>(&self, inputs: I) -> Result<Vec<ValuePrediction>, HdcError>
    where
        I: IntoIterator<Item = (String, &'a X)>,
        X: 'a,
    {
        self.check_regression()?;
        self.submit_jobs(self.raw_jobs(inputs)?, Work::PredictValue)
    }

    /// A raw input's payload, once the encoder has accepted it: an input
    /// the dispatcher would panic on is refused here instead.
    fn raw(&self, input: &X) -> Result<Payload<X::Owned>, HdcError> {
        self.encoder.check_input(input)?;
        Ok(Payload::Input(input.to_owned()))
    }

    /// [`raw`](Self::raw) over a keyed request, all-or-nothing.
    fn raw_jobs<'a, I>(&self, inputs: I) -> Result<KeyedPayloads<X::Owned>, HdcError>
    where
        I: IntoIterator<Item = (String, &'a X)>,
        X: 'a,
    {
        inputs
            .into_iter()
            .map(|(key, input)| Ok((key, self.raw(input)?)))
            .collect()
    }

    /// Predicts a set of already encoded queries' values, in order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime,
    /// [`HdcError::DimensionMismatch`] if any query's width differs from
    /// the runtime's and [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn predict_value_encoded_many(
        &self,
        pairs: Vec<(String, BinaryHypervector)>,
    ) -> Result<Vec<ValuePrediction>, HdcError> {
        self.check_regression()?;
        for (_, hv) in &pairs {
            self.check_dim(hv.dim())?;
        }
        self.submit_jobs(
            pairs
                .into_iter()
                .map(|(key, hv)| (key, Payload::Encoded(hv)))
                .collect(),
            Work::PredictValue,
        )
    }

    /// The shared submit-and-collect path behind every prediction form:
    /// enqueue one job per input (all sharing a reply channel and an
    /// enqueue timestamp), then collect replies by index.
    fn submit_jobs<R: Clone + Default>(
        &self,
        jobs: KeyedPayloads<X::Owned>,
        wrap: impl Fn(PredictJob<X::Owned, R>) -> Work<X::Owned>,
    ) -> Result<Vec<R>, HdcError> {
        let expected = jobs.len();
        if expected == 0 {
            return Ok(Vec::new());
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let enqueued = Instant::now();
        for (index, (key, payload)) in jobs.into_iter().enumerate() {
            self.send_work(wrap(PredictJob {
                key,
                payload,
                enqueued,
                index,
                reply: reply_tx.clone(),
            }))?;
        }
        drop(reply_tx);
        let mut replies = vec![R::default(); expected];
        let mut received = 0;
        while received < expected {
            let (index, reply) = reply_rx.recv().map_err(|_| HdcError::ServiceUnavailable)?;
            replies[index] = reply;
            received += 1;
        }
        Ok(replies)
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
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime,
    /// [`HdcError::LabelOutOfRange`] for an unknown label, the encoder's
    /// input error for an input it cannot encode and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn fit(&self, input: &X, label: usize) -> Result<(), HdcError> {
        self.check_label(label)?;
        let payload = self.raw(input)?;
        if self.durable {
            return self.rpc(|ack| Work::Fit {
                payload,
                label,
                ack: Some(ack),
            });
        }
        self.send_work(Work::Fit {
            payload,
            label,
            ack: None,
        })
    }

    /// Enqueues one already encoded training observation. On an in-RAM
    /// runtime it goes straight to the background trainer (no dispatcher
    /// hop) and is fire-and-forget; on a durable runtime it rides the work
    /// queue so the dispatcher can log it, and blocks until the record is
    /// flushed.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a regression runtime,
    /// [`HdcError::DimensionMismatch`]/[`HdcError::LabelOutOfRange`] for
    /// invalid observations and [`HdcError::ServiceUnavailable`] after
    /// shutdown.
    pub fn fit_encoded(&self, hv: BinaryHypervector, label: usize) -> Result<(), HdcError> {
        self.check_dim(hv.dim())?;
        self.check_label(label)?;
        if self.durable {
            return self.rpc(|ack| Work::Fit {
                payload: Payload::Encoded(hv),
                label,
                ack: Some(ack),
            });
        }
        self.trainer_tx
            .send(TrainerMsg::Observe { hv, label })
            .map_err(|_| HdcError::ServiceUnavailable)
    }

    /// Enqueues one raw `(input, value)` training observation — the
    /// regression twin of [`fit`](Self::fit). Fire-and-forget in RAM,
    /// acknowledged-after-flush when durable.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime, the
    /// encoder's input error for an input it cannot encode and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn fit_value(&self, input: &X, value: f64) -> Result<(), HdcError> {
        self.check_regression()?;
        let payload = self.raw(input)?;
        if self.durable {
            return self.rpc(|ack| Work::FitValue {
                payload,
                value,
                ack: Some(ack),
            });
        }
        self.send_work(Work::FitValue {
            payload,
            value,
            ack: None,
        })
    }

    /// Enqueues one already encoded `(query, value)` training observation.
    /// Fire-and-forget straight to the background trainer in RAM;
    /// acknowledged-after-flush through the work queue when durable.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::TaskMismatch`] on a classification runtime,
    /// [`HdcError::DimensionMismatch`] for a wrong-width vector and
    /// [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn fit_value_encoded(&self, hv: BinaryHypervector, value: f64) -> Result<(), HdcError> {
        self.check_regression()?;
        self.check_dim(hv.dim())?;
        if self.durable {
            return self.rpc(|ack| Work::FitValue {
                payload: Payload::Encoded(hv),
                value,
                ack: Some(ack),
            });
        }
        self.trainer_tx
            .send(TrainerMsg::ObserveValue { hv, value })
            .map_err(|_| HdcError::ServiceUnavailable)
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

    /// Adds a shard to the fleet (rebalancing stored entries), returning
    /// its id.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn add_shard(&self) -> Result<usize, HdcError> {
        self.rpc(|reply| Work::AddShard { reply })
    }

    /// Removes a shard (redistributing its entries). Returns `false` for an
    /// unknown id or the last shard.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ServiceUnavailable`] after shutdown.
    pub fn remove_shard(&self, id: usize) -> Result<bool, HdcError> {
        self.rpc(|reply| Work::RemoveShard { id, reply })
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

    fn check_label(&self, label: usize) -> Result<(), HdcError> {
        let Task::Classification { classes } = self.task else {
            return Err(HdcError::TaskMismatch {
                expected: "classification",
                found: self.task.name(),
            });
        };
        if label >= classes {
            return Err(HdcError::LabelOutOfRange { label, classes });
        }
        Ok(())
    }
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
    /// The configured flush policy — the dispatcher consults it to decide
    /// whether the paged item plane needs its own fsync at each commit
    /// boundary.
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
    /// appended so far (inline, for a zero window or
    /// [`SyncPolicy::Never`]). Fail-stop like [`append`](Durability::append).
    fn commit(&mut self, acks: Vec<GroupAck>) {
        self.wal
            .commit(self.last_seq, acks)
            .expect("write-ahead log flush failed; refusing to acknowledge non-durable writes");
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

/// Triggers one background snapshot: flush/collect the items, mark the
/// cover point, and wire the trainer's capture (queued behind every
/// observation relayed so far) to the snapshotter thread.
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
    let upto = match dur.wal.next_seq() {
        Ok(seq) => seq,
        Err(error) => {
            eprintln!("hdc-serve: background snapshot skipped: {error}");
            return;
        }
    };
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
/// target (label or value), and the ack channel a durable caller is
/// blocked on until the WAL flush — `None` for fire-and-forget fits.
type PendingFit<O, T> = (Payload<O>, T, Option<Sender<()>>);

/// Serves the work queue until shutdown. `adopted` is the generation whose
/// head `fleet` holds: every reply names the generation that served it.
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
    // Scratch arenas recycled across micro-batches (`resize_zeroed` keeps
    // the allocation): one for label predictions, one for value
    // predictions, one for fit observations — all riding the same parallel
    // encode pass. The task is fixed at spawn, so only the head's own
    // prediction arena is preallocated to a full micro-batch; the other
    // kind of prediction can never arrive (handles reject it up front).
    let (predict_rows, value_rows) = match fleet.head() {
        Head::Classes(_) => (policy.max_batch, 0),
        Head::Values(_) => (0, policy.max_batch),
    };
    let mut predict_scratch = HypervectorBatch::with_capacity(dim, predict_rows);
    let mut value_scratch = HypervectorBatch::with_capacity(dim, value_rows);
    let mut fit_scratch = HypervectorBatch::new(dim);

    let mut pending: Vec<PredictJob<X::Owned, Prediction>> = Vec::new();
    let mut pending_values: Vec<PredictJob<X::Owned, ValuePrediction>> = Vec::new();
    let mut fits: Vec<PendingFit<X::Owned, usize>> = Vec::new();
    let mut value_fits: Vec<PendingFit<X::Owned, f64>> = Vec::new();
    let mut fit_acks: Vec<Sender<()>> = Vec::new();

    'runtime: loop {
        let Ok(work) = work_rx.recv() else {
            break 'runtime;
        };
        metrics.dequeued(1);
        // Anything that is not a prediction or fit is handled immediately;
        // a prediction opens a micro-batch collection window.
        let mut stashed: Option<Work<X::Owned>> = None;
        match work {
            Work::Shutdown => break 'runtime,
            Work::Predict(job) => pending.push(job),
            Work::PredictValue(job) => pending_values.push(job),
            Work::Fit {
                payload,
                label,
                ack,
            } => fits.push((payload, label, ack)),
            Work::FitValue {
                payload,
                value,
                ack,
            } => value_fits.push((payload, value, ack)),
            other => stashed = Some(other),
        }
        if stashed.is_none() && !(pending.is_empty() && pending_values.is_empty()) {
            let deadline = Instant::now() + policy.max_wait;
            while pending.len() + pending_values.len() < policy.max_batch {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match work_rx.recv_timeout(remaining) {
                    Ok(more) => {
                        metrics.dequeued(1);
                        match more {
                            Work::Predict(job) => pending.push(job),
                            Work::PredictValue(job) => pending_values.push(job),
                            // Fit observations ride the same encode pass
                            // as the batch they arrived with.
                            Work::Fit {
                                payload,
                                label,
                                ack,
                            } => fits.push((payload, label, ack)),
                            Work::FitValue {
                                payload,
                                value,
                                ack,
                            } => value_fits.push((payload, value, ack)),
                            // Any other op closes the batch; it is served
                            // first so queue order is preserved.
                            other => {
                                stashed = Some(other);
                                break;
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }

        // --- Serve the collected micro-batch. ---------------------------
        let batch_size = pending.len() + pending_values.len();
        if batch_size > 0 || !fits.is_empty() || !value_fits.is_empty() {
            // Adopt the newest published generation at the batch boundary:
            // one swap covers every shard, so the whole batch — and every
            // reply in it — is served by exactly one generation.
            let published = generations.load();
            if published.id() != adopted.id() {
                fleet
                    .set_head(published.head().clone())
                    .expect("published generations share the runtime dimensionality");
                adopted = published;
            }
            let generation = adopted.id();
            let mut latencies = Vec::with_capacity(batch_size);

            if !pending.is_empty() {
                predict_scratch.resize_zeroed(pending.len());
                let sources: Vec<RowSource<'_, X>> = pending
                    .iter()
                    .map(|job| RowSource::of(&job.payload))
                    .collect();
                fill_batch(encoder.as_ref(), &sources, &mut predict_scratch);
                drop(sources);
                let keys: Vec<&str> = pending.iter().map(|job| job.key.as_str()).collect();
                let labels = fleet
                    .predict_batch(&keys, &predict_scratch)
                    .expect("keys and rows are constructed in lockstep on a classification fleet");
                for (job, label) in pending.drain(..).zip(labels) {
                    latencies.push(job.enqueued.elapsed());
                    let _ = job
                        .reply
                        .send((job.index, Prediction { label, generation }));
                }
            }
            if !pending_values.is_empty() {
                value_scratch.resize_zeroed(pending_values.len());
                let sources: Vec<RowSource<'_, X>> = pending_values
                    .iter()
                    .map(|job| RowSource::of(&job.payload))
                    .collect();
                fill_batch(encoder.as_ref(), &sources, &mut value_scratch);
                drop(sources);
                let keys: Vec<&str> = pending_values.iter().map(|job| job.key.as_str()).collect();
                let values = fleet
                    .predict_values(&keys, &value_scratch)
                    .expect("keys and rows are constructed in lockstep on a regression fleet");
                for (job, value) in pending_values.drain(..).zip(values) {
                    latencies.push(job.enqueued.elapsed());
                    let _ = job
                        .reply
                        .send((job.index, ValuePrediction { value, generation }));
                }
            }
            if batch_size > 0 {
                metrics.record_batch(batch_size, latencies);
            }

            let fit_count = fits.len() + value_fits.len();
            if !fits.is_empty() {
                fit_scratch.resize_zeroed(fits.len());
                let sources: Vec<RowSource<'_, X>> = fits
                    .iter()
                    .map(|(payload, _, _)| RowSource::of(payload))
                    .collect();
                fill_batch(encoder.as_ref(), &sources, &mut fit_scratch);
                drop(sources);
                for ((_, label, ack), row) in fits.drain(..).zip(fit_scratch.rows()) {
                    let hv = row.to_hypervector();
                    if let Some(dur) = durability.as_mut() {
                        dur.append(&WalRecord::Fit {
                            hv: hv.clone(),
                            label: label as u64,
                        });
                    }
                    let _ = trainer_tx.send(TrainerMsg::Observe { hv, label });
                    fit_acks.extend(ack);
                }
            }
            if !value_fits.is_empty() {
                fit_scratch.resize_zeroed(value_fits.len());
                let sources: Vec<RowSource<'_, X>> = value_fits
                    .iter()
                    .map(|(payload, _, _)| RowSource::of(payload))
                    .collect();
                fill_batch(encoder.as_ref(), &sources, &mut fit_scratch);
                drop(sources);
                for ((_, value, ack), row) in value_fits.drain(..).zip(fit_scratch.rows()) {
                    let hv = row.to_hypervector();
                    if let Some(dur) = durability.as_mut() {
                        dur.append(&WalRecord::FitValue {
                            hv: hv.clone(),
                            value,
                        });
                    }
                    let _ = trainer_tx.send(TrainerMsg::ObserveValue { hv, value });
                    fit_acks.extend(ack);
                }
            }
            // The micro-batch's acknowledgements park on the flush
            // scheduler as one group ticket: they release when a single
            // `fdatasync` covers every record appended above (possibly
            // shared with neighbouring micro-batches), so an acked fit is
            // on stable storage (per the configured sync policy).
            match durability.as_mut() {
                Some(dur) if fit_count > 0 => {
                    let acks: Vec<GroupAck> = fit_acks
                        .drain(..)
                        .map(|ack| -> GroupAck {
                            Box::new(move || {
                                let _ = ack.send(());
                            })
                        })
                        .collect();
                    dur.commit(acks);
                }
                _ => {
                    for ack in fit_acks.drain(..) {
                        let _ = ack.send(());
                    }
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
                    Some(store) => {
                        let replaced = store
                            .insert(&key, &hv)
                            .expect("paged item store write failed; refusing to acknowledge");
                        // The paged files share the WAL's commit boundary:
                        // under `Always` they are fsynced before the reply
                        // parks, so the acked binding is durable in both
                        // planes (not just replayable).
                        if durability
                            .as_ref()
                            .is_some_and(|dur| matches!(dur.sync, SyncPolicy::Always))
                        {
                            store
                                .sync_files()
                                .expect("paged item store fsync failed; refusing to acknowledge");
                        }
                        replaced
                    }
                    None => fleet.insert(key, hv).is_some(),
                };
                metrics.record_insert();
                match durability.as_mut() {
                    Some(dur) => dur.commit(vec![Box::new(move || {
                        let _ = reply.send(replaced);
                    })]),
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
                    Some(store) => {
                        let removed = store
                            .remove(&key)
                            .expect("paged item store write failed; refusing to acknowledge");
                        if durability
                            .as_ref()
                            .is_some_and(|dur| matches!(dur.sync, SyncPolicy::Always))
                        {
                            store
                                .sync_files()
                                .expect("paged item store fsync failed; refusing to acknowledge");
                        }
                        removed
                    }
                    None => fleet.remove(&key).is_some(),
                };
                metrics.record_remove();
                match durability.as_mut() {
                    Some(dur) => dur.commit(vec![Box::new(move || {
                        let _ = reply.send(removed);
                    })]),
                    None => {
                        let _ = reply.send(removed);
                    }
                }
            }
            Some(Work::Refresh { reply }) => {
                // Forwarded over the trainer channel *after* every fit this
                // dispatcher already relayed, so the published generation
                // includes them; the trainer answers the caller directly.
                let _ = trainer_tx.send(TrainerMsg::Refresh { reply: Some(reply) });
            }
            Some(Work::AddShard { reply }) => {
                let _ = reply.send(fleet.add_shard());
            }
            Some(Work::RemoveShard { id, reply }) => {
                let _ = reply.send(fleet.remove_shard(id));
            }
            Some(Work::Stats { reply }) => {
                let classes = match fleet.head() {
                    Head::Classes(classifier) => classifier.classes() as u64,
                    Head::Values(_) => 0,
                };
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
                    classes,
                    shard_loads: fleet
                        .shard_loads()
                        .into_iter()
                        .map(|(id, len)| (id as u64, len as u64))
                        .collect(),
                    keys,
                    last_remap_fraction: fleet.last_remap_fraction(),
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
            Some(Work::Predict(_))
            | Some(Work::PredictValue(_))
            | Some(Work::Fit { .. })
            | Some(Work::FitValue { .. }) => {
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
    loop {
        match rx.recv() {
            Err(_) | Ok(TrainerMsg::Stop) => break,
            Ok(TrainerMsg::Observe { hv, label }) => {
                let OnlineLearner::Classify(trainer) = &mut learner else {
                    unreachable!("labelled observations are validated at the handle");
                };
                trainer
                    .observe(&hv, label)
                    .expect("labels are validated at the handle");
                metrics.record_fit();
                since_publish += 1;
                if refresh_every > 0 && since_publish >= refresh_every {
                    publish(&learner, &generations);
                    since_publish = 0;
                }
            }
            Ok(TrainerMsg::ObserveValue { hv, value }) => {
                let OnlineLearner::Regress(trainer) = &mut learner else {
                    unreachable!("value observations are validated at the handle");
                };
                trainer.observe(&hv, value);
                metrics.record_fit();
                since_publish += 1;
                if refresh_every > 0 && since_publish >= refresh_every {
                    publish(&learner, &generations);
                    since_publish = 0;
                }
            }
            Ok(TrainerMsg::Refresh { reply }) => {
                let id = publish(&learner, &generations);
                since_publish = 0;
                if let Some(reply) = reply {
                    let _ = reply.send(id);
                }
            }
            Ok(TrainerMsg::Snapshot { spec, items, reply }) => {
                let snapshot = match &learner {
                    OnlineLearner::Classify(trainer) => Snapshot::of_classify(spec, trainer, items),
                    OnlineLearner::Regress(trainer) => Snapshot::of_regress(spec, trainer, items),
                };
                let _ = reply.send(snapshot);
            }
            Ok(TrainerMsg::Restore { snapshot, reply }) => {
                let restored = match &mut learner {
                    OnlineLearner::Classify(trainer) => snapshot.restore_classify_trainer(trainer),
                    OnlineLearner::Regress(trainer) => snapshot.restore_regress_trainer(trainer),
                };
                let _ = reply.send(restored.map(|()| {
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
            policy: BatchPolicy {
                max_batch,
                max_wait: Duration::from_micros(200),
            },
            refresh_every: 0,
            ..RuntimeConfig::default()
        }
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
        // …typed many (one queue burst, coalesced into micro-batches)…
        let many = handle
            .predict_many(inputs.iter().enumerate().map(|(i, x)| (format!("k{i}"), x)))
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
        // its first batch (an in-RAM fit skips the dispatcher, so this can
        // happen before the dispatcher thread runs at all). The fleet still
        // holds the spawn head, so the dispatcher must start from the spawn
        // generation and adopt generation 1 at the batch boundary.
        let model = trained_model(256, 3);
        let inputs: Vec<Radians> = (0..24)
            .map(|h| Radians::periodic(f64::from(h), 24.0))
            .collect();
        let encoded: Vec<BinaryHypervector> = inputs.iter().map(|x| model.encode(x)).collect();
        let spawn_classifier = model.classifier().clone();
        let (spec, encoder, _) = model.into_parts();
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
                .send(Work::Predict(PredictJob {
                    key: format!("k{index}"),
                    payload: Payload::Input(*input),
                    enqueued: Instant::now(),
                    index,
                    reply: reply_tx.clone(),
                }))
                .unwrap();
        }
        work_tx.send(Work::Shutdown).unwrap();
        drop(reply_tx);
        let (trainer_tx, _trainer_rx) = mpsc::channel();
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        };
        dispatcher_loop(
            work_rx,
            fleet,
            encoder.into(),
            policy,
            Arc::new(ServeMetrics::new(policy.max_batch)),
            generations,
            spawned,
            trainer_tx,
            ShardIdentity {
                name: String::new(),
                ring_positions: 0,
            },
            None,
            None,
        );

        let replies: Vec<(usize, Prediction)> = reply_rx.iter().collect();
        assert_eq!(replies.len(), inputs.len());
        for (index, prediction) in replies {
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
        let served = handle.predict_value_encoded_many(pairs).unwrap();
        assert_eq!(served.iter().map(|p| p.value).collect::<Vec<_>>(), expected);

        // Stats report the regression shape: no class set, live uptime.
        let stats = handle.stats().unwrap();
        assert_eq!(stats.classes, 0);
        assert_eq!(stats.dim, 512);
        assert!(stats.metrics.requests >= 120);

        // The classification surface reports the mismatch without
        // enqueueing anything.
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
        assert!(handle.predict_many([("k".to_string(), &[9][..])]).is_err());
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
        let added = handle.add_shard().unwrap();
        assert!(handle.remove_shard(added).unwrap());
        assert!(!handle.remove_shard(999).unwrap());
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
            handle.predict_encoded("k", BinaryHypervector::zeros(64)),
            Err(HdcError::DimensionMismatch {
                expected: 256,
                found: 64
            })
        ));
        assert!(matches!(
            handle.fit_encoded(BinaryHypervector::zeros(256), 9),
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
            handle.fit_value_encoded(BinaryHypervector::zeros(256), 0.5),
            Err(HdcError::TaskMismatch { .. })
        ));
        assert!(handle.predict_many(std::iter::empty()).unwrap().is_empty());
        runtime.shutdown();
    }

    #[test]
    fn queue_depth_settles_back_to_zero_and_uptime_advances() {
        let runtime = Runtime::spawn(trained_model(256, 2), config(1, 16)).unwrap();
        let handle = runtime.handle();
        let inputs: Vec<Radians> = (0..64).map(|i| Radians(f64::from(i) * 0.1)).collect();
        let _ = handle
            .predict_many(inputs.iter().enumerate().map(|(i, x)| (format!("k{i}"), x)))
            .unwrap();
        let stats = handle.stats().unwrap();
        assert_eq!(stats.metrics.queue_depth, 0);
        assert_eq!(stats.metrics.requests, 64);
        assert!(stats.uptime_us > 0);
        assert!(handle.uptime().as_micros() >= u128::from(stats.uptime_us));
        runtime.shutdown();
    }

    #[test]
    fn snapshot_on_shutdown_makes_the_next_spawn_warm() {
        let path =
            std::env::temp_dir().join(format!("hdc-runtime-snapshot-{}.hdcs", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // First life: train online, store an item, snapshot on shutdown.
        let blank = Pipeline::builder(256)
            .seed(21)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let mut first_config = config(2, 4);
        first_config.snapshot_on_shutdown = Some(path.clone());
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
        runtime.shutdown();
        assert!(path.exists(), "shutdown must write the snapshot");

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
