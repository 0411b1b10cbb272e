//! Multi-process shard clusters: a routing front-end over shard `Runtime`
//! processes, with warm joins via snapshot streaming.
//!
//! # Topology
//!
//! ```text
//!                         ┌────────────────┐
//!   clients ── wire v5 ──▶│  ClusterRouter │ (optionally behind a
//!                         │  (ring lookup) │  ClusterServer front-end)
//!                         └───┬────┬────┬──┘
//!              keyed ops ──────┘    │    └────── replicated ops
//!        (insert/remove → owner,   │           (fit/refresh → all)
//!         predict → one shard)     │
//!                 ┌────────────┬───┴────────┐
//!                 ▼            ▼            ▼
//!           ┌──────────┐ ┌──────────┐ ┌──────────┐
//!           │ shard 0  │ │ shard 1  │ │ shard 2  │   each a Runtime +
//!           │ Runtime  │ │ Runtime  │ │ Runtime  │   Server process
//!           └──────────┘ └──────────┘ └──────────┘
//! ```
//!
//! The finalized head (class vectors or regression readout) is tiny and
//! **replicated** onto every shard, while the keyed item memories — the
//! state that actually grows with users — are **partitioned** over an
//! `hdc-hash` consistent ring built with the recipe
//! [`ShardedModel`](crate::ShardedModel) uses (same [`RingConfig`], same
//! seed, shard ids assigned in join order). Training observations are
//! replicated to every shard, so every shard answers a query the same way:
//! a key decides *where* an item lives, never *what* an answer is, and a
//! cluster of N shard processes answers **bit-identically** to the
//! single-process model. Membership changes ([`ClusterRouter::join`],
//! [`ClusterRouter::leave`]) are the one way to reshard.
//!
//! # Backends
//!
//! The [`ShardBackend`] trait is the transport seam: a shard can live in
//! this process ([`LocalShard`] wrapping a [`RuntimeHandle`]) or in
//! another one ([`RemoteShard`] speaking the framed wire protocol over a
//! [`BlockingClient`]); the router cannot tell the difference. It has one
//! predict call ([`ShardBackend::answer`]: the shard's head decides
//! whether the rows are answered with labels or values) and one fit call
//! ([`ShardBackend::observe`], carrying its [`Target`]), whatever the
//! task.
//!
//! # Reads and fan-out
//!
//! A read goes to one shard: the owner of the request's first key, or the
//! first shard for an empty request, answers every row with one call.
//! A call that involves several shards (a replicated fit, a refresh, a
//! stats or ping probe) pays its per-shard calls concurrently, one scoped
//! thread and one in-flight request per shard; errors are reported in
//! shard order.
//!
//! # Warm joins
//!
//! A fresh shard process joins **warm**: the router snapshots a donor
//! peer (any peer — replicated training makes their trainer states
//! identical), computes which item-memory entries the grown ring now
//! assigns to the newcomer, streams the donor's trainer state plus those
//! entries to the new shard as a [`Snapshot`], and only then removes the
//! moved entries from their old owners. Consistent hashing keeps the
//! moved fraction near `1/n`. [`ClusterRouter::leave`] is the inverse:
//! the departing shard's entries are drained back through the ring.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::thread;

use hdc_core::{BinaryHypervector, HdcError};
use hdc_hash::HdcHashRing;
use rand::{rngs::StdRng, SeedableRng};

use crate::metrics::MetricsSnapshot;
use crate::runtime::{RuntimeHandle, RuntimeStats};
use crate::server::{fail, BlockingClient, ClientConfig, Listener};
use crate::sharded::RingConfig;
use crate::snapshot::Snapshot;
use crate::task::{Answers, Prediction, Target, ValuePrediction};
use crate::wire::{Request, Response};

/// Rows per `predict_batch` frame a [`RemoteShard`] sends at once — far
/// below the wire's `u16` row cap, keeping every frame well under
/// [`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES) at any realistic
/// dimensionality.
const REMOTE_BATCH_ROWS: usize = 1024;

/// One shard of a cluster, behind any transport: the router speaks this
/// seam only, so in-process shards ([`LocalShard`]) and remote shard
/// processes ([`RemoteShard`]) are interchangeable.
///
/// All operations take encoded queries — encoding happens either at the
/// caller or inside each shard's runtime, never at the router.
pub trait ShardBackend: Send {
    /// Human-readable address/identity for diagnostics.
    fn describe(&self) -> String;

    /// Answers a batch of keyed, encoded queries in order, with labels or
    /// values as the shard's head decides.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError>;

    /// Stores an encoded hypervector under `key`; `true` if replaced.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError>;

    /// Removes a stored entry; `true` if the key was stored.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn remove(&mut self, key: &str) -> Result<bool, HdcError>;

    /// Folds one encoded observation, with its target, into the shard's
    /// online trainer.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError>;

    /// Publishes a new generation from the shard's accumulated
    /// observations, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn refresh(&mut self) -> Result<u64, HdcError>;

    /// The shard's runtime statistics (including its identity section).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn stats(&mut self) -> Result<RuntimeStats, HdcError>;

    /// Liveness probe: `(generation, uptime_us)`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or [`HdcError::ServiceUnavailable`] for a dead runtime.
    fn ping(&mut self) -> Result<(u64, u64), HdcError>;

    /// Streams the shard's full state (spec, trainer accumulators, item
    /// memories) — the donor half of a warm join.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error.
    fn snapshot(&mut self) -> Result<Snapshot, HdcError>;

    /// Adopts a streamed snapshot (trainer state replaced, items merged),
    /// returning the published generation — the receiving half of a warm
    /// join.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] on transport
    /// failure, or the shard's own error (including a spec mismatch).
    fn restore(&mut self, snapshot: &Snapshot) -> Result<u64, HdcError>;
}

/// An in-process shard: a [`RuntimeHandle`] behind the [`ShardBackend`]
/// seam, so a cluster can mix in-process and remote shards (or be tested
/// entirely in one process).
pub struct LocalShard<X: ?Sized + ToOwned> {
    handle: RuntimeHandle<X>,
}

impl<X: ?Sized + ToOwned> LocalShard<X> {
    /// Wraps a runtime handle as a cluster shard.
    pub fn new(handle: RuntimeHandle<X>) -> Self {
        Self { handle }
    }
}

impl<X: ?Sized + ToOwned> fmt::Debug for LocalShard<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalShard").finish_non_exhaustive()
    }
}

impl<X> ShardBackend for LocalShard<X>
where
    X: ?Sized + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    fn describe(&self) -> String {
        "local".into()
    }

    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError> {
        self.handle.answer_encoded(pairs)
    }

    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError> {
        self.handle.insert(key, hv)
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        self.handle.remove(key)
    }

    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        self.handle.observe_encoded(hv, target)
    }

    fn refresh(&mut self) -> Result<u64, HdcError> {
        self.handle.refresh()
    }

    fn stats(&mut self) -> Result<RuntimeStats, HdcError> {
        self.handle.stats()
    }

    fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        if self.handle.is_alive() {
            Ok((
                self.handle.generation().id(),
                self.handle.uptime().as_micros() as u64,
            ))
        } else {
            Err(HdcError::ServiceUnavailable)
        }
    }

    fn snapshot(&mut self) -> Result<Snapshot, HdcError> {
        self.handle.snapshot()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<u64, HdcError> {
        self.handle.restore(snapshot.clone())
    }
}

/// A shard process reached over the framed wire protocol: a
/// [`BlockingClient`] (with its bounded timeouts and connect retries)
/// behind the [`ShardBackend`] seam.
#[derive(Debug)]
pub struct RemoteShard {
    addr: String,
    client: BlockingClient,
}

impl RemoteShard {
    /// Connects to the shard process listening at `addr` with the default
    /// [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] if no
    /// connection can be established within the configured attempts.
    pub fn connect(addr: &str) -> Result<Self, HdcError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with explicit deadlines and retry
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Timeout`]/[`HdcError::Transport`] if no
    /// connection can be established within the configured attempts.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Self, HdcError> {
        let client =
            BlockingClient::connect_with(addr, config).map_err(|e| transport("connect", &e))?;
        Ok(Self {
            addr: addr.to_owned(),
            client,
        })
    }

    /// The address this shard was connected at.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// Maps a client-side `io::Error` onto the serving error taxonomy:
/// expired deadlines become [`HdcError::Timeout`], everything else
/// (refused/reset connections, malformed frames, relayed server errors)
/// becomes [`HdcError::Transport`].
fn transport(operation: &'static str, error: &io::Error) -> HdcError {
    match error.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => HdcError::Timeout { operation },
        _ => HdcError::Transport(format!("{operation}: {error}")),
    }
}

impl ShardBackend for RemoteShard {
    fn describe(&self) -> String {
        self.addr.clone()
    }

    fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> Result<Answers, HdcError> {
        // One frame per `REMOTE_BATCH_ROWS` rows, appended in order. An
        // empty request is still asked, so its answer names the task.
        let mut frame = |rows| {
            self.client
                .answer(rows)
                .map_err(|e| transport("predict", &e))
        };
        let mut rows = pairs.into_iter();
        let mut answers = frame(rows.by_ref().take(REMOTE_BATCH_ROWS).collect())?;
        while !rows.as_slice().is_empty() {
            answers.append(frame(rows.by_ref().take(REMOTE_BATCH_ROWS).collect())?)?;
        }
        Ok(answers)
    }

    fn insert(&mut self, key: String, hv: BinaryHypervector) -> Result<bool, HdcError> {
        self.client
            .insert(&key, &hv)
            .map_err(|e| transport("insert", &e))
    }

    fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        self.client.remove(key).map_err(|e| transport("remove", &e))
    }

    fn observe(&mut self, hv: BinaryHypervector, target: Target) -> Result<(), HdcError> {
        self.client
            .observe(&hv, target)
            .map_err(|e| transport("fit", &e))
    }

    fn refresh(&mut self) -> Result<u64, HdcError> {
        self.client.refresh().map_err(|e| transport("refresh", &e))
    }

    fn stats(&mut self) -> Result<RuntimeStats, HdcError> {
        self.client.stats().map_err(|e| transport("stats", &e))
    }

    fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        self.client.ping().map_err(|e| transport("ping", &e))
    }

    fn snapshot(&mut self) -> Result<Snapshot, HdcError> {
        self.client
            .snapshot()
            .map_err(|e| transport("snapshot", &e))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<u64, HdcError> {
        self.client
            .restore(snapshot)
            .map_err(|e| transport("restore", &e))
    }
}

/// Runs `op` on every shard that has an input, returning one slot per
/// shard **in shard order** (`None` where there was no input). Several
/// involved shards each get a scoped thread, so their waits overlap; a
/// lone one runs on the caller's thread. A panic inside `op` is resumed on
/// the caller.
fn fan_out<I: Send, R: Send>(
    shards: &mut [(usize, Box<dyn ShardBackend>)],
    inputs: Vec<Option<I>>,
    op: impl Fn(&mut dyn ShardBackend, I) -> Result<R, HdcError> + Sync,
) -> Vec<Option<Result<R, HdcError>>> {
    let involved = inputs.iter().filter(|input| input.is_some()).count();
    let calls = shards.iter_mut().zip(inputs);
    if involved <= 1 {
        return calls
            .map(|((_, shard), input)| input.map(|input| op(shard.as_mut(), input)))
            .collect();
    }
    thread::scope(|scope| {
        let handles: Vec<_> = calls
            .map(|((_, shard), input)| {
                let op = &op;
                input.map(|input| scope.spawn(move || op(shard.as_mut(), input)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
            })
            .collect()
    })
}

/// The routing front-end of a shard cluster: places items on shard
/// processes over the same consistent-hash ring an in-process
/// [`ShardedModel`](crate::ShardedModel) places them by, sends each read
/// whole to one shard, replicates training and refreshes to every shard,
/// and reshards through [`join`](Self::join) and [`leave`](Self::leave).
///
/// For the same `(RingConfig, seed)` and shard count, key→shard
/// assignment is identical to `ShardedModel`'s; with replicated heads,
/// cluster predictions are bit-identical to the unsharded model's for any
/// shard count.
///
/// Multi-shard operations (replicated fits, refresh, stats, ping) pay
/// their per-shard calls concurrently.
pub struct ClusterRouter {
    ring: HdcHashRing<usize>,
    shards: Vec<(usize, Box<dyn ShardBackend>)>,
    next_id: usize,
    config: RingConfig,
    dim: usize,
    /// Shards whose online trainer missed a replicated observation (the
    /// transport failed mid-fan-out). They stop receiving replicated
    /// observations and are healed from a healthy peer's trainer snapshot
    /// before the next refresh or membership change publishes anything
    /// derived from trainer state — so served heads never diverge.
    lagging: BTreeSet<usize>,
    /// Item-memory entries that moved to a new owner but could not be
    /// dropped from their old one. The ring no longer routes to these
    /// copies, so until the removal is retried (before the next
    /// membership change) they cost only key-count drift in
    /// [`cluster_stats`](Self::cluster_stats).
    pending_removals: Vec<(usize, String)>,
}

impl fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("shards", &self.shard_ids())
            .field("dim", &self.dim)
            .finish()
    }
}

impl ClusterRouter {
    /// Builds a router over an initial fleet of shard backends, assigning
    /// ids `0..backends.len()` in order — the exact ring an in-process
    /// `ShardedModel::with_head(head, dim, n, config, seed)` routes by.
    ///
    /// Every backend is probed for its `stats` once, to learn and
    /// cross-check the fleet's dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty fleet, a transport
    /// error if a backend is unreachable, and
    /// [`HdcError::DimensionMismatch`] if the shards disagree on `d`.
    pub fn new(
        backends: Vec<Box<dyn ShardBackend>>,
        config: RingConfig,
        seed: u64,
    ) -> Result<Self, HdcError> {
        if backends.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring =
            HdcHashRing::with_replicas(config.positions, config.dim, config.replicas, &mut rng)?;
        let mut shards = Vec::with_capacity(backends.len());
        let mut dim = 0usize;
        for (id, mut backend) in backends.into_iter().enumerate() {
            ring.add_node(id);
            let stats = backend.stats()?;
            let found = stats.dim as usize;
            if id == 0 {
                dim = found;
            } else if found != dim {
                return Err(HdcError::DimensionMismatch {
                    expected: dim,
                    found,
                });
            }
            shards.push((id, backend));
        }
        Ok(Self {
            ring,
            next_id: shards.len(),
            shards,
            config,
            dim,
            lagging: BTreeSet::new(),
            pending_removals: Vec::new(),
        })
    }

    /// Number of live shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ids of the live shards, in join order.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<usize> {
        self.shards.iter().map(|(id, _)| *id).collect()
    }

    /// Query dimensionality `d` (learned from the shards at construction).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shard id a key routes to — identical to
    /// [`ShardedModel::shard_of`](crate::ShardedModel::shard_of) for the
    /// same ring geometry, seed and shard history.
    #[must_use]
    pub fn shard_of<Q: Hash>(&self, key: &Q) -> usize {
        *self
            .ring
            .lookup(key)
            .expect("a cluster router always keeps at least one shard")
    }

    fn position_of<Q: Hash>(&self, key: &Q) -> usize {
        let owner = self.shard_of(key);
        self.shards
            .iter()
            .position(|(id, _)| *id == owner)
            .expect("every ring node has a backend")
    }

    /// One [`fan_out`] input per shard: a call for each shard `involve`
    /// picks by id.
    fn inputs(&self, involve: impl Fn(usize) -> bool) -> Vec<Option<()>> {
        self.shards
            .iter()
            .map(|(id, _)| involve(*id).then_some(()))
            .collect()
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

    /// Answers a batch of keyed, encoded queries in input order with one
    /// shard call. The owner of the first key answers the whole request
    /// (the first shard answers an empty one, so its empty answer still
    /// names the task): every shard serves the same replicated head, so a
    /// key decides where an item lives, never an answer. The shards' head
    /// decides whether the answers are labels or values.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] for a query of another
    /// dimensionality, a transport error for an unreachable shard or a
    /// short answer, or the shard's own error.
    pub fn answer(&mut self, pairs: &[(String, BinaryHypervector)]) -> Result<Answers, HdcError> {
        for (_, hv) in pairs {
            self.check_dim(hv.dim())?;
        }
        let position = pairs.first().map_or(0, |(key, _)| self.position_of(key));
        let (id, shard) = &mut self.shards[position];
        let answers = shard.answer(pairs.to_vec())?;
        if answers.len() != pairs.len() {
            return Err(HdcError::Transport(format!(
                "shard {id} answered {} of {} queries",
                answers.len(),
                pairs.len()
            )));
        }
        Ok(answers)
    }

    /// Predicts a batch of keyed, encoded queries' labels (see
    /// [`answer`](Self::answer)).
    ///
    /// # Errors
    ///
    /// As [`answer`](Self::answer), plus [`HdcError::TaskMismatch`] on a
    /// regression cluster.
    pub fn predict_batch(
        &mut self,
        pairs: &[(String, BinaryHypervector)],
    ) -> Result<Vec<Prediction>, HdcError> {
        self.answer(pairs)?.into_labels()
    }

    /// Predicts a batch of keyed, encoded queries' values (see
    /// [`answer`](Self::answer)).
    ///
    /// # Errors
    ///
    /// As [`answer`](Self::answer), plus [`HdcError::TaskMismatch`] on a
    /// classification cluster.
    pub fn predict_value_batch(
        &mut self,
        pairs: &[(String, BinaryHypervector)],
    ) -> Result<Vec<ValuePrediction>, HdcError> {
        self.answer(pairs)?.into_values()
    }

    /// Stores an encoded hypervector on the owning shard; `true` if an
    /// entry was replaced.
    ///
    /// # Errors
    ///
    /// Returns a transport error for an unreachable owner, or the shard's
    /// own error.
    pub fn insert(&mut self, key: &str, hv: &BinaryHypervector) -> Result<bool, HdcError> {
        self.check_dim(hv.dim())?;
        let position = self.position_of(&key);
        self.shards[position].1.insert(key.to_owned(), hv.clone())
    }

    /// Removes a stored entry from the owning shard; `true` if the key
    /// was stored.
    ///
    /// # Errors
    ///
    /// Returns a transport error for an unreachable owner, or the shard's
    /// own error.
    pub fn remove(&mut self, key: &str) -> Result<bool, HdcError> {
        let position = self.position_of(&key);
        self.shards[position].1.remove(key)
    }

    /// Replicates one encoded training observation to **every** shard —
    /// the invariant that keeps the per-shard trainer states (and
    /// therefore the published heads) identical across the cluster.
    ///
    /// If a shard's transport fails mid-fan-out, the observation is still
    /// applied to the reachable shards and the failed ones are marked
    /// **lagging** (see [`lagging_shards`](Self::lagging_shards)): they
    /// stop receiving replicated observations and adopt a healthy peer's
    /// trainer state wholesale before the next [`refresh`](Self::refresh)
    /// or membership change — so a partial failure never becomes a
    /// permanent divergence, and retrying a failed call never
    /// double-fits.
    ///
    /// # Errors
    ///
    /// Returns the first shard's error only if **no** shard accepted the
    /// observation; the cluster is then unchanged and the call is safe to
    /// retry.
    pub fn observe(&mut self, hv: &BinaryHypervector, target: Target) -> Result<(), HdcError> {
        self.check_dim(hv.dim())?;
        self.replicate(|shard| shard.observe(hv.clone(), target))
    }

    /// Replicates one encoded `(query, label)` observation (see
    /// [`observe`](Self::observe)).
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn fit_encoded(&mut self, hv: &BinaryHypervector, label: usize) -> Result<(), HdcError> {
        self.observe(hv, Target::Label(label))
    }

    /// Fans one training observation out to every non-lagging shard.
    /// Shards that fail are marked lagging, to be healed by
    /// [`resync_lagging`](Self::resync_lagging) — unless **every**
    /// reachable shard failed, in which case nothing was applied anywhere
    /// and the first error is returned so the caller can retry without
    /// double-fitting.
    fn replicate(
        &mut self,
        apply: impl Fn(&mut dyn ShardBackend) -> Result<(), HdcError> + Sync,
    ) -> Result<(), HdcError> {
        let inputs = self.inputs(|id| !self.lagging.contains(&id));
        let outcomes = fan_out(&mut self.shards, inputs, |shard, ()| apply(shard));
        let mut failed: Vec<usize> = Vec::new();
        let mut first_error = None;
        let mut applied = 0usize;
        for ((id, _), outcome) in self.shards.iter().zip(outcomes) {
            match outcome {
                None => {} // lagging, skipped
                Some(Ok(())) => applied += 1,
                Some(Err(error)) => {
                    failed.push(*id);
                    if first_error.is_none() {
                        first_error = Some(error);
                    }
                }
            }
        }
        if applied == 0 {
            // No shard holds the observation, so nobody diverged: report
            // the failure instead of marking the whole cluster lagging.
            return Err(first_error.unwrap_or(HdcError::ServiceUnavailable));
        }
        self.lagging.extend(failed);
        Ok(())
    }

    /// Shards currently lagging the replicated trainer state (a fit
    /// fan-out failed against them). Until healed they are skipped by
    /// further fits and keep serving the last published head; the next
    /// [`refresh`](Self::refresh), [`join`](Self::join) or
    /// [`leave`](Self::leave) heals them from a healthy peer's snapshot
    /// first.
    #[must_use]
    pub fn lagging_shards(&self) -> Vec<usize> {
        self.lagging.iter().copied().collect()
    }

    /// Item-memory entries whose move to a new owner succeeded but whose
    /// removal from the old owner is still deferred (the old owner was
    /// unreachable). The ring no longer routes to these copies; they are
    /// flushed before the next membership change.
    #[must_use]
    pub fn deferred_cleanup(&self) -> usize {
        self.pending_removals.len()
    }

    /// Heals lagging shards: a healthy peer's trainer state (items
    /// stripped) is streamed to each lagging shard, which adopts it
    /// wholesale — replicated training makes the donor's accumulators
    /// exactly the state the lagging shard missed. Returns whether any
    /// shard was healed. No-op when nothing lags.
    fn resync_lagging(&mut self) -> Result<bool, HdcError> {
        if self.lagging.is_empty() {
            return Ok(false);
        }
        let donor = self
            .shards
            .iter()
            .position(|(id, _)| !self.lagging.contains(id))
            .ok_or(HdcError::ServiceUnavailable)?;
        let mut stream = self.shards[donor].1.snapshot()?;
        stream.replace_items(Vec::new());
        let ids: Vec<usize> = self.lagging.iter().copied().collect();
        for id in ids {
            let Some(position) = self.shards.iter().position(|(sid, _)| *sid == id) else {
                self.lagging.remove(&id);
                continue;
            };
            self.shards[position].1.restore(&stream)?;
            self.lagging.remove(&id);
        }
        Ok(true)
    }

    /// Retries the deferred removals of entries whose move to a new owner
    /// committed but whose cleanup on the old owner failed.
    fn flush_pending_removals(&mut self) -> Result<(), HdcError> {
        let pending = std::mem::take(&mut self.pending_removals);
        let mut first_error = None;
        for (id, key) in pending {
            let Some(position) = self.shards.iter().position(|(sid, _)| *sid == id) else {
                // The stale holder itself left the cluster: nothing to do.
                continue;
            };
            if let Err(error) = self.shards[position].1.remove(&key) {
                self.pending_removals.push((id, key));
                if first_error.is_none() {
                    first_error = Some(error);
                }
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Brings the cluster back to its fully-consistent resting state
    /// before a membership change: deferred removals are flushed and
    /// lagging trainers healed (followed by a full refresh so every
    /// served head reflects the same trainer state again).
    fn repair(&mut self) -> Result<(), HdcError> {
        self.flush_pending_removals()?;
        if self.resync_lagging()? {
            self.refresh_all()?;
        }
        Ok(())
    }

    /// Replicates a generation refresh to every shard, returning the
    /// highest published generation id. Because observations are
    /// replicated in arrival order and the accumulators are commutative
    /// counters, every shard finalizes the **same** head — ids may drift
    /// (e.g. after a warm join), the weights never do.
    ///
    /// Lagging shards are healed from a healthy peer's trainer snapshot
    /// before anything publishes, so the refreshed heads are identical
    /// across the cluster even after a partial fit failure.
    ///
    /// # Errors
    ///
    /// Returns the first shard's error. A refresh that failed partway is
    /// safe to retry: trainer states are identical across shards, so a
    /// repeated refresh republishes the same weights everywhere.
    pub fn refresh(&mut self) -> Result<u64, HdcError> {
        self.resync_lagging()?;
        self.refresh_all()
    }

    fn refresh_all(&mut self) -> Result<u64, HdcError> {
        let inputs = self.inputs(|_| true);
        let outcomes = fan_out(&mut self.shards, inputs, |shard, ()| shard.refresh());
        let mut latest = 0;
        for outcome in outcomes.into_iter().flatten() {
            latest = latest.max(outcome?);
        }
        Ok(latest)
    }

    /// Probes every shard, returning `(highest generation, smallest
    /// uptime_us)` — a cluster is only as warm as its youngest shard.
    ///
    /// # Errors
    ///
    /// Returns the first unreachable/dead shard's error: one dead shard
    /// makes the cluster probe unhealthy.
    pub fn ping(&mut self) -> Result<(u64, u64), HdcError> {
        let inputs = self.inputs(|_| true);
        let outcomes = fan_out(&mut self.shards, inputs, |shard, ()| shard.ping());
        let mut generation = 0;
        let mut uptime = u64::MAX;
        for outcome in outcomes.into_iter().flatten() {
            let (shard_generation, shard_uptime) = outcome?;
            generation = generation.max(shard_generation);
            uptime = uptime.min(shard_uptime);
        }
        Ok((generation, uptime))
    }

    /// Per-shard `(cluster shard id, runtime stats)` — each entry carries
    /// the shard's own identity section (`name`, `ring_positions`,
    /// `keys`).
    ///
    /// # Errors
    ///
    /// Returns the first unreachable shard's error.
    pub fn shard_stats(&mut self) -> Result<Vec<(usize, RuntimeStats)>, HdcError> {
        let inputs = self.inputs(|_| true);
        let outcomes = fan_out(&mut self.shards, inputs, |shard, ()| shard.stats());
        let mut out = Vec::with_capacity(self.shards.len());
        for ((id, _), outcome) in self.shards.iter().zip(outcomes) {
            let Some(stats) = outcome.transpose()? else {
                continue;
            };
            out.push((*id, stats));
        }
        Ok(out)
    }

    /// One aggregate [`RuntimeStats`] for the whole cluster: counters are
    /// summed, `shard_loads` lists each cluster shard's key count, the
    /// generation is the highest and the uptime the smallest across
    /// shards. Latency percentiles and batch-size histograms are not
    /// aggregatable across processes and are reported zeroed.
    ///
    /// # Errors
    ///
    /// Returns the first unreachable shard's error.
    pub fn cluster_stats(&mut self) -> Result<RuntimeStats, HdcError> {
        let per_shard = self.shard_stats()?;
        let mut aggregate = RuntimeStats {
            generation: 0,
            uptime_us: u64::MAX,
            name: format!("cluster({})", per_shard.len()),
            ring_positions: self.config.positions as u64,
            dim: self.dim as u64,
            classes: per_shard.first().map_or(0, |(_, s)| s.classes),
            shard_loads: Vec::with_capacity(per_shard.len()),
            keys: 0,
            metrics: MetricsSnapshot {
                queue_depth: 0,
                requests: 0,
                batches: 0,
                inserts: 0,
                removes: 0,
                fits: 0,
                mean_batch_size: 0.0,
                batch_sizes: Vec::new(),
                latency_us_p50: 0.0,
                latency_us_p95: 0.0,
                latency_us_p99: 0.0,
            },
        };
        // Rows over all shards, for the batch-weighted mean batch size.
        let mut rows = 0.0;
        for (id, stats) in per_shard {
            rows += stats.metrics.mean_batch_size * stats.metrics.batches as f64;
            aggregate.generation = aggregate.generation.max(stats.generation);
            aggregate.uptime_us = aggregate.uptime_us.min(stats.uptime_us);
            aggregate.shard_loads.push((id as u64, stats.keys));
            aggregate.keys += stats.keys;
            aggregate.metrics.queue_depth += stats.metrics.queue_depth;
            aggregate.metrics.requests += stats.metrics.requests;
            aggregate.metrics.batches += stats.metrics.batches;
            aggregate.metrics.inserts += stats.metrics.inserts;
            aggregate.metrics.removes += stats.metrics.removes;
            aggregate.metrics.fits += stats.metrics.fits;
        }
        if aggregate.uptime_us == u64::MAX {
            aggregate.uptime_us = 0;
        }
        if aggregate.metrics.batches > 0 {
            aggregate.metrics.mean_batch_size = rows / aggregate.metrics.batches as f64;
        }
        Ok(aggregate)
    }

    /// Warm-joins a fresh shard: a donor peer's trainer state plus the
    /// item-memory entries the grown ring assigns to the newcomer are
    /// streamed to it as one [`Snapshot`], then removed from their old
    /// owners. Returns `(assigned id, entries moved)`.
    ///
    /// The joining shard may be completely blank (same spec, zero
    /// observations) — after the join it answers bit-identically to its
    /// peers.
    ///
    /// The join **commits** the moment the newcomer has adopted the
    /// streamed snapshot. Any failure before that point rolls the ring
    /// back and leaves the cluster unchanged. After that point the
    /// newcomer is a full member even if dropping a moved entry from its
    /// old owner fails: the ring already routes those keys to the
    /// newcomer, so such stale copies are unreachable — they are retried
    /// before the next membership change and until then cost only
    /// key-count drift in [`cluster_stats`](Self::cluster_stats) (see
    /// [`deferred_cleanup`](Self::deferred_cleanup)).
    ///
    /// # Errors
    ///
    /// Returns a transport error if a peer or the newcomer is
    /// unreachable, [`HdcError::Snapshot`] if the newcomer's spec
    /// differs, or the error of a pending repair (deferred cleanup /
    /// lagging-trainer heal) that could not complete first. In every
    /// error case the cluster routes exactly as before the call.
    pub fn join(&mut self, mut backend: Box<dyn ShardBackend>) -> Result<(usize, u64), HdcError> {
        // Settle earlier partial failures first: stale copies must be
        // gone before peers donate their item partitions, and the donor
        // trainer state must not be lagging.
        self.repair()?;
        let id = self.next_id;
        self.ring.add_node(id);
        // Gather, per peer, the entries the grown ring now assigns to the
        // newcomer — and a donor trainer state (any peer: replicated
        // training keeps them identical).
        let result = (|| {
            let mut donor: Option<Snapshot> = None;
            let mut movers: Vec<(String, BinaryHypervector)> = Vec::new();
            let mut moved_keys: Vec<Vec<String>> = Vec::with_capacity(self.shards.len());
            for (_, shard) in &mut self.shards {
                let mut snapshot = shard.snapshot()?;
                let items = snapshot.take_items();
                let mut mine = Vec::new();
                for (key, hv) in items {
                    if self.ring.lookup(&key) == Some(&id) {
                        mine.push(key.clone());
                        movers.push((key, hv));
                    }
                }
                moved_keys.push(mine);
                if donor.is_none() {
                    donor = Some(snapshot);
                }
            }
            let mut stream = donor.expect("a router always keeps at least one shard");
            let moved = movers.len() as u64;
            stream.replace_items(movers);
            backend.restore(&stream)?;
            Ok((moved, moved_keys))
        })();
        match result {
            Ok((moved, moved_keys)) => {
                // The newcomer holds every moved entry: commit membership
                // *before* the cleanup, so the ring/backend invariant
                // holds even if a peer dies mid-removal.
                self.next_id += 1;
                self.shards.push((id, backend));
                for (index, keys) in moved_keys.into_iter().enumerate() {
                    let peer = self.shards[index].0;
                    let mut keys = keys.into_iter();
                    for key in keys.by_ref() {
                        if self.shards[index].1.remove(&key).is_err() {
                            // The peer is unreachable: defer its cleanup
                            // instead of failing a join that has already
                            // taken effect.
                            self.pending_removals.push((peer, key));
                            break;
                        }
                    }
                    self.pending_removals.extend(keys.map(|key| (peer, key)));
                }
                Ok((id, moved))
            }
            Err(error) => {
                self.ring.remove_node(&id);
                Err(error)
            }
        }
    }

    /// Drains and drops shard `id`: its item-memory entries are re-routed
    /// through the shrunk ring onto the remaining shards **before** the
    /// shard is dropped — if any transfer fails, the ring rolls back and
    /// the leaver keeps serving, so a failed leave never strands an
    /// entry. Returns `(removed, entries drained)` — `(false, 0)` for an
    /// unknown id or the last shard.
    ///
    /// The shard *process* keeps running (and keeps its replicated head);
    /// only the router stops routing to it.
    ///
    /// # Errors
    ///
    /// Returns a transport error if the leaver or a receiving shard is
    /// unreachable, or the error of a pending repair (deferred cleanup /
    /// lagging-trainer heal) that could not complete first. In every
    /// error case the cluster routes exactly as before the call and the
    /// leaver still holds all of its entries.
    pub fn leave(&mut self, id: usize) -> Result<(bool, u64), HdcError> {
        if self.shards.len() <= 1 {
            return Ok((false, 0));
        }
        let Some(position) = self.shards.iter().position(|(sid, _)| *sid == id) else {
            return Ok((false, 0));
        };
        // Settle earlier partial failures first — in particular, stale
        // copies must be flushed before the drain re-inserts entries, or
        // a deferred removal could later delete a freshly drained entry.
        self.repair()?;
        let mut snapshot = self.shards[position].1.snapshot()?;
        let items = snapshot.take_items();
        let drained = items.len() as u64;
        // Shrink the ring first so the drained entries route to their new
        // owners — but keep the leaver's backend until every transfer
        // lands, so a failure can roll straight back.
        self.ring.remove_node(&id);
        let mut transferred: Vec<(usize, String)> = Vec::with_capacity(items.len());
        for (key, hv) in items {
            let owner = self.shard_of(&key);
            let target = self
                .shards
                .iter()
                .position(|(sid, _)| *sid == owner)
                .expect("every ring node has a backend");
            match self.shards[target].1.insert(key.clone(), hv) {
                Ok(_) => transferred.push((owner, key)),
                Err(error) => {
                    // Roll back: the leaver re-enters the ring (its node
                    // hypervectors are a pure function of its id, so
                    // routing is restored exactly) and still holds every
                    // entry. Copies already transferred — including the
                    // possibly half-applied failing one — are now
                    // unreachable and queued for deferred removal.
                    self.ring.add_node(id);
                    transferred.push((owner, key));
                    self.pending_removals.extend(transferred);
                    return Err(error);
                }
            }
        }
        self.shards.remove(position);
        self.lagging.remove(&id);
        Ok((true, drained))
    }
}

/// A framed-TCP front-end over a [`ClusterRouter`], speaking the same
/// wire protocol as a single-shard [`Server`](crate::Server) — so a
/// client cannot tell a cluster from one big runtime. Additionally
/// answers the cluster-membership opcodes (`shard_join`/`shard_leave`)
/// that shard runtimes refuse.
///
/// # Consistency vs. availability
///
/// Every request is serialized through one router lock — including
/// membership changes, which hold it for their full duration (peer
/// snapshots plus the snapshot stream to the newcomer, each call bounded
/// by the configured [`ClientConfig`] deadlines). Client traffic
/// therefore **stalls for the length of a join or leave**. That stall is
/// the single-writer consistency model: no request can ever observe a
/// half-moved ring, which is what keeps answers bit-identical through
/// churn. Splitting membership changes from the serving path (e.g. a
/// copy-on-write shard table) is a possible follow-up if join-time
/// stalls become a problem at scale.
#[derive(Debug)]
pub struct ClusterServer {
    listener: Listener,
    router: Arc<Mutex<ClusterRouter>>,
}

impl ClusterServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against the router. `clients` is the
    /// [`ClientConfig`] used to connect to shards named in `shard_join`
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` if the address cannot be bound.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        router: ClusterRouter,
        clients: ClientConfig,
    ) -> io::Result<Self> {
        let router = Arc::new(Mutex::new(router));
        let shared = Arc::clone(&router);
        let listener = Listener::spawn(addr, "hdc-cluster", move || {
            let router = Arc::clone(&shared);
            move |request| {
                let mut router = router.lock().expect("cluster router lock");
                answer(&mut router, clients, request)
            }
        })?;
        Ok(Self { listener, router })
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Runs `with` against the router behind the front-end (e.g. to join
    /// a shard programmatically while the server keeps accepting).
    pub fn with_router<T>(&self, with: impl FnOnce(&mut ClusterRouter) -> T) -> T {
        let mut router = self.router.lock().expect("cluster router lock");
        with(&mut router)
    }

    /// Stops accepting, closes every live connection and joins the
    /// server's threads, handing the router back.
    ///
    /// # Panics
    ///
    /// Panics if a connection handler panicked while holding the router.
    #[must_use]
    pub fn shutdown(self) -> ClusterRouter {
        let Self {
            mut listener,
            router,
        } = self;
        // Joining the accept thread drops its answerer, the last other
        // owner of the router.
        listener.stop_and_join();
        drop(listener);
        let router = Arc::try_unwrap(router)
            .unwrap_or_else(|_| panic!("all router references are joined at shutdown"));
        router.into_inner().expect("cluster router lock")
    }
}

/// Maps one decoded request onto the router. Every error becomes a
/// [`Response::Error`] — the connection survives bad requests and dead
/// shards alike.
fn answer(router: &mut ClusterRouter, clients: ClientConfig, request: Request) -> Response {
    match request {
        Request::PredictBatch { pairs } => router.answer(&pairs).map_or_else(fail, Into::into),
        Request::Fit { hv, target } => router
            .observe(&hv, target)
            .map_or_else(fail, |()| Response::FitAck),
        Request::Insert { key, hv } => router
            .insert(&key, &hv)
            .map_or_else(fail, |replaced| Response::Inserted { replaced }),
        Request::Remove { key } => router
            .remove(&key)
            .map_or_else(fail, |removed| Response::Removed { removed }),
        Request::Refresh => router
            .refresh()
            .map_or_else(fail, |generation| Response::Refreshed { generation }),
        Request::Stats => router.cluster_stats().map_or_else(fail, Response::Stats),
        Request::Ping => {
            router
                .ping()
                .map_or_else(fail, |(generation, uptime_us)| Response::Pong {
                    generation,
                    uptime_us,
                })
        }
        Request::ShardJoin { addr } => RemoteShard::connect_with(&addr, clients)
            .and_then(|shard| router.join(Box::new(shard)))
            .map_or_else(fail, |(id, moved)| Response::ShardJoined {
                id: id as u32,
                moved,
            }),
        Request::ShardLeave { id } => {
            router
                .leave(id as usize)
                .map_or_else(fail, |(removed, drained)| Response::ShardLeft {
                    removed,
                    drained,
                })
        }
        Request::Snapshot | Request::Restore { .. } => Response::Error {
            message: "snapshot streaming is served by shard runtimes, not the router".into(),
        },
    }
}
