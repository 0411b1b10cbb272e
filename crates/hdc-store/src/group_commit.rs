//! The group-commit flush scheduler: a dedicated flusher thread owns the
//! WAL tail, concurrent durable writers append records and park an ack
//! ticket, and the flusher retires every parked ticket with **one**
//! `fdatasync` — then releases the whole group. The per-write durability
//! *guarantee* is unchanged (an ack still means the record is on stable
//! storage per the configured [`SyncPolicy`]); only the flush *count* is
//! amortized.
//!
//! # Flow
//!
//! ```text
//! writer:   append(record) ──► ticket (seq)
//!           commit(seq, ack) ──► parked
//! flusher:  wake ── take every parked ticket ──►
//!           one fdatasync covering every appended seq ──►
//!           release every ack in the group
//! ```
//!
//! The flusher never waits on a timer. It takes what is parked when it
//! wakes, and the `fdatasync` itself runs on a duplicated file handle
//! **off** the WAL lock, so appends and tickets for the *next* group
//! collect while the platters spin. The in-flight flush is the collection
//! window: a lone writer pays one flush and nothing more, and sixteen
//! concurrent writers share flushes because each one parks while the
//! previous flush runs.
//!
//! Under [`SyncPolicy::Never`] there is nothing to flush: no flusher runs
//! and `commit` fires its acks at once.
//!
//! # Failure
//!
//! The scheduler is fail-stop, like the dispatcher it serves: if a flush
//! fails, the parked acks are **dropped** (their callers' reply channels
//! close, so no caller ever mistakes a failed flush for durability) and
//! every later `append`/`commit` returns the stored error.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use hdc_core::HdcError;

use crate::record::WalRecord;
use crate::wal::Wal;
use crate::SyncPolicy;

/// Settings of the [`GroupCommitWal`] flusher — there are none left. The
/// flusher takes every parked ticket when it wakes and never lingers, so
/// there is no window to size and no group to cap. The type stays so that
/// code building a [`GroupCommitWal`] from a
/// [`DurabilityConfig`](crate::DurabilityConfig) keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitConfig;

/// A parked acknowledgement: invoked exactly once, after the records it
/// covers are durable. Dropped without invocation if the flush fails —
/// the caller's reply channel closing is the fail-stop signal.
pub type GroupAck = Box<dyn FnOnce() + Send + 'static>;

struct FlushState {
    /// Parked tickets: the last sequence each ack covers, and the ack.
    pending: Vec<(u64, GroupAck)>,
    /// Every sequence `< synced` is on stable storage.
    synced: u64,
    /// The stored fail-stop error, if a flush ever failed.
    failed: Option<String>,
    shutdown: bool,
}

struct Shared {
    wal: Mutex<Wal>,
    state: Mutex<FlushState>,
    /// Wakes the flusher on new tickets and shutdown.
    tickets: Condvar,
}

/// The WAL behind a group-commit flush scheduler — the shape the serving
/// dispatcher owns on a durable runtime. `append` takes the WAL lock
/// briefly (a buffered write); `commit` parks the acks on the flusher,
/// which retires whole groups with one `fdatasync` each.
pub struct GroupCommitWal {
    shared: Arc<Shared>,
    /// The flusher thread; `None` under [`SyncPolicy::Never`].
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitWal")
            .field("flusher", &self.flusher.is_some())
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>, what: &str) -> Result<MutexGuard<'a, T>, HdcError> {
    mutex
        .lock()
        .map_err(|_| HdcError::Storage(format!("{what} lock poisoned by a panicked thread")))
}

impl GroupCommitWal {
    /// Wraps an opened [`Wal`], spawning the flusher thread unless the
    /// policy is [`SyncPolicy::Never`].
    #[must_use]
    pub fn new(wal: Wal, _config: GroupCommitConfig) -> Self {
        let flushes = !matches!(wal.sync_policy(), SyncPolicy::Never);
        let shared = Arc::new(Shared {
            state: Mutex::new(FlushState {
                pending: Vec::new(),
                synced: wal.next_seq(),
                failed: None,
                shutdown: false,
            }),
            wal: Mutex::new(wal),
            tickets: Condvar::new(),
        });
        let flusher = flushes.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hdc-wal-flush".into())
                .spawn(move || flusher_loop(&shared))
                .expect("spawning the WAL flusher thread")
        });
        Self { shared, flusher }
    }

    /// Appends one record, returning its sequence number — the ticket a
    /// later [`commit`](Self::commit) parks on. The flusher's group
    /// `fdatasync` makes it durable.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure or after a failed
    /// flush (fail-stop).
    pub fn append(&self, record: &WalRecord) -> Result<u64, HdcError> {
        self.check_failed()?;
        lock(&self.shared.wal, "WAL")?.append(record)
    }

    /// Parks `acks` until every record up to and including `upto` is
    /// durable, then fires them; returns immediately (the acks release
    /// with their group). Acks whose records an earlier flush already
    /// covered fire at once, and so does every ack under
    /// [`SyncPolicy::Never`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] after a failed flush (fail-stop); the
    /// acks are dropped unfired in that case.
    pub fn commit(&self, upto: u64, acks: Vec<GroupAck>) -> Result<(), HdcError> {
        let mut state = lock(&self.shared.state, "flush scheduler")?;
        if let Some(reason) = &state.failed {
            return Err(HdcError::Storage(reason.clone()));
        }
        if self.flusher.is_none() || upto < state.synced {
            drop(state);
            for ack in acks {
                ack();
            }
            return Ok(());
        }
        state
            .pending
            .extend(acks.into_iter().map(|ack| (upto, ack)));
        drop(state);
        // The flusher is the condvar's only waiter.
        self.shared.tickets.notify_one();
        Ok(())
    }

    /// Seals the active segment at the current sequence and returns that
    /// sequence (see [`Wal::cut`]): a snapshot's cover point. It runs under
    /// the WAL lock, as [`append`](Self::append)'s size rotation does.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure or after a failed
    /// flush (fail-stop).
    pub fn cut(&self) -> Result<u64, HdcError> {
        self.check_failed()?;
        lock(&self.shared.wal, "WAL")?.cut()
    }

    /// Data `fsync`s issued since open (see [`Wal::sync_count`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] if the WAL lock is poisoned.
    pub fn sync_count(&self) -> Result<u64, HdcError> {
        Ok(lock(&self.shared.wal, "WAL")?.sync_count())
    }

    /// Frame bytes appended since open (see [`Wal::bytes_appended`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] if the WAL lock is poisoned.
    pub fn bytes_appended(&self) -> Result<u64, HdcError> {
        Ok(lock(&self.shared.wal, "WAL")?.bytes_appended())
    }

    /// Flushes everything appended so far, inline — the graceful-shutdown
    /// call after the work queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Storage`] on I/O failure.
    pub fn sync_now(&self) -> Result<(), HdcError> {
        lock(&self.shared.wal, "WAL")?.sync()
    }

    fn check_failed(&self) -> Result<(), HdcError> {
        let state = lock(&self.shared.state, "flush scheduler")?;
        match &state.failed {
            Some(reason) => Err(HdcError::Storage(reason.clone())),
            None => Ok(()),
        }
    }
}

impl Drop for GroupCommitWal {
    /// Drains parked tickets (their groups still flush and ack) and joins
    /// the flusher.
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.tickets.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

fn flusher_loop(shared: &Shared) {
    loop {
        let Ok(mut state) = shared.state.lock() else {
            return;
        };
        while state.pending.is_empty() && !state.shutdown {
            state = match shared.tickets.wait(state) {
                Ok(guard) => guard,
                Err(_) => return,
            };
        }
        if state.pending.is_empty() {
            return;
        }
        // Every parked ticket joins this group; tickets that park while
        // its fdatasync runs form the next one.
        let group = std::mem::take(&mut state.pending);
        drop(state);
        // One fdatasync for the whole group, issued on a duplicated
        // handle off the WAL lock so appends keep flowing meanwhile.
        let begun = match shared.wal.lock() {
            Ok(mut wal) => wal.begin_group_sync(),
            Err(_) => Err(HdcError::Storage("WAL lock poisoned".into())),
        };
        let synced = begun.and_then(|(file, covered)| {
            file.sync_data()
                .map_err(|e| HdcError::Storage(format!("group fdatasync failed: {e}")))?;
            Ok(covered)
        });
        match synced {
            Ok(covered) => {
                if let Ok(mut wal) = shared.wal.lock() {
                    wal.finish_group_sync(covered);
                }
                if let Ok(mut state) = shared.state.lock() {
                    state.synced = state.synced.max(covered);
                }
                for (_, ack) in group {
                    ack();
                }
            }
            Err(error) => {
                // Fail-stop: drop the group's acks unfired and poison
                // every later append/commit with the stored error.
                if let Ok(mut state) = shared.state.lock() {
                    state.failed = Some(format!(
                        "write-ahead log group flush failed; refusing to acknowledge \
                         non-durable writes: {error}"
                    ));
                    state.shutdown = true;
                }
                drop(group);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalConfig;
    use hdc_core::BinaryHypervector;
    use rand::{rngs::StdRng, SeedableRng};
    use std::path::PathBuf;
    use std::sync::mpsc;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-group-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(sync: SyncPolicy) -> WalConfig {
        WalConfig {
            segment_bytes: u64::MAX,
            sync,
        }
    }

    fn open(dir: &PathBuf, sync: SyncPolicy) -> Wal {
        Wal::open(dir, 9, config(sync), 0).unwrap().0
    }

    fn records(n: usize) -> Vec<WalRecord> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| WalRecord::Fit {
                hv: BinaryHypervector::random(256, &mut rng),
                label: i as u64,
            })
            .collect()
    }

    fn ack_pair() -> (GroupAck, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        (
            Box::new(move || {
                let _ = tx.send(());
            }),
            rx,
        )
    }

    /// An awaited commit costs exactly one flush: the flusher wakes for the
    /// lone ticket and retires it with one `fdatasync`, whatever was
    /// appended before it.
    #[test]
    fn each_awaited_commit_costs_one_flush() {
        let dir = tmp_dir("one-flush");
        let group = GroupCommitWal::new(open(&dir, SyncPolicy::EveryBatch), GroupCommitConfig);
        let batches: Vec<Vec<WalRecord>> = records(7).chunks(2).map(<[_]>::to_vec).collect();
        for (flushes, batch) in (1..).zip(batches) {
            let mut upto = 0;
            for record in &batch {
                upto = group.append(record).unwrap();
            }
            let (ack, rx) = ack_pair();
            group.commit(upto, vec![ack]).unwrap();
            rx.recv_timeout(Duration::from_secs(5))
                .expect("the flusher retires a lone ticket");
            assert_eq!(group.sync_count().unwrap(), flushes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Under the default policy appends are deferred to the flusher, and
    /// an ack always fires only once its record is synced: one flush per
    /// awaited commit, never one per append on top.
    #[test]
    fn always_acks_only_synced_records() {
        let dir = tmp_dir("always");
        let group = GroupCommitWal::new(open(&dir, SyncPolicy::default()), GroupCommitConfig);
        let all = records(5);
        for (flushes, record) in (1..).zip(&all) {
            let upto = group.append(record).unwrap();
            assert_eq!(
                group.sync_count().unwrap(),
                flushes - 1,
                "append is deferred"
            );
            let (ack, rx) = ack_pair();
            group.commit(upto, vec![ack]).unwrap();
            rx.recv_timeout(Duration::from_secs(5))
                .expect("the flusher retires a lone ticket");
            assert!(
                group.shared.state.lock().unwrap().synced > upto,
                "acked means synced"
            );
            assert_eq!(group.sync_count().unwrap(), flushes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tickets that park while a flush is held up share it. The test holds
    /// the WAL lock while all 16 tickets park, so the flusher can take at
    /// most the first tickets before its first flush and the rest after
    /// it: at most two flushes. No timing assumption.
    #[test]
    fn grouped_commits_coalesce_into_fewer_fsyncs() {
        let dir = tmp_dir("coalesce");
        let group = GroupCommitWal::new(open(&dir, SyncPolicy::EveryBatch), GroupCommitConfig);
        let all = records(16);
        let tickets: Vec<u64> = all.iter().map(|r| group.append(r).unwrap()).collect();
        let wal = group.shared.wal.lock().unwrap();
        let mut receivers = Vec::new();
        for upto in tickets {
            let (ack, rx) = ack_pair();
            group.commit(upto, vec![ack]).unwrap();
            receivers.push(rx);
        }
        drop(wal);
        for rx in receivers {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("every parked ack fires");
        }
        let syncs = group.sync_count().unwrap();
        assert!(
            syncs <= 2,
            "16 parked commits must share flushes, saw {syncs}"
        );
        drop(group);
        // Everything acked is on disk and replays bit-identically.
        let (_, replayed) = Wal::open(&dir, 9, config(SyncPolicy::EveryBatch), 0).unwrap();
        assert_eq!(
            replayed.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            all
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_drains_parked_tickets() {
        let dir = tmp_dir("drain");
        let wal = open(&dir, SyncPolicy::EveryBatch);
        let group = GroupCommitWal::new(wal, GroupCommitConfig);
        let upto = group.append(&records(1)[0]).unwrap();
        let (ack, rx) = ack_pair();
        group.commit(upto, vec![ack]).unwrap();
        drop(group); // shutdown with the ticket possibly still parked
        rx.recv_timeout(Duration::from_secs(5))
            .expect("drop flushes and fires parked acks");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn never_policy_acks_immediately() {
        let dir = tmp_dir("never");
        let wal = open(&dir, SyncPolicy::Never);
        let group = GroupCommitWal::new(wal, GroupCommitConfig);
        let upto = group.append(&records(1)[0]).unwrap();
        let (ack, rx) = ack_pair();
        group.commit(upto, vec![ack]).unwrap();
        rx.try_recv().expect("Never policy has nothing to wait for");
        assert_eq!(group.sync_count().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
