//! Crash recovery, the hard way: **SIGKILL a durable shard while four
//! concurrent writers are mid-fit and prove the restart is bit-identical
//! for everything it acknowledged.**
//!
//! The example re-executes itself. The parent process spawns
//! `current_exe() --child DIR [--fsync POLICY]`, which runs a durable
//! [`Runtime`] (write-ahead log under `DIR`) and starts [`WRITERS`]
//! threads, each fitting its own deterministic stream through a cloned
//! handle — the shape the group-commit flush scheduler exists for. Every
//! writer streams acknowledged fits to stdout, one `ack W I` line *after*
//! its `fit` call returns, i.e. after the group's `fdatasync` covered the
//! record. Once the parent has seen enough acks it sends SIGKILL
//! (`Child::kill`), so the child dies with no destructors, no shutdown
//! snapshot, and very likely a torn record at the log tail.
//!
//! The parent then recovers in-process from the same directory and checks
//! the durability contract:
//!
//! * every **acknowledged** fit survived, per writer (each writer labels
//!   with its own id, so the recovered trainer's per-class counts are
//!   per-writer retained counts — unacked tail records may legitimately
//!   also survive, torn ones are truncated away);
//! * the recovered state is **bit-identical** to a reference model fed
//!   exactly the per-writer prefixes the log retained (a writer only
//!   submits fit `k+1` after fit `k` acked, so each writer's retained set
//!   is a prefix — and the centroid fold is integer-commutative, so the
//!   kill-time interleaving cannot matter);
//! * the item memory writes acknowledged before the kill are all present
//!   and bit-identical.
//!
//! The child snapshots every [`SNAPSHOT_EVERY`] records, so before the
//! kill its log has been cut at several snapshot cover points, with
//! background installs and segment GC running beside the writers: the
//! recovery starts from the newest installed snapshot, not from an empty
//! model.
//!
//! `--fsync batch|never` picks the [`SyncPolicy`] for both lives. CI runs
//! both: `batch` (the default), where every ack waits for a group
//! `fdatasync`, and `never`, where acks fire once the record reaches the
//! kernel — which a SIGKILL does not lose either.
//!
//! ```text
//! cargo run --release --example crash_recovery [-- --fsync never]
//! ```

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use hdc::{
    Basis, BinaryHypervector, DurabilityConfig, Enc, HdcError, Model, Pipeline, Radians, Runtime,
    RuntimeConfig, SyncPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 1024;
const SEED: u64 = 42;
/// Concurrent durable writer threads in the child.
const WRITERS: usize = 4;
/// Total acks (across writers) the parent waits for before the trigger.
const ACKS_BEFORE_KILL: usize = 40;
/// Item-memory keys the child registers (and acks) before fitting.
const ITEMS: usize = 4;
/// Log records between background snapshots: small, so the 40-odd acked
/// writes span several log cuts, installs and segment collections.
const SNAPSHOT_EVERY: u64 = 8;

/// The untrained pipeline every life starts from: writer-of-origin
/// classification over the daily circle — one class per writer, so the
/// recovered per-class counts are per-writer retained counts.
fn blank() -> Result<Model<Radians>, HdcError> {
    Pipeline::builder(DIM)
        .seed(SEED)
        .classes(WRITERS)
        .basis(Basis::Circular { m: 48, r: 0.0 })
        .encoder(Enc::angle())
        .build()
}

fn durable(dir: &Path, sync: SyncPolicy) -> RuntimeConfig {
    RuntimeConfig {
        durability: Some(DurabilityConfig {
            sync,
            snapshot_every: SNAPSHOT_EVERY,
            ..DurabilityConfig::new(dir)
        }),
        ..RuntimeConfig::default()
    }
}

fn parse_sync(value: &str) -> Result<SyncPolicy, String> {
    match value {
        "batch" => Ok(SyncPolicy::EveryBatch),
        "never" => Ok(SyncPolicy::Never),
        other => Err(format!(
            "invalid --fsync {other:?}; expected batch or never"
        )),
    }
}

/// Deterministic per-writer training stream: any prefix is
/// reconstructible from the writer id and its length alone, which is what
/// lets the parent rebuild a reference model for exactly the records the
/// log retained.
fn observation(writer: usize, i: usize) -> (Radians, usize) {
    let step = (writer * 31 + i) % 96;
    (Radians::periodic(step as f64 / 4.0, 24.0), writer)
}

/// The item memories the child inserts, reproducible in the parent.
fn item_memories() -> Vec<(String, BinaryHypervector)> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..ITEMS)
        .map(|i| {
            (
                format!("sensor-{i}"),
                BinaryHypervector::random(DIM, &mut rng),
            )
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sync = SyncPolicy::EveryBatch;
    let mut child_dir = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--child" => {
                child_dir = Some(PathBuf::from(
                    iter.next().ok_or("--child needs a data dir")?,
                ));
            }
            "--fsync" => {
                sync = parse_sync(iter.next().ok_or("--fsync needs a value")?)?;
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    match child_dir {
        Some(dir) => child(&dir, sync),
        None => parent(sync),
    }
}

/// The victim: a durable runtime with [`WRITERS`] concurrent fit threads,
/// each acking every write to stdout, running until killed from outside.
fn child(dir: &Path, sync: SyncPolicy) -> Result<(), Box<dyn std::error::Error>> {
    let runtime = Runtime::spawn(blank()?, durable(dir, sync))?;
    let handle = runtime.handle();
    {
        let mut out = std::io::stdout().lock();
        for (key, hv) in item_memories() {
            handle.insert(key, hv)?;
        }
        writeln!(out, "items {ITEMS}")?;
        out.flush()?;
    }
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let handle = handle.clone();
            scope.spawn(move || {
                for i in 0..1_000_000usize {
                    let (hour, label) = observation(writer, i);
                    // Durable path: this call returns only after the
                    // group flush covering the fit's WAL record retires,
                    // so printing the ack is an honest promise.
                    handle.fit(&hour, label).expect("durable fit failed");
                    let mut out = std::io::stdout().lock();
                    writeln!(out, "ack {writer} {i}").expect("child stdout closed");
                    out.flush().expect("child stdout closed");
                }
            });
        }
    });
    Err("child was never killed".into())
}

/// The cover point of the newest snapshot installed in `dir`, read from
/// the `snap-{upto:016x}.hdcs` file names.
fn newest_snapshot(dir: &Path) -> std::io::Result<Option<u64>> {
    let mut newest = None;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let upto = name
            .to_str()
            .and_then(|name| name.strip_prefix("snap-")?.strip_suffix(".hdcs"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        newest = newest.max(upto);
    }
    Ok(newest)
}

fn parent(sync: SyncPolicy) -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let dir = std::env::temp_dir().join(format!("hdc-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fsync_arg = match sync {
        SyncPolicy::EveryBatch => "batch",
        SyncPolicy::Never => "never",
    };

    // --- First life: spawn the child and SIGKILL it mid-fit. ---
    let mut victim = Command::new(std::env::current_exe()?)
        .arg("--child")
        .arg(&dir)
        .arg("--fsync")
        .arg(fsync_arg)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = victim.stdout.take().ok_or("child stdout missing")?;
    let mut acked = [0usize; WRITERS];
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        if let Some(rest) = line.strip_prefix("ack ") {
            let writer: usize = rest
                .split_whitespace()
                .next()
                .ok_or("malformed ack line")?
                .parse()?;
            // The acked count doubles as the writer's next index: writer
            // streams are in-order, ack k precedes the submit of k+1.
            acked[writer] += 1;
        }
        if acked.iter().sum::<usize>() >= ACKS_BEFORE_KILL {
            break;
        }
    }
    let total_acked: usize = acked.iter().sum();
    if total_acked < ACKS_BEFORE_KILL {
        return Err(format!("child exited after only {total_acked} acks").into());
    }
    victim.kill()?; // SIGKILL: no drop glue, no shutdown snapshot.
    victim.wait()?;
    println!(
        "killed the shard after {total_acked} acknowledged fits across {WRITERS} writers {acked:?}"
    );
    match newest_snapshot(&dir)? {
        Some(upto) => println!("the newest installed snapshot covers the first {upto} log records"),
        None => println!("no background snapshot was installed before the kill"),
    }

    // --- Second life: recover from the log alone. ---
    let runtime = Runtime::spawn(blank()?, durable(&dir, sync))?;
    let handle = runtime.handle();

    // Item memories acked before the kill are all there, bit-identical.
    let recovered_items = handle.snapshot()?;
    for (key, expected) in item_memories() {
        let found = recovered_items
            .items()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, hv)| hv);
        assert_eq!(found, Some(&expected), "item {key} must survive the kill");
    }

    let probes: Vec<Radians> = (0..96)
        .map(|i| Radians::periodic(i as f64 / 4.0, 24.0))
        .collect();
    let recovered: Vec<usize> = probes
        .iter()
        .map(|hour| Ok::<_, HdcError>(handle.predict("probe", hour)?.label))
        .collect::<Result<_, _>>()?;
    let (_, learner) = runtime.shutdown();
    let retained: Vec<usize> = learner
        .as_classify()
        .ok_or("classification trainer expected")?
        .counts()
        .to_vec();
    for writer in 0..WRITERS {
        assert!(
            retained[writer] >= acked[writer],
            "writer {writer}: log retained {} fits but {} were acknowledged",
            retained[writer],
            acked[writer]
        );
    }

    // The recovered state must equal a model fed exactly the retained
    // per-writer prefixes of the (deterministic) training streams — no
    // more, no less. Feeding them writer-major is fine: the centroid
    // fold is integer-commutative, so the original interleaving of the
    // writers cannot change a single bit.
    let mut reference = blank()?;
    for (writer, &survived) in retained.iter().enumerate() {
        for i in 0..survived {
            let (hour, label) = observation(writer, i);
            reference.fit(&hour, label)?;
        }
    }
    let expected: Vec<usize> = probes.iter().map(|hour| reference.predict(hour)).collect();
    assert_eq!(
        recovered, expected,
        "recovered predictions must be bit-identical to the retained prefixes"
    );

    let total_retained: usize = retained.iter().sum();
    println!(
        "recovered {total_retained} fits ({} unacked tail records also survived)",
        total_retained - total_acked
    );
    println!(
        "bit-identical on all {} probes in {:.2?} (fsync {fsync_arg})",
        probes.len(),
        started.elapsed()
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
