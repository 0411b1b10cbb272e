//! `hdc-cluster` — run one process of a multi-process shard cluster.
//!
//! Two roles:
//!
//! ```text
//! hdc-cluster shard  --listen ADDR --snapshot PATH [--name NAME]
//!                    [--data-dir DIR] [--segment-bytes N] [--snapshot-every N]
//!                    [--fsync always|batch|never] [--page-cache N]
//!                    [--wal-codec raw|adaptive]
//! hdc-cluster router --listen ADDR --shard ADDR [--shard ADDR ...] [--seed N]
//! ```
//!
//! A **shard** process loads a [`Snapshot`] file (spec + trainer state +
//! item memories — see `Model::save`), spawns the serving [`Runtime`] it
//! describes and answers the framed wire protocol on `--listen`. A
//! **router** process connects to the listed shard processes, builds the
//! consistent-hash [`ClusterRouter`] over them (`--seed` must match the
//! value used by any in-process `ShardedModel` you want routing parity
//! with; defaults to 0) and serves the same wire protocol — plus the
//! `shard_join` / `shard_leave` membership opcodes, so fresh shard
//! processes can join warm while the cluster serves.
//!
//! # Durability
//!
//! `--data-dir DIR` turns on the shard's write-ahead log and periodic
//! background snapshotting under `DIR`: every acknowledged fit, insert and
//! remove survives a crash, and the restarted shard recovers
//! bit-identically from its own log — `--snapshot` then only seeds the
//! model spec on the *first* boot; afterwards the store's recovery wins.
//! `--segment-bytes` and `--snapshot-every` tune log rotation and snapshot
//! cadence, `--fsync` picks the flush policy (`batch` by default: acks
//! wait for a group `fdatasync`; the flusher thread retires every commit
//! parked when it wakes with one flush, and never waits on a timer), and
//! `--page-cache N` moves the item memory to the paged file-backed store
//! with at most `N` hypervectors resident. Warm joins still stream the
//! full item set: a live snapshot reads the paged store around its cache.
//!
//! `--wal-codec raw|adaptive` picks the log record codec (`adaptive` by
//! default: per record, the smallest of sparse/delta/run-length against a
//! rolling dictionary, falling back to raw — never more than one byte
//! larger than raw).
//!
//! Typical bring-up, one trained snapshot shared by every shard:
//!
//! ```text
//! hdc-cluster shard  --listen 127.0.0.1:7101 --snapshot model.hdcs --name s0 &
//! hdc-cluster shard  --listen 127.0.0.1:7102 --snapshot model.hdcs --name s1 &
//! hdc-cluster router --listen 127.0.0.1:7100 \
//!     --shard 127.0.0.1:7101 --shard 127.0.0.1:7102 &
//! ```

use std::process::ExitCode;
use std::thread;

use hdc_encode::Radians;
use hdc_serve::{
    ClientConfig, ClusterRouter, ClusterServer, DurabilityConfig, EncSpec, HdcError, Pipeline,
    RemoteShard, RingConfig, Runtime, RuntimeConfig, Server, ShardBackend, Snapshot, SpecInput,
    SyncPolicy, WalCodec,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         hdc-cluster shard  --listen ADDR --snapshot PATH [--name NAME]\n    \
         [--data-dir DIR] [--segment-bytes N] [--snapshot-every N]\n    \
         [--fsync always|batch|never] [--page-cache N] [--wal-codec raw|adaptive]\n  \
         hdc-cluster router --listen ADDR --shard ADDR [--shard ADDR ...] [--seed N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((role, rest)) = args.split_first() else {
        return usage();
    };
    let result = match role.as_str() {
        "shard" => run_shard_command(rest),
        "router" => run_router_command(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(ParseError::Usage) => usage(),
        Err(ParseError::Runtime(message)) => {
            eprintln!("hdc-cluster: {message}");
            ExitCode::FAILURE
        }
    }
}

enum ParseError {
    Usage,
    Runtime(String),
}

impl From<HdcError> for ParseError {
    fn from(error: HdcError) -> Self {
        ParseError::Runtime(error.to_string())
    }
}

impl From<std::io::Error> for ParseError {
    fn from(error: std::io::Error) -> Self {
        ParseError::Runtime(error.to_string())
    }
}

/// Pulls `--flag value` pairs out of `rest`; repeated flags accumulate.
fn flag_values<'a>(rest: &'a [String], flag: &str) -> Result<Vec<&'a str>, ParseError> {
    let mut values = Vec::new();
    let mut arguments = rest.iter();
    while let Some(argument) = arguments.next() {
        if argument == flag {
            match arguments.next() {
                Some(value) => values.push(value.as_str()),
                None => return Err(ParseError::Usage),
            }
        }
    }
    Ok(values)
}

fn one_flag<'a>(rest: &'a [String], flag: &str) -> Result<&'a str, ParseError> {
    let values = flag_values(rest, flag)?;
    match values.as_slice() {
        [value] => Ok(value),
        _ => Err(ParseError::Usage),
    }
}

/// Parses an optional `--flag N` integer, erroring loudly on garbage.
fn numeric_flag(rest: &[String], flag: &str) -> Result<Option<u64>, ParseError> {
    match flag_values(rest, flag)?.as_slice() {
        [] => Ok(None),
        [value] => value
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ParseError::Runtime(format!("invalid {flag} {value:?}"))),
        _ => Err(ParseError::Usage),
    }
}

/// Builds the shard's [`DurabilityConfig`] from the command line; `None`
/// without `--data-dir` (the tuning flags then must not appear).
fn durability_flags(rest: &[String]) -> Result<Option<DurabilityConfig>, ParseError> {
    let dir = match flag_values(rest, "--data-dir")?.as_slice() {
        [] => {
            for flag in [
                "--segment-bytes",
                "--snapshot-every",
                "--fsync",
                "--page-cache",
                "--wal-codec",
            ] {
                if !flag_values(rest, flag)?.is_empty() {
                    return Err(ParseError::Runtime(format!("{flag} requires --data-dir")));
                }
            }
            return Ok(None);
        }
        [dir] => *dir,
        _ => return Err(ParseError::Usage),
    };
    let mut config = DurabilityConfig::new(dir);
    if let Some(bytes) = numeric_flag(rest, "--segment-bytes")? {
        config.segment_bytes = bytes;
    }
    if let Some(every) = numeric_flag(rest, "--snapshot-every")? {
        config.snapshot_every = every;
    }
    if let Some(budget) = numeric_flag(rest, "--page-cache")? {
        config.page_cache = Some(budget as usize);
    }
    config.sync = match flag_values(rest, "--fsync")?.as_slice() {
        [] | ["batch"] => SyncPolicy::EveryBatch,
        ["always"] => SyncPolicy::Always,
        ["never"] => SyncPolicy::Never,
        [value] => {
            return Err(ParseError::Runtime(format!(
                "invalid --fsync {value:?}; expected always, batch or never"
            )))
        }
        _ => return Err(ParseError::Usage),
    };
    config.codec = match flag_values(rest, "--wal-codec")?.as_slice() {
        [] | ["adaptive"] => WalCodec::Adaptive,
        ["raw"] => WalCodec::Raw,
        [value] => {
            return Err(ParseError::Runtime(format!(
                "invalid --wal-codec {value:?}; expected raw or adaptive"
            )))
        }
        _ => return Err(ParseError::Usage),
    };
    Ok(Some(config))
}

fn run_shard_command(rest: &[String]) -> Result<(), ParseError> {
    let listen = one_flag(rest, "--listen")?;
    let path = one_flag(rest, "--snapshot")?;
    let name = flag_values(rest, "--name")?.first().copied().unwrap_or("");
    let durability = durability_flags(rest)?;
    let snapshot = Snapshot::read(path)?;
    // The snapshot's spec names the encoder input type; dispatch to the
    // matching monomorphization of the runtime.
    match snapshot.spec().encoder {
        EncSpec::Scalar { .. } => serve_shard::<f64>(&snapshot, listen, name, durability),
        EncSpec::Angle => serve_shard::<Radians>(&snapshot, listen, name, durability),
        EncSpec::Categorical { .. } => serve_shard::<usize>(&snapshot, listen, name, durability),
        EncSpec::Sequence { .. } => serve_shard::<[usize]>(&snapshot, listen, name, durability),
        EncSpec::Record { .. } => serve_shard::<[f64]>(&snapshot, listen, name, durability),
    }
}

fn serve_shard<X>(
    snapshot: &Snapshot,
    listen: &str,
    name: &str,
    durability: Option<DurabilityConfig>,
) -> Result<(), ParseError>
where
    X: ?Sized + SpecInput + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    let model = Pipeline::from_snapshot::<X>(snapshot)?;
    let config = RuntimeConfig {
        name: name.to_owned(),
        durability,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::spawn(model, config)?;
    let server = Server::spawn(listen, runtime.handle())?;
    println!(
        "hdc-cluster shard {name:?} serving dim={} keys={} on {}",
        snapshot.spec().dim,
        snapshot.items().len(),
        server.local_addr()
    );
    park_forever();
}

fn run_router_command(rest: &[String]) -> Result<(), ParseError> {
    let listen = one_flag(rest, "--listen")?;
    let shard_addrs = flag_values(rest, "--shard")?;
    if shard_addrs.is_empty() {
        return Err(ParseError::Usage);
    }
    let seed = match flag_values(rest, "--seed")?.as_slice() {
        [] => 0,
        [value] => value
            .parse::<u64>()
            .map_err(|_| ParseError::Runtime(format!("invalid --seed {value:?}")))?,
        _ => return Err(ParseError::Usage),
    };
    let clients = ClientConfig::default();
    let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(shard_addrs.len());
    for addr in &shard_addrs {
        backends.push(Box::new(RemoteShard::connect_with(addr, clients)?));
    }
    let router = ClusterRouter::new(backends, RingConfig::default(), seed)?;
    let server = ClusterServer::spawn(listen, router, clients)?;
    println!(
        "hdc-cluster router over {} shard(s) on {}",
        shard_addrs.len(),
        server.local_addr()
    );
    park_forever();
}

fn park_forever() -> ! {
    loop {
        thread::park();
    }
}
