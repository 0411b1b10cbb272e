//! `hdc-cluster` — run one process of a multi-process shard cluster.
//!
//! Two roles:
//!
//! ```text
//! hdc-cluster shard  --listen ADDR --snapshot PATH [--name NAME]
//!                    [--data-dir DIR] [--segment-bytes N] [--snapshot-every N]
//!                    [--fsync batch|never] [--page-cache N]
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
//! cadence, and `--page-cache N` moves the item memory to the paged
//! file-backed store with at most `N` hypervectors resident. Warm joins
//! still stream the full item set: a live snapshot reads the paged store
//! around its cache.
//!
//! `--fsync` picks the flush policy. Under `batch` (the default), every
//! fit, insert and remove is acknowledged after one group `fdatasync`
//! covers its log record: the flusher thread retires every commit parked
//! when it wakes with one flush, and never waits on a timer. With
//! `--page-cache`, the paged item files are also fsynced before an insert
//! or a remove is acknowledged. `never` acknowledges without syncing (the
//! page cache decides).
//!
//! Log records are compressed per record: the smallest of
//! sparse/delta/run-length against a rolling dictionary, falling back to
//! raw — never more than one byte larger than raw.
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
    SyncPolicy,
};

const USAGE: &str = "usage:\n  \
     hdc-cluster shard  --listen ADDR --snapshot PATH [--name NAME]\n    \
     [--data-dir DIR] [--segment-bytes N] [--snapshot-every N]\n    \
     [--fsync batch|never] [--page-cache N]\n  \
     hdc-cluster router --listen ADDR --shard ADDR [--shard ADDR ...] [--seed N]\n\
     --fsync: batch (default) acks after one group fdatasync, and fsyncs\n  \
     the paged item files first; never acks without syncing";

/// The flags a shard accepts, each followed by one value.
const SHARD_FLAGS: &[&str] = &[
    "--listen",
    "--snapshot",
    "--name",
    "--data-dir",
    "--segment-bytes",
    "--snapshot-every",
    "--fsync",
    "--page-cache",
];

/// The flags a router accepts, each followed by one value.
const ROUTER_FLAGS: &[&str] = &["--listen", "--shard", "--seed"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((role, rest)) if role == "shard" => shard_args(rest).and_then(run_shard),
        Some((role, rest)) if role == "router" => router_args(rest).and_then(run_router),
        Some((role, _)) => Err(ParseError::Usage(format!("unknown role {role:?}"))),
        None => Err(ParseError::Usage("missing role".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(ParseError::Usage(reason)) => {
            eprintln!("hdc-cluster: {reason}\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(ParseError::Runtime(message)) => {
            eprintln!("hdc-cluster: {message}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug)]
enum ParseError {
    /// A command line the role does not accept; the reason names the
    /// offending argument.
    Usage(String),
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

/// A role's command line as `--flag value` pairs, every flag one the role
/// accepts (repeats are kept, in order).
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Splits `rest` into pairs, refusing any argument that is not one of
    /// `known` followed by its value.
    fn parse(rest: &'a [String], known: &[&str]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut arguments = rest.iter();
        while let Some(flag) = arguments.next() {
            if !known.contains(&flag.as_str()) {
                return Err(ParseError::Usage(format!("unexpected argument {flag:?}")));
            }
            let Some(value) = arguments.next() else {
                return Err(ParseError::Usage(format!("{flag} needs a value")));
            };
            pairs.push((flag.as_str(), value.as_str()));
        }
        Ok(Self(pairs))
    }

    /// Every value given for `flag`, in order.
    fn all(&self, flag: &str) -> Vec<&'a str> {
        self.0
            .iter()
            .filter(|(name, _)| *name == flag)
            .map(|(_, value)| *value)
            .collect()
    }

    /// The value of a flag given at most once.
    fn optional(&self, flag: &str) -> Result<Option<&'a str>, ParseError> {
        match self.all(flag).as_slice() {
            [] => Ok(None),
            [value] => Ok(Some(value)),
            _ => Err(ParseError::Usage(format!("{flag} given more than once"))),
        }
    }

    /// The value of a flag that must be given exactly once.
    fn required(&self, flag: &str) -> Result<&'a str, ParseError> {
        self.optional(flag)?
            .ok_or_else(|| ParseError::Usage(format!("missing {flag}")))
    }

    /// An optional `--flag N` integer, erroring loudly on garbage.
    fn number(&self, flag: &str) -> Result<Option<u64>, ParseError> {
        self.optional(flag)?
            .map(|value| {
                value
                    .parse::<u64>()
                    .map_err(|_| ParseError::Runtime(format!("invalid {flag} {value:?}")))
            })
            .transpose()
    }
}

/// A parsed `shard` command line.
#[derive(Debug)]
struct ShardArgs<'a> {
    listen: &'a str,
    snapshot: &'a str,
    name: &'a str,
    durability: Option<DurabilityConfig>,
}

fn shard_args(rest: &[String]) -> Result<ShardArgs<'_>, ParseError> {
    let flags = Flags::parse(rest, SHARD_FLAGS)?;
    Ok(ShardArgs {
        listen: flags.required("--listen")?,
        snapshot: flags.required("--snapshot")?,
        name: flags.optional("--name")?.unwrap_or(""),
        durability: durability_flags(&flags)?,
    })
}

/// Builds the shard's [`DurabilityConfig`] from the command line; `None`
/// without `--data-dir` (the tuning flags then must not appear).
fn durability_flags(flags: &Flags<'_>) -> Result<Option<DurabilityConfig>, ParseError> {
    let Some(dir) = flags.optional("--data-dir")? else {
        for flag in [
            "--segment-bytes",
            "--snapshot-every",
            "--fsync",
            "--page-cache",
        ] {
            if !flags.all(flag).is_empty() {
                return Err(ParseError::Runtime(format!("{flag} requires --data-dir")));
            }
        }
        return Ok(None);
    };
    let mut config = DurabilityConfig::new(dir);
    if let Some(bytes) = flags.number("--segment-bytes")? {
        config.segment_bytes = bytes;
    }
    if let Some(every) = flags.number("--snapshot-every")? {
        config.snapshot_every = every;
    }
    if let Some(budget) = flags.number("--page-cache")? {
        config.page_cache = Some(budget as usize);
    }
    config.sync = match flags.optional("--fsync")? {
        None | Some("batch") => SyncPolicy::EveryBatch,
        Some("never") => SyncPolicy::Never,
        Some(value) => {
            return Err(ParseError::Usage(format!(
                "invalid --fsync {value:?}; expected batch or never"
            )))
        }
    };
    Ok(Some(config))
}

fn run_shard(args: ShardArgs<'_>) -> Result<(), ParseError> {
    let ShardArgs {
        listen,
        snapshot,
        name,
        durability,
    } = args;
    let snapshot = Snapshot::read(snapshot)?;
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

/// A parsed `router` command line.
#[derive(Debug)]
struct RouterArgs<'a> {
    listen: &'a str,
    shards: Vec<&'a str>,
    seed: u64,
}

fn router_args(rest: &[String]) -> Result<RouterArgs<'_>, ParseError> {
    let flags = Flags::parse(rest, ROUTER_FLAGS)?;
    let shards = flags.all("--shard");
    if shards.is_empty() {
        return Err(ParseError::Usage("missing --shard".into()));
    }
    Ok(RouterArgs {
        listen: flags.required("--listen")?,
        shards,
        seed: flags.number("--seed")?.unwrap_or(0),
    })
}

fn run_router(args: RouterArgs<'_>) -> Result<(), ParseError> {
    let clients = ClientConfig::default();
    let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(args.shards.len());
    for addr in &args.shards {
        backends.push(Box::new(RemoteShard::connect_with(addr, clients)?));
    }
    let router = ClusterRouter::new(backends, RingConfig::default(), args.seed)?;
    let server = ClusterServer::spawn(args.listen, router, clients)?;
    println!(
        "hdc-cluster router over {} shard(s) on {}",
        args.shards.len(),
        server.local_addr()
    );
    park_forever();
}

fn park_forever() -> ! {
    loop {
        thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn refused(result: Result<impl std::fmt::Debug, ParseError>, argument: &str) {
        match result {
            Err(ParseError::Usage(reason)) => {
                assert!(reason.contains(argument), "{reason:?} names {argument:?}");
            }
            other => panic!("expected a usage error naming {argument:?}, got {other:?}"),
        }
    }

    #[test]
    fn misspelt_flags_and_stray_arguments_are_refused() {
        let typo = argv("--listen 127.0.0.1:0 --snapshot m.hdcs --data-dir d --fsnc always");
        refused(shard_args(&typo), "--fsnc");
        let stray = argv("--listen 127.0.0.1:0 --snapshot m.hdcs extra");
        refused(shard_args(&stray), "extra");
        let stray = argv("stray --listen 127.0.0.1:0 --shard 127.0.0.1:1");
        refused(router_args(&stray), "stray");
        // A flag of the other role is unknown to this one.
        let foreign = argv("--listen 127.0.0.1:0 --shard 127.0.0.1:1 --fsync always");
        refused(router_args(&foreign), "--fsync");
        let dangling = argv("--listen 127.0.0.1:0 --snapshot m.hdcs --name");
        refused(shard_args(&dangling), "--name");
        // Settings that no longer exist are refused, not ignored.
        let removed = argv("--listen 127.0.0.1:0 --snapshot m.hdcs --data-dir d --fsync always");
        refused(shard_args(&removed), "--fsync \"always\"");
        let removed =
            argv("--listen 127.0.0.1:0 --snapshot m.hdcs --data-dir d --wal-codec adaptive");
        refused(shard_args(&removed), "--wal-codec");
    }

    #[test]
    fn every_documented_flag_parses() {
        let line = argv(
            "--listen 127.0.0.1:7101 --snapshot m.hdcs --name s0 --data-dir d \
             --segment-bytes 4096 --snapshot-every 64 --fsync never --page-cache 8",
        );
        let args = shard_args(&line).expect("every shard flag parses");
        assert_eq!(
            (args.listen, args.snapshot, args.name),
            ("127.0.0.1:7101", "m.hdcs", "s0")
        );
        let durability = args.durability.expect("--data-dir turns durability on");
        assert_eq!(durability.segment_bytes, 4096);
        assert_eq!(durability.snapshot_every, 64);
        assert_eq!(durability.sync, SyncPolicy::Never);
        assert_eq!(durability.page_cache, Some(8));
        for (line, policy) in [
            ("--data-dir d --fsync batch", SyncPolicy::EveryBatch),
            ("--data-dir d", SyncPolicy::EveryBatch),
        ] {
            let line = argv(&format!("--listen a --snapshot m {line}"));
            let durability = shard_args(&line)
                .expect("parses")
                .durability
                .expect("durable");
            assert_eq!(durability.sync, policy);
        }
        let line = argv("--listen 127.0.0.1:7100 --shard a:1 --shard b:2 --seed 7");
        let args = router_args(&line).expect("every router flag parses");
        assert_eq!(
            (args.listen, args.shards, args.seed),
            ("127.0.0.1:7100", vec!["a:1", "b:2"], 7)
        );
        // Tuning flags still need --data-dir.
        let line = argv("--listen a --snapshot m --fsync never");
        assert!(matches!(shard_args(&line), Err(ParseError::Runtime(_))));
    }
}
