//! Process facts read from `/proc/self`: CPU time per named thread, the
//! whole process's CPU time and peak resident set, plus the provenance
//! facts a result records (filesystem type, git revision).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture the repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// The serving stack's thread names as `comm` reports them (cut to 15
/// bytes), grouped into the layers the benchmark reports. A thread whose
/// name starts with none of these lands in `process.other_cpu_s`.
pub const THREAD_GROUPS: &[(&str, &str)] = &[
    ("hdc-serve-dispa", "runtime.dispatch"),
    ("hdc-serve-train", "runtime.train"),
    ("hdc-serve-conn", "server.conn"),
    ("hdc-serve-accep", "server.conn"),
    ("hdc-wal-flush", "store.flush"),
    ("hdc-serve-snap", "store.snap"),
    ("hdc-cluster-con", "cluster.conn"),
    ("hdc-cluster-acc", "cluster.conn"),
    ("lb-gen", "generator"),
];

/// CPU seconds of one thread, from `/proc/<tid>/schedstat` (nanoseconds on
/// CPU) — finer than the 10 ms ticks of `stat`.
fn thread_cpu_s(task: &Path) -> Option<f64> {
    let text = fs::read_to_string(task.join("schedstat")).ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// CPU seconds of the calling thread.
pub fn own_thread_cpu_s() -> f64 {
    thread_cpu_s(Path::new("/proc/thread-self")).unwrap_or(0.0)
}

/// A point-in-time reading of every live thread's CPU time, keyed by
/// thread id, plus the process total (which also counts exited threads).
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    threads: BTreeMap<u64, (String, f64)>,
    process_s: f64,
}

impl CpuSample {
    /// Reads `/proc/self/task/*` and `/proc/self/stat`.
    pub fn now() -> Self {
        let mut threads = BTreeMap::new();
        if let Ok(entries) = fs::read_dir("/proc/self/task") {
            for entry in entries.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = entry.path();
                let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
                if let Some(cpu) = thread_cpu_s(&path) {
                    threads.insert(tid, (comm.trim().to_string(), cpu));
                }
            }
        }
        Self {
            threads,
            process_s: process_cpu_s(),
        }
    }

    /// CPU seconds spent between `earlier` and `self`, per layer group of
    /// [`THREAD_GROUPS`], plus `"process"` (every thread, exited ones
    /// included) and `"other"` (process minus every named group). Threads
    /// born in between count from zero. Threads in `shadow` (the traced
    /// run's replay targets) belong to no group, so their CPU lands in
    /// `"other"`.
    pub fn since(
        &self,
        earlier: &CpuSample,
        shadow: &BTreeSet<u64>,
    ) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (_, group) in THREAD_GROUPS {
            out.insert(group, 0.0);
        }
        let mut named = 0.0;
        for (tid, (comm, cpu)) in &self.threads {
            if shadow.contains(tid) {
                continue;
            }
            let before = earlier
                .threads
                .get(tid)
                .filter(|(c, _)| c == comm)
                .map_or(0.0, |(_, cpu)| *cpu);
            let delta = (cpu - before).max(0.0);
            if let Some((_, group)) = THREAD_GROUPS.iter().find(|(p, _)| comm.starts_with(p)) {
                *out.entry(group).or_default() += delta;
                named += delta;
            }
        }
        let process = (self.process_s - earlier.process_s).max(0.0);
        out.insert("process", process);
        out.insert("other", (process - named).max(0.0));
        out
    }
}

/// Ids of the process's live threads.
pub fn thread_ids() -> BTreeSet<u64> {
    fs::read_dir("/proc/self/task")
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().to_str().and_then(|s| s.parse().ok()))
                .collect()
        })
        .unwrap_or_default()
}

/// User plus system CPU seconds of the whole process.
fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = fs::canonicalize(path) else {
        return "unknown".into();
    };
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run in a plain copy of the tree, which has none.
pub fn git_revision() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    let packed = fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(str::trim))
        .map_or_else(|| "unknown".into(), str::to_string)
}

/// The CPUs this process may run on, as `nproc` counts them (the
/// `Cpus_allowed_list` of `/proc/self/status`).
pub fn nproc() -> usize {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    list.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0),
            None => 1,
        })
        .sum()
}
