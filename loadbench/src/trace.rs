//! In-memory spans of the traced run, written out when the run ends.
//!
//! A sampled request's live call is a root span; each replay of its
//! payload at a lower layer's public entry point is a child span naming
//! its parent. Replays run after the live call on an idle path, so a
//! child's duration is a lower bound on that layer's cost in place, and
//! queueing lands in the parent's self time.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span this one replays a part of (`None` for a live call).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `runtime.predict`.
    pub name: &'static str,
    /// The sampled request the span belongs to.
    pub request: u64,
    /// Start, in microseconds since the run's epoch.
    pub start_us: f64,
    /// End, in microseconds since the run's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids start at `id_base` (disjoint per thread).
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Self {
            epoch,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_us: at(start),
            end_us: at(end),
        });
        id
    }

    /// Runs `f` as a span and returns its result with the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, request, start, Instant::now());
        (out, id)
    }
}

/// Every span of a run, indexed for the per-layer arithmetic.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans, from every thread.
    pub spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl Trace {
    /// Merges the spans of several recorders.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push(i);
            }
        }
        Self { spans, children }
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time (µs) of every span named `name`: its duration minus its
    /// children's. Children named in `concurrent` ran in parallel in the
    /// live call (a concurrent fan-out), so only the longest of them is
    /// subtracted; the others are summed.
    pub fn self_times(&self, name: &str, concurrent: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = self.children.get(&s.id).map_or(&[][..], Vec::as_slice);
                let mut serial = 0.0;
                let mut parallel: f64 = 0.0;
                for &k in kids {
                    let kid = &self.spans[k];
                    if concurrent.contains(&kid.name) {
                        parallel = parallel.max(kid.us());
                    } else {
                        serial += kid.us();
                    }
                }
                s.us() - serial - parallel
            })
            .collect()
    }

    /// Number of children named `child` per span named `name`.
    pub fn child_counts(&self, name: &str, child: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                self.children.get(&s.id).map_or(0, |kids| {
                    kids.iter()
                        .filter(|&&k| self.spans[k].name == child)
                        .count()
                }) as f64
            })
            .collect()
    }

    /// The spans as JSON lines: id, parent, name, request, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, parent, s.name, s.request, s.start_us, s.end_us
            );
        }
        out
    }
}
