//! The framed-TCP service front-end: a [`Server`] that accepts connections
//! and drives a shared [`RuntimeHandle`], plus the small [`BlockingClient`]
//! speaking the same [`wire`](crate::wire) protocol.
//!
//! Each connection gets its own handler thread, but every handler feeds the
//! *same* ingestion queue — so predictions from concurrent clients coalesce
//! into shared micro-batches, which is the whole point of the runtime
//! layer. The server adds no protocol state of its own: one request frame
//! in, one response frame out, in order, per connection.
//!
//! ```no_run
//! use hdc_serve::{BlockingClient, Enc, Pipeline, Runtime, RuntimeConfig, Server};
//!
//! let model = Pipeline::builder(4_096).encoder(Enc::angle()).build()?;
//! let runtime = Runtime::spawn(model, RuntimeConfig::default())?;
//! let server = Server::spawn("127.0.0.1:0", runtime.handle()).expect("bind");
//! let mut client = BlockingClient::connect(server.local_addr()).expect("connect");
//! let stats = client.stats().expect("stats");
//! assert_eq!(stats.dim, 4_096);
//! server.shutdown();
//! runtime.shutdown();
//! # Ok::<(), hdc_serve::HdcError>(())
//! ```

use std::io::{self, BufReader, BufWriter};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use std::time::Duration;

use hdc_core::{BinaryHypervector, HdcError};

use crate::runtime::{RuntimeHandle, RuntimeStats};
use crate::snapshot::Snapshot;
use crate::task::{Answers, Prediction, Target, ValuePrediction};
use crate::wire::{self, Request, Response};

/// A running TCP front-end over one serving runtime.
///
/// Dropping the server (or calling [`shutdown`](Self::shutdown)) stops the
/// accept loop and closes every connection; the runtime itself keeps
/// running until its own `shutdown`.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// connections, each served by its own thread against a clone of
    /// `handle`.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` if the address cannot be bound.
    pub fn spawn<X>(addr: impl ToSocketAddrs, handle: RuntimeHandle<X>) -> io::Result<Self>
    where
        X: ?Sized + ToOwned + Sync + 'static,
        X::Owned: Send + 'static,
    {
        let listener = Listener::spawn(addr, "hdc-serve", move || {
            let handle = handle.clone();
            move |request| answer(&handle, request)
        })?;
        Ok(Self { listener })
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting, closes every live connection and joins the
    /// server's threads.
    pub fn shutdown(mut self) {
        self.listener.stop_and_join();
    }
}

/// The accept side both front-ends share: an accept thread that gives
/// every connection its own handler thread and answerer, and the
/// stop-and-join choreography that ends them.
#[derive(Debug)]
pub(crate) struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and serves each connection with a fresh `answerer()`,
    /// on threads named `{name}-accept` and `{name}-conn`.
    pub(crate) fn spawn<A>(
        addr: impl ToSocketAddrs,
        name: &str,
        answerer: impl Fn() -> A + Send + 'static,
    ) -> io::Result<Self>
    where
        A: FnMut(Request) -> Response + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let conn_name = format!("{name}-conn");
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &stop, &conn_name, &answerer))
                .expect("spawning the accept thread")
        };
        Ok(Self {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every live connection and joins the
    /// threads. Idempotent.
    pub(crate) fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag. An unspecified bind address
        // (0.0.0.0 / ::) is not itself connectable everywhere, so aim the
        // wake-up at the loopback of the same family and port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<A>(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    conn_name: &str,
    answerer: &impl Fn() -> A,
) where
    A: FnMut(Request) -> Response + Send + 'static,
{
    let mut connections: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap connections whose handler already returned, so a
        // long-running server does not accumulate one fd + JoinHandle per
        // short-lived client.
        connections.retain(|(_, worker)| !worker.is_finished());
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let answer = answerer();
        let worker = thread::Builder::new()
            .name(conn_name.to_owned())
            .spawn(move || {
                let _ = serve_connection(stream, answer);
            })
            .expect("spawning a connection thread");
        connections.push((clone, worker));
    }
    // Unblock every in-flight reader, then join the handlers.
    for (stream, _) in &connections {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, worker) in connections {
        let _ = worker.join();
    }
}

/// One request frame in, one response frame out, in order. A whole frame
/// that does not decode is answered with [`Response::Error`] and the
/// connection carries on; a broken stream is answered and closed.
fn serve_connection(
    stream: TcpStream,
    mut answer: impl FnMut(Request) -> Response,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    loop {
        let response = match wire::read_request(&mut reader) {
            Ok(Some(request)) => answer(request),
            Ok(None) => return Ok(()),
            Err(error) if wire::is_refused(&error) => Response::Error {
                message: error.to_string(),
            },
            Err(error) if error.kind() == io::ErrorKind::InvalidData => {
                // The stream position is lost; answer and hang up.
                let _ = wire::write_response(
                    &mut writer,
                    &Response::Error {
                        message: error.to_string(),
                    },
                );
                let _ = stream.shutdown(Shutdown::Both);
                return Err(error);
            }
            Err(error) => return Err(error),
        };
        wire::write_response(&mut writer, &response)?;
    }
}

/// The in-band answer to a request that failed: the connection survives.
pub(crate) fn fail(error: HdcError) -> Response {
    Response::Error {
        message: error.to_string(),
    }
}

/// Maps one decoded request onto the runtime handle. Every runtime error
/// becomes a [`Response::Error`] — the connection survives bad requests.
fn answer<X>(handle: &RuntimeHandle<X>, request: Request) -> Response
where
    X: ?Sized + ToOwned + Sync + 'static,
    X::Owned: Send + 'static,
{
    match request {
        Request::PredictBatch { pairs } => {
            handle.answer_encoded(pairs).map_or_else(fail, Into::into)
        }
        Request::Fit { hv, target } => handle
            .observe_encoded(hv, target)
            .map_or_else(fail, |()| Response::FitAck),
        Request::Insert { key, hv } => handle
            .insert(key, hv)
            .map_or_else(fail, |replaced| Response::Inserted { replaced }),
        Request::Remove { key } => handle
            .remove(key)
            .map_or_else(fail, |removed| Response::Removed { removed }),
        Request::Refresh => handle
            .refresh()
            .map_or_else(fail, |generation| Response::Refreshed { generation }),
        Request::Stats => handle.stats().map_or_else(fail, Response::Stats),
        Request::Snapshot => handle.snapshot().map_or_else(fail, |snapshot| {
            let bytes = snapshot.to_bytes();
            if bytes.len() > wire::MAX_SNAPSHOT_BYTES {
                // An unencodable frame would kill the connection and
                // leave the client staring at an EOF; answer with the
                // reason instead.
                Response::Error {
                    message: format!(
                        "snapshot of {} bytes exceeds the {}-byte frame cap; \
                         the shard state is too large to stream in one frame",
                        bytes.len(),
                        wire::MAX_FRAME_BYTES,
                    ),
                }
            } else {
                Response::Snapshot { bytes }
            }
        }),
        Request::Restore { snapshot } => Snapshot::from_bytes(&snapshot)
            .and_then(|snapshot| handle.restore(snapshot))
            .map_or_else(fail, |generation| Response::Restored { generation }),
        // Cluster membership is a router decision: a shard runtime cannot
        // rewire the ring its peers route by, so these ops are answered
        // only by a cluster front-end (see `ClusterServer`).
        Request::ShardJoin { .. } | Request::ShardLeave { .. } => Response::Error {
            message: "shard join/leave is answered by a cluster router, not a shard runtime".into(),
        },
        // The health probe never touches the dispatcher queue: liveness,
        // generation and uptime are read straight off the handle's shared
        // state, so a load balancer can poll at any rate without
        // perturbing micro-batching — but a dead dispatcher (shutdown or
        // panic) answers unhealthy, never a stale Pong.
        Request::Ping => {
            if handle.is_alive() {
                Response::Pong {
                    generation: handle.generation().id(),
                    uptime_us: handle.uptime().as_micros() as u64,
                }
            } else {
                fail(HdcError::ServiceUnavailable)
            }
        }
    }
}

/// Deadlines and connect-retry policy of a [`BlockingClient`] — so a
/// router (or a test) never hangs on a dead shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt connection deadline.
    pub connect_timeout: Duration,
    /// Deadline for each response read (`None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Deadline for each request write (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Extra connection attempts after the first failure.
    pub connect_retries: u32,
    /// Sleep before the first retry; doubles per subsequent attempt.
    pub retry_backoff: Duration,
    /// Ceiling on the doubled backoff — with many retries configured the
    /// schedule plateaus here instead of growing without bound.
    pub max_backoff: Duration,
}

impl Default for ClientConfig {
    /// 2 s to connect (3 retries, 25 ms doubling backoff capped at 1 s),
    /// 10 s per read and write — generous enough for loaded CI machines,
    /// bounded enough that a dead shard is reported instead of hanging
    /// the caller.
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            connect_retries: 3,
            retry_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl ClientConfig {
    /// The sleep before retry `attempt` (1-based): `retry_backoff`
    /// doubled per attempt, capped at [`max_backoff`](Self::max_backoff),
    /// then jittered into the upper half of that window —
    /// `[capped/2, capped]` — by a deterministic hash of `(seed,
    /// attempt)`.
    ///
    /// Deterministic jitter keeps the schedule reproducible (and
    /// unit-testable) for a fixed seed while still decorrelating a fleet
    /// of clients that reconnect to the same revived shard at once:
    /// [`BlockingClient::connect_with`] seeds with the process id, so
    /// every process walks a different — but stable — schedule.
    #[must_use]
    pub fn backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        // 2^(attempt-1), shift-bounded so huge retry counts saturate
        // instead of overflowing; the cap below makes the value moot
        // long before 2^30.
        let exponent = attempt.saturating_sub(1).min(30);
        let doubled = self.retry_backoff.saturating_mul(1u32 << exponent);
        let capped = doubled.min(self.max_backoff);
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        if nanos == 0 {
            return Duration::ZERO;
        }
        let half = nanos / 2;
        let jitter = splitmix64(seed ^ (u64::from(attempt) << 32)) % (nanos - half + 1);
        Duration::from_nanos(half + jitter)
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed stateless hash for the
/// backoff jitter (no `rand` dependency on the connect path).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A minimal synchronous client of the framed protocol: one request in
/// flight at a time, blocking until the response frame arrives (bounded by
/// the [`ClientConfig`] deadlines).
#[derive(Debug)]
pub struct BlockingClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl BlockingClient {
    /// Connects to a running [`Server`] with the default [`ClientConfig`]
    /// (bounded timeouts and connect retries).
    ///
    /// # Errors
    ///
    /// Returns `io::Error` if the connection cannot be established within
    /// the configured attempts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines and retry policy: each attempt
    /// tries every resolved address under `connect_timeout`, failed
    /// attempts sleep per [`ClientConfig::backoff_delay`] (doubling from
    /// `retry_backoff`, capped at `max_backoff`, jittered per process),
    /// and the established stream carries the read/write deadlines.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's `io::Error` once `1 + connect_retries`
    /// attempts have failed (`TimedOut` if the deadline expired).
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let seed = u64::from(std::process::id());
        let mut last_error = None;
        for attempt in 0..=config.connect_retries {
            if attempt > 0 {
                thread::sleep(config.backoff_delay(attempt, seed));
            }
            match Self::try_connect(&addr, &config) {
                Ok(client) => return Ok(client),
                Err(error) => last_error = Some(error),
            }
        }
        Err(last_error
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved")))
    }

    fn try_connect(addr: &impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Self> {
        let mut last_error = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(Self {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: BufWriter::new(stream),
                    });
                }
                Err(error) => last_error = Some(error),
            }
        }
        Err(last_error
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved")))
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        wire::write_request(&mut self.writer, request)?;
        match wire::read_response(&mut self.reader)? {
            Some(Response::Error { message }) => Err(io::Error::other(message)),
            Some(response) => Ok(response),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    fn unexpected(response: &Response) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response {response:?}"),
        )
    }

    /// The one predict path: `pairs` answered in order, with labels or
    /// values as the serving head decides.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn answer(&mut self, pairs: Vec<(String, BinaryHypervector)>) -> io::Result<Answers> {
        Answers::try_from(self.call(&Request::PredictBatch { pairs })?)
            .map_err(|other| Self::unexpected(&other))
    }

    /// Predicts one keyed, encoded query's label (a one-row
    /// [`answer`](Self::answer)).
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure, a server-side error or a
    /// regression server's answer.
    pub fn predict(&mut self, key: &str, hv: &BinaryHypervector) -> io::Result<Prediction> {
        single(
            self.answer(vec![(key.to_owned(), hv.clone())])?
                .into_labels(),
        )
    }

    /// Predicts a batch of keyed, encoded queries' labels, in order.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure, a server-side error or a
    /// regression server's answer.
    pub fn predict_batch(
        &mut self,
        pairs: Vec<(String, BinaryHypervector)>,
    ) -> io::Result<Vec<Prediction>> {
        typed(self.answer(pairs)?.into_labels())
    }

    /// Predicts one keyed, encoded query's real-valued label.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure, a server-side error or a
    /// classification server's answer.
    pub fn predict_value(
        &mut self,
        key: &str,
        hv: &BinaryHypervector,
    ) -> io::Result<ValuePrediction> {
        single(
            self.answer(vec![(key.to_owned(), hv.clone())])?
                .into_values(),
        )
    }

    /// Stores an encoded hypervector under `key`; `true` if an entry was
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn insert(&mut self, key: &str, hv: &BinaryHypervector) -> io::Result<bool> {
        match self.call(&Request::Insert {
            key: key.to_owned(),
            hv: hv.clone(),
        })? {
            Response::Inserted { replaced } => Ok(replaced),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Removes a stored entry; `true` if the key was stored.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn remove(&mut self, key: &str) -> io::Result<bool> {
        match self.call(&Request::Remove {
            key: key.to_owned(),
        })? {
            Response::Removed { removed } => Ok(removed),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Enqueues one encoded training observation with its target.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error
    /// (including the other task's target).
    pub fn observe(&mut self, hv: &BinaryHypervector, target: Target) -> io::Result<()> {
        match self.call(&Request::Fit {
            hv: hv.clone(),
            target,
        })? {
            Response::FitAck => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Enqueues one encoded `(query, label)` observation.
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn fit(&mut self, hv: &BinaryHypervector, label: usize) -> io::Result<()> {
        self.observe(hv, Target::Label(label))
    }

    /// Enqueues one encoded `(query, value)` observation.
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn fit_value(&mut self, hv: &BinaryHypervector, value: f64) -> io::Result<()> {
        self.observe(hv, Target::Value(value))
    }

    /// Forces a new class-vector generation, returning its id.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn refresh(&mut self) -> io::Result<u64> {
        match self.call(&Request::Refresh)? {
            Response::Refreshed { generation } => Ok(generation),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Snapshots the runtime's statistics.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn stats(&mut self) -> io::Result<RuntimeStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Probes liveness without issuing a prediction: returns
    /// `(generation, uptime_us)` straight from the connection handler —
    /// nothing enters the dispatcher queue, so load balancers can poll
    /// this at any rate.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure, or a server-side error
    /// once the runtime behind the server has shut down (or its
    /// dispatcher died) — the unhealthy signal the probe exists for.
    pub fn ping(&mut self) -> io::Result<(u64, u64)> {
        match self.call(&Request::Ping)? {
            Response::Pong {
                generation,
                uptime_us,
            } => Ok((generation, uptime_us)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Streams the serving process's full state as a [`Snapshot`] — the
    /// donor half of a warm shard join.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure, a server-side error or an
    /// undecodable snapshot stream.
    pub fn snapshot(&mut self) -> io::Result<Snapshot> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot { bytes } => Snapshot::from_bytes(&bytes)
                .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string())),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Streams a [`Snapshot`] into the serving process (trainer state
    /// adopted, items merged), returning the id of the generation
    /// published from it — the receiving half of a warm shard join.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error
    /// (including a spec mismatch).
    pub fn restore(&mut self, snapshot: &Snapshot) -> io::Result<u64> {
        match self.call(&Request::Restore {
            snapshot: snapshot.to_bytes(),
        })? {
            Response::Restored { generation } => Ok(generation),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks a cluster router to warm-join the shard process at `addr`,
    /// returning `(assigned id, items moved onto it)`. Shard runtimes
    /// refuse this op.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn shard_join(&mut self, addr: &str) -> io::Result<(usize, u64)> {
        match self.call(&Request::ShardJoin {
            addr: addr.to_owned(),
        })? {
            Response::ShardJoined { id, moved } => Ok((id as usize, moved)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks a cluster router to drain and drop shard `id`, returning
    /// `(removed, items re-inserted through the ring)`.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` on transport failure or a server-side error.
    pub fn shard_leave(&mut self, id: usize) -> io::Result<(bool, u64)> {
        match self.call(&Request::ShardLeave {
            id: u32::try_from(id)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "id exceeds u32"))?,
        })? {
            Response::ShardLeft { removed, drained } => Ok((removed, drained)),
            other => Err(Self::unexpected(&other)),
        }
    }
}

/// A typed client form's view of the answers: the other task's answer is
/// a task-mismatch error.
fn typed<T>(answers: Result<T, HdcError>) -> io::Result<T> {
    answers.map_err(|error| io::Error::other(error.to_string()))
}

/// The one answer of a one-row predict.
fn single<T>(answers: Result<Vec<T>, HdcError>) -> io::Result<T> {
    typed(answers)?.pop().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "empty answer to a one-row predict",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Basis, Enc, Pipeline, Runtime, RuntimeConfig};
    use hdc_encode::Radians;

    #[test]
    fn loopback_smoke_predict_insert_stats() {
        let mut model = Pipeline::builder(256)
            .seed(2)
            .classes(2)
            .basis(Basis::Circular { m: 24, r: 0.0 })
            .encoder(Enc::angle())
            .build()
            .unwrap();
        let hours: Vec<Radians> = (0..24)
            .map(|h| Radians::periodic(f64::from(h), 24.0))
            .collect();
        let labels: Vec<usize> = (0..24).map(|h| usize::from(h >= 12)).collect();
        model.fit_batch(&hours, &labels).unwrap();
        let queries: Vec<BinaryHypervector> = hours.iter().map(|h| model.encode(h)).collect();
        let expected: Vec<usize> = hours.iter().map(|h| model.predict(h)).collect();

        let runtime = Runtime::spawn(model, RuntimeConfig::default()).unwrap();
        let server = Server::spawn("127.0.0.1:0", runtime.handle()).unwrap();
        let mut client = BlockingClient::connect(server.local_addr()).unwrap();

        for (query, &label) in queries.iter().zip(&expected) {
            assert_eq!(client.predict("station", query).unwrap().label, label);
        }
        assert!(!client.insert("station", &queries[0]).unwrap());
        assert!(client.insert("station", &queries[1]).unwrap());
        assert!(client.remove("station").unwrap());
        assert!(!client.remove("station").unwrap());
        // A bad request gets an error response; the connection survives.
        let narrow = BinaryHypervector::zeros(64);
        assert!(client.predict("station", &narrow).is_err());
        let stats = client.stats().unwrap();
        assert_eq!(stats.dim, 256);
        assert_eq!(stats.metrics.requests, 24);

        // The health probe answers while the runtime lives…
        let (generation, uptime_us) = client.ping().unwrap();
        assert_eq!(generation, 0);
        assert!(uptime_us > 0);
        // …and turns unhealthy the moment the runtime is gone, even though
        // the server (and its Arc'd generation/uptime state) is still up —
        // a load balancer must never keep a dead backend in rotation.
        runtime.shutdown();
        assert!(client.ping().is_err(), "ping must fail after shutdown");
        server.shutdown();
    }

    #[test]
    fn backoff_schedule_doubles_caps_and_jitters_deterministically() {
        let config = ClientConfig {
            retry_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            for attempt in 1u32..=64 {
                let uncapped = Duration::from_millis(25)
                    .saturating_mul(1u32 << attempt.saturating_sub(1).min(30));
                let window = uncapped.min(config.max_backoff);
                let delay = config.backoff_delay(attempt, seed);
                // Jitter lands in the upper half of the capped window…
                assert!(delay <= window, "attempt {attempt}: {delay:?} > {window:?}");
                assert!(
                    delay >= window / 2,
                    "attempt {attempt}: {delay:?} < {:?}",
                    window / 2
                );
                // …and is a pure function of (config, attempt, seed).
                assert_eq!(delay, config.backoff_delay(attempt, seed));
            }
        }
        // From attempt 4 on (25 → 50 → 100 → 200) the cap holds the
        // window flat: every later delay stays within [100ms, 200ms].
        for attempt in 4u32..=1000 {
            let delay = config.backoff_delay(attempt, 3);
            assert!(delay >= Duration::from_millis(100) && delay <= Duration::from_millis(200));
        }
        // Different seeds decorrelate: across a few attempts at least one
        // delay must differ between two processes.
        let schedules: Vec<Vec<Duration>> = [11u64, 22]
            .iter()
            .map(|&seed| (1..=6).map(|a| config.backoff_delay(a, seed)).collect())
            .collect();
        assert_ne!(schedules[0], schedules[1], "jitter must depend on the seed");
        // Degenerate configs stay sane.
        let zero = ClientConfig {
            retry_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..ClientConfig::default()
        };
        assert_eq!(zero.backoff_delay(1, 9), Duration::ZERO);
    }
}
