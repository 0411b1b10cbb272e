//! The framed wire protocol of the serving front-end: length-prefixed
//! frames carrying versioned, op-coded request/response messages over any
//! `Read`/`Write` transport (in practice a `TcpStream`).
//!
//! # Framing
//!
//! Every message is one frame. All integers are big-endian.
//!
//! ```text
//! frame    := u32 length, payload[length]
//! payload  := u8 version (=4), u8 opcode, body
//! string   := u16 length, utf8 bytes
//! bytes    := u32 length, raw bytes
//! hv       := u32 dim, u64 words[dim.div_ceil(64)]   (packed LSB-first)
//! ```
//!
//! Requests and responses share the framing; opcodes are listed in
//! [`Request`] and [`Response`]. Oversized frames (> [`MAX_FRAME_BYTES`]),
//! unknown versions/opcodes and malformed bodies decode to
//! `io::ErrorKind::InvalidData` — a server answers those with
//! [`Response::Error`] rather than dying. A frame is always read whole
//! before its version and opcode are checked, so after a refused frame
//! the stream is still at a frame boundary and the connection carries on;
//! only a broken length prefix or an end-of-stream mid-frame ends it.
//!
//! Protocol version 2 (PR 5) added the regression operations
//! (`predict_value`/`fit_value`), the `ping` health probe, and the
//! `uptime_us` field in `stats`.
//!
//! Protocol version 3 (PR 6) adds the shard-cluster surface: the batched
//! regression predict (`predict_value_batch`), the shard-lifecycle
//! operations (`snapshot`/`restore` streaming the
//! [`Snapshot`](crate::Snapshot) codec over the wire so a fresh shard
//! process joins warm, `shard_join`/`shard_leave` answered by a cluster
//! router), and the shard-identity section (`name`, `ring_positions`) in
//! `stats`. Snapshot streams ride a single frame, so a shard's state must
//! fit [`MAX_SNAPSHOT_BYTES`]; a server whose state has outgrown the cap
//! answers `snapshot` with an explanatory [`Response::Error`] instead of
//! an unencodable frame (which would drop the connection and leave the
//! client staring at an EOF).
//!
//! Protocol version 4 has one predict operation and one fit operation for
//! both task families. A predict request carries only keyed rows
//! ([`Request::PredictBatch`]; a single-row predict is a one-row batch),
//! and the serving head decides the answer: [`Response::Labels`] from a
//! classifier, [`Response::Values`] from a regressor. A fit
//! ([`Request::Fit`]) carries its [`Target`], tagged label or value. The
//! v3 twins are retired and their numbers are not reused: requests 1
//! (`predict`), 10 (`predict_value`), 11 (`fit_value`) and 13
//! (`predict_value_batch`), responses 1 (`label`) and 10 (`value`).
//! Frames of any other version, v3 included, are refused.

use std::fmt;
use std::io::{self, Read, Write};

use hdc_core::BinaryHypervector;
use hdc_store::codec::{
    invalid, put_bytes, put_f64, put_hv, put_string, put_u16, put_u32, put_u64, Cursor,
};

use crate::metrics::MetricsSnapshot;
use crate::runtime::RuntimeStats;
use crate::task::{Answers, Prediction, Target, ValuePrediction};

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound on one frame's payload (16 MiB): a 256-row batch of
/// 100k-bit queries is ~3 MiB, so real traffic sits far below while a
/// corrupt length prefix cannot trigger a giant allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Largest [`Snapshot`](crate::Snapshot) byte stream that fits one
/// `snapshot`/`restore` frame: the frame's length covers the version and
/// opcode bytes, and the stream rides behind a u32 byte-length prefix.
/// Servers check against this before encoding a snapshot reply, so an
/// oversized shard state surfaces as a [`Response::Error`] rather than a
/// dropped connection.
pub const MAX_SNAPSHOT_BYTES: usize = MAX_FRAME_BYTES - 6;

// --- opcodes -----------------------------------------------------------
//
// Every opcode is a named constant used by BOTH codec directions (the
// `write_*` encoder and the `read_*` decoder match) and pinned by
// `tests/wire_roundtrip.rs`. The `wire-opcode-exhaustive` lint in
// `hdc-analyze` enforces all three references, so adding an opcode here
// without a decoder arm or a round-trip test fails the analyze gate.

/// Request opcode: [`Request::PredictBatch`].
pub const OP_PREDICT_BATCH: u8 = 2;
/// Request opcode: [`Request::Insert`].
pub const OP_INSERT: u8 = 3;
/// Request opcode: [`Request::Remove`].
pub const OP_REMOVE: u8 = 4;
/// Request opcode: [`Request::Fit`].
pub const OP_FIT: u8 = 5;
/// Request opcode: [`Request::Refresh`].
pub const OP_REFRESH: u8 = 6;
/// Request opcode: [`Request::AddShard`].
pub const OP_ADD_SHARD: u8 = 7;
/// Request opcode: [`Request::RemoveShard`].
pub const OP_REMOVE_SHARD: u8 = 8;
/// Request opcode: [`Request::Stats`].
pub const OP_STATS: u8 = 9;
/// Request opcode: [`Request::Ping`].
pub const OP_PING: u8 = 12;
/// Request opcode: [`Request::Snapshot`].
pub const OP_SNAPSHOT: u8 = 14;
/// Request opcode: [`Request::Restore`].
pub const OP_RESTORE: u8 = 15;
/// Request opcode: [`Request::ShardJoin`].
pub const OP_SHARD_JOIN: u8 = 16;
/// Request opcode: [`Request::ShardLeave`].
pub const OP_SHARD_LEAVE: u8 = 17;

/// Response opcode: [`Response::Labels`].
pub const RESP_LABELS: u8 = 2;
/// Response opcode: [`Response::Inserted`].
pub const RESP_INSERTED: u8 = 3;
/// Response opcode: [`Response::Removed`].
pub const RESP_REMOVED: u8 = 4;
/// Response opcode: [`Response::FitAck`].
pub const RESP_FIT_ACK: u8 = 5;
/// Response opcode: [`Response::Refreshed`].
pub const RESP_REFRESHED: u8 = 6;
/// Response opcode: [`Response::ShardAdded`].
pub const RESP_SHARD_ADDED: u8 = 7;
/// Response opcode: [`Response::ShardRemoved`].
pub const RESP_SHARD_REMOVED: u8 = 8;
/// Response opcode: [`Response::Stats`].
pub const RESP_STATS: u8 = 9;
/// Response opcode: [`Response::Pong`].
pub const RESP_PONG: u8 = 12;
/// Response opcode: [`Response::Values`].
pub const RESP_VALUES: u8 = 13;
/// Response opcode: [`Response::Snapshot`].
pub const RESP_SNAPSHOT: u8 = 14;
/// Response opcode: [`Response::Restored`].
pub const RESP_RESTORED: u8 = 15;
/// Response opcode: [`Response::ShardJoined`].
pub const RESP_SHARD_JOINED: u8 = 16;
/// Response opcode: [`Response::ShardLeft`].
pub const RESP_SHARD_LEFT: u8 = 17;
/// Response opcode: [`Response::Error`].
pub const RESP_ERROR: u8 = 255;

/// Fit-target tag of a class label (`u32` on the wire).
const TARGET_LABEL: u8 = 0;
/// Fit-target tag of a real value (`f64` on the wire).
const TARGET_VALUE: u8 = 1;

/// A client → server operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict a batch of keyed, encoded queries (opcode 2), answered by
    /// [`Response::Labels`] on a classifier and [`Response::Values`] on a
    /// regressor.
    PredictBatch {
        /// `(routing key, encoded query)` pairs, answered in order.
        pairs: Vec<(String, BinaryHypervector)>,
    },
    /// Store an encoded hypervector under a key (opcode 3).
    Insert {
        /// Storage key.
        key: String,
        /// Entry to store.
        hv: BinaryHypervector,
    },
    /// Remove a stored entry (opcode 4).
    Remove {
        /// Storage key.
        key: String,
    },
    /// Fold one encoded training observation into the online trainer
    /// (opcode 5). Body: `u8` tag, then a `u32` label (tag 0) or an `f64`
    /// value (tag 1), then the hypervector.
    Fit {
        /// Encoded observation.
        hv: BinaryHypervector,
        /// What it teaches: a class label or a real value.
        target: Target,
    },
    /// Force-publish a new generation (opcode 6).
    Refresh,
    /// Add a shard to the fleet (opcode 7).
    AddShard,
    /// Remove a shard from the fleet (opcode 8).
    RemoveShard {
        /// Shard id to remove.
        id: u32,
    },
    /// Snapshot runtime statistics (opcode 9).
    Stats,
    /// Liveness/health probe (opcode 12): answered directly by the
    /// connection handler — no prediction is issued and nothing enters the
    /// dispatcher queue, so load balancers can poll it at any rate.
    Ping,
    /// Stream the serving process's full state — spec, trainer
    /// accumulators, item memories — as [`Snapshot`](crate::Snapshot)
    /// bytes (opcode 14). A cluster router issues this against a donor
    /// shard to warm-join a fresh one.
    Snapshot,
    /// Adopt a streamed [`Snapshot`](crate::Snapshot) into the live
    /// runtime (opcode 15): trainer accumulators replace the online
    /// trainer's and items merge into the fleet — the receiving half of a
    /// warm shard join.
    Restore {
        /// The snapshot's canonical byte encoding.
        snapshot: Vec<u8>,
    },
    /// Ask a cluster router to warm-join the shard process listening at
    /// `addr` (opcode 16). Shard runtimes refuse this op — membership is
    /// the router's job.
    ShardJoin {
        /// Address of the new shard process (`host:port`).
        addr: String,
    },
    /// Ask a cluster router to drain and drop shard `id` (opcode 17): its
    /// items are re-inserted through the ring before it is removed.
    ShardLeave {
        /// Cluster-assigned shard id to remove.
        id: u32,
    },
}

/// A server → client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A classifier's answer to [`Request::PredictBatch`] (opcode 2):
    /// per-query `(label, generation)` in request order.
    Labels {
        /// One `(label, generation)` per query, in order.
        predictions: Vec<(u32, u64)>,
    },
    /// Answer to [`Request::Insert`] (opcode 3).
    Inserted {
        /// `true` if a previous entry was replaced.
        replaced: bool,
    },
    /// Answer to [`Request::Remove`] (opcode 4).
    Removed {
        /// `true` if the key was stored.
        removed: bool,
    },
    /// Answer to [`Request::Fit`] (opcode 5): the observation is enqueued
    /// (and, on a durable runtime, flushed).
    FitAck,
    /// Answer to [`Request::Refresh`] (opcode 6).
    Refreshed {
        /// Id of the newly published generation.
        generation: u64,
    },
    /// Answer to [`Request::AddShard`] (opcode 7).
    ShardAdded {
        /// Id of the new shard.
        id: u32,
    },
    /// Answer to [`Request::RemoveShard`] (opcode 8).
    ShardRemoved {
        /// `false` for an unknown id or the last shard.
        removed: bool,
    },
    /// Answer to [`Request::Stats`] (opcode 9).
    Stats(RuntimeStats),
    /// Answer to [`Request::Ping`] (opcode 12).
    Pong {
        /// Currently published generation.
        generation: u64,
        /// Microseconds since the runtime spawned.
        uptime_us: u64,
    },
    /// A regressor's answer to [`Request::PredictBatch`] (opcode 13):
    /// per-query `(value, generation)` in request order.
    Values {
        /// One `(value, generation)` per query, in order.
        predictions: Vec<(f64, u64)>,
    },
    /// Answer to [`Request::Snapshot`] (opcode 14).
    Snapshot {
        /// The [`Snapshot`](crate::Snapshot) canonical byte encoding.
        bytes: Vec<u8>,
    },
    /// Answer to [`Request::Restore`] (opcode 15).
    Restored {
        /// Id of the generation published from the adopted state.
        generation: u64,
    },
    /// Answer to [`Request::ShardJoin`] (opcode 16).
    ShardJoined {
        /// Cluster-assigned id of the new shard.
        id: u32,
        /// Item-memory entries streamed onto the new shard.
        moved: u64,
    },
    /// Answer to [`Request::ShardLeave`] (opcode 17).
    ShardLeft {
        /// `false` for an unknown id or the last shard.
        removed: bool,
        /// Item-memory entries re-inserted through the ring.
        drained: u64,
    },
    /// Any request the server could not serve (opcode 255).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl From<Answers> for Response {
    fn from(answers: Answers) -> Self {
        match answers {
            Answers::Labels(predictions) => Response::Labels {
                predictions: predictions
                    .into_iter()
                    .map(|p| (p.label as u32, p.generation))
                    .collect(),
            },
            Answers::Values(predictions) => Response::Values {
                predictions: predictions
                    .into_iter()
                    .map(|p| (p.value, p.generation))
                    .collect(),
            },
        }
    }
}

impl TryFrom<Response> for Answers {
    type Error = Response;

    /// The answers a `Labels` or `Values` response carries; any other
    /// response is handed back.
    fn try_from(response: Response) -> Result<Self, Response> {
        match response {
            Response::Labels { predictions } => Ok(Answers::Labels(
                predictions
                    .into_iter()
                    .map(|(label, generation)| Prediction {
                        label: label as usize,
                        generation,
                    })
                    .collect(),
            )),
            Response::Values { predictions } => Ok(Answers::Values(
                predictions
                    .into_iter()
                    .map(|(value, generation)| ValuePrediction { value, generation })
                    .collect(),
            )),
            other => Err(other),
        }
    }
}

// --- framing -----------------------------------------------------------

fn write_frame(writer: &mut impl Write, opcode: u8, body: &[u8]) -> io::Result<()> {
    let length = u32::try_from(body.len() + 2).map_err(|_| invalid("frame too large"))?;
    if length as usize > MAX_FRAME_BYTES {
        return Err(invalid("frame too large"));
    }
    let mut frame = Vec::with_capacity(4 + 2 + body.len());
    frame.extend_from_slice(&length.to_be_bytes());
    frame.push(PROTOCOL_VERSION);
    frame.push(opcode);
    frame.extend_from_slice(body);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one whole frame, returning `(version, opcode, body)` — or `None`
/// on a clean end-of-stream at a frame boundary (the peer hung up between
/// messages). The version is checked by the caller, after the frame has
/// been read, so a refused frame leaves the stream at a frame boundary.
fn read_frame(reader: &mut impl Read) -> io::Result<Option<(u8, u8, Vec<u8>)>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(invalid("connection closed mid-frame")),
            n => filled += n,
        }
    }
    let length = u32::from_be_bytes(header) as usize;
    if length < 2 {
        return Err(invalid("frame shorter than its version and opcode"));
    }
    if length > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {length} bytes exceeds the cap")));
    }
    // Version and opcode are consumed separately so the body lands in its
    // final buffer directly (no shift of a multi-megabyte frame).
    let mut meta = [0u8; 2];
    reader.read_exact(&mut meta)?;
    let mut body = vec![0u8; length - 2];
    reader.read_exact(&mut body)?;
    Ok(Some((meta[0], meta[1], body)))
}

fn check_version(version: u8) -> io::Result<()> {
    if version != PROTOCOL_VERSION {
        return Err(invalid(format!("unsupported protocol version {version}")));
    }
    Ok(())
}

// --- requests ----------------------------------------------------------

/// Writes one request as a frame.
///
/// # Errors
///
/// Returns `io::Error` on transport failure or an unencodable message
/// (key over 64 KiB, frame over [`MAX_FRAME_BYTES`]).
pub fn write_request(writer: &mut impl Write, request: &Request) -> io::Result<()> {
    let mut body = Vec::new();
    let opcode = match request {
        Request::PredictBatch { pairs } => {
            let n = u16::try_from(pairs.len())
                .map_err(|_| invalid("batch exceeds the u16 row limit"))?;
            put_u16(&mut body, n);
            for (key, hv) in pairs {
                put_string(&mut body, key)?;
                put_hv(&mut body, hv)?;
            }
            OP_PREDICT_BATCH
        }
        Request::Insert { key, hv } => {
            put_string(&mut body, key)?;
            put_hv(&mut body, hv)?;
            OP_INSERT
        }
        Request::Remove { key } => {
            put_string(&mut body, key)?;
            OP_REMOVE
        }
        Request::Fit { hv, target } => {
            match *target {
                Target::Label(label) => {
                    body.push(TARGET_LABEL);
                    put_u32(
                        &mut body,
                        u32::try_from(label).map_err(|_| invalid("label exceeds u32"))?,
                    );
                }
                Target::Value(value) => {
                    body.push(TARGET_VALUE);
                    put_f64(&mut body, value);
                }
            }
            put_hv(&mut body, hv)?;
            OP_FIT
        }
        Request::Refresh => OP_REFRESH,
        Request::AddShard => OP_ADD_SHARD,
        Request::RemoveShard { id } => {
            put_u32(&mut body, *id);
            OP_REMOVE_SHARD
        }
        Request::Stats => OP_STATS,
        Request::Ping => OP_PING,
        Request::Snapshot => OP_SNAPSHOT,
        Request::Restore { snapshot } => {
            put_bytes(&mut body, snapshot)?;
            OP_RESTORE
        }
        Request::ShardJoin { addr } => {
            put_string(&mut body, addr)?;
            OP_SHARD_JOIN
        }
        Request::ShardLeave { id } => {
            put_u32(&mut body, *id);
            OP_SHARD_LEAVE
        }
    };
    write_frame(writer, opcode, &body)
}

/// Reads one request frame; `Ok(None)` means the peer closed the
/// connection cleanly between frames.
///
/// # Errors
///
/// Returns `io::Error` on transport failure or a malformed frame. A frame
/// that was read whole but does not decode (another protocol version, an
/// unknown or retired opcode, a malformed body) leaves the stream at a
/// frame boundary, so the connection can carry on.
pub fn read_request(reader: &mut impl Read) -> io::Result<Option<Request>> {
    let Some((version, opcode, body)) = read_frame(reader)? else {
        return Ok(None);
    };
    let decode = || -> io::Result<Request> {
        check_version(version)?;
        let mut cursor = Cursor::new(&body);
        let request = match opcode {
            OP_PREDICT_BATCH => {
                let n = cursor.u16()? as usize;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((cursor.string()?, cursor.hv()?));
                }
                Request::PredictBatch { pairs }
            }
            OP_INSERT => Request::Insert {
                key: cursor.string()?,
                hv: cursor.hv()?,
            },
            OP_REMOVE => Request::Remove {
                key: cursor.string()?,
            },
            OP_FIT => {
                let target = match cursor.u8()? {
                    TARGET_LABEL => Target::Label(cursor.u32()? as usize),
                    TARGET_VALUE => Target::Value(cursor.f64()?),
                    tag => return Err(invalid(format!("unknown fit target tag {tag}"))),
                };
                Request::Fit {
                    hv: cursor.hv()?,
                    target,
                }
            }
            OP_REFRESH => Request::Refresh,
            OP_ADD_SHARD => Request::AddShard,
            OP_REMOVE_SHARD => Request::RemoveShard { id: cursor.u32()? },
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SNAPSHOT => Request::Snapshot,
            OP_RESTORE => Request::Restore {
                snapshot: cursor.bytes()?,
            },
            OP_SHARD_JOIN => Request::ShardJoin {
                addr: cursor.string()?,
            },
            OP_SHARD_LEAVE => Request::ShardLeave { id: cursor.u32()? },
            other => return Err(invalid(format!("unknown request opcode {other}"))),
        };
        cursor.finish()?;
        Ok(request)
    };
    decode()
        .map(Some)
        .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, Refused(error)))
}

/// The error of a request frame that was read whole but refused.
#[derive(Debug)]
struct Refused(io::Error);

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for Refused {}

/// `true` when [`read_request`] refused one whole frame: the stream is
/// still at a frame boundary, so a server answers with
/// [`Response::Error`] and keeps the connection.
pub(crate) fn is_refused(error: &io::Error) -> bool {
    error.get_ref().is_some_and(|inner| inner.is::<Refused>())
}

// --- responses ---------------------------------------------------------

/// Writes one response as a frame.
///
/// # Errors
///
/// Returns `io::Error` on transport failure or an unencodable message.
pub fn write_response(writer: &mut impl Write, response: &Response) -> io::Result<()> {
    let mut body = Vec::new();
    let opcode = match response {
        Response::Labels { predictions } => {
            let n = u16::try_from(predictions.len())
                .map_err(|_| invalid("batch exceeds the u16 row limit"))?;
            put_u16(&mut body, n);
            for (label, generation) in predictions {
                put_u32(&mut body, *label);
                put_u64(&mut body, *generation);
            }
            RESP_LABELS
        }
        Response::Inserted { replaced } => {
            body.push(u8::from(*replaced));
            RESP_INSERTED
        }
        Response::Removed { removed } => {
            body.push(u8::from(*removed));
            RESP_REMOVED
        }
        Response::FitAck => RESP_FIT_ACK,
        Response::Refreshed { generation } => {
            put_u64(&mut body, *generation);
            RESP_REFRESHED
        }
        Response::ShardAdded { id } => {
            put_u32(&mut body, *id);
            RESP_SHARD_ADDED
        }
        Response::ShardRemoved { removed } => {
            body.push(u8::from(*removed));
            RESP_SHARD_REMOVED
        }
        Response::Stats(stats) => {
            put_stats(&mut body, stats)?;
            RESP_STATS
        }
        Response::Pong {
            generation,
            uptime_us,
        } => {
            put_u64(&mut body, *generation);
            put_u64(&mut body, *uptime_us);
            RESP_PONG
        }
        Response::Values { predictions } => {
            let n = u16::try_from(predictions.len())
                .map_err(|_| invalid("batch exceeds the u16 row limit"))?;
            put_u16(&mut body, n);
            for (value, generation) in predictions {
                put_f64(&mut body, *value);
                put_u64(&mut body, *generation);
            }
            RESP_VALUES
        }
        Response::Snapshot { bytes } => {
            put_bytes(&mut body, bytes)?;
            RESP_SNAPSHOT
        }
        Response::Restored { generation } => {
            put_u64(&mut body, *generation);
            RESP_RESTORED
        }
        Response::ShardJoined { id, moved } => {
            put_u32(&mut body, *id);
            put_u64(&mut body, *moved);
            RESP_SHARD_JOINED
        }
        Response::ShardLeft { removed, drained } => {
            body.push(u8::from(*removed));
            put_u64(&mut body, *drained);
            RESP_SHARD_LEFT
        }
        Response::Error { message } => {
            // Truncation keeps the byte length well under put_string's
            // u16 limit even for 4-byte code points.
            let truncated: String = message.chars().take(512).collect();
            put_string(&mut body, &truncated)?;
            RESP_ERROR
        }
    };
    write_frame(writer, opcode, &body)
}

/// Reads one response frame; `Ok(None)` means the server closed the
/// connection cleanly between frames.
///
/// # Errors
///
/// Returns `io::Error` on transport failure or a malformed frame.
pub fn read_response(reader: &mut impl Read) -> io::Result<Option<Response>> {
    let Some((version, opcode, body)) = read_frame(reader)? else {
        return Ok(None);
    };
    check_version(version)?;
    let mut cursor = Cursor::new(&body);
    let response = match opcode {
        RESP_LABELS => {
            let n = cursor.u16()? as usize;
            let mut predictions = Vec::with_capacity(n);
            for _ in 0..n {
                predictions.push((cursor.u32()?, cursor.u64()?));
            }
            Response::Labels { predictions }
        }
        RESP_INSERTED => Response::Inserted {
            replaced: cursor.u8()? != 0,
        },
        RESP_REMOVED => Response::Removed {
            removed: cursor.u8()? != 0,
        },
        RESP_FIT_ACK => Response::FitAck,
        RESP_REFRESHED => Response::Refreshed {
            generation: cursor.u64()?,
        },
        RESP_SHARD_ADDED => Response::ShardAdded { id: cursor.u32()? },
        RESP_SHARD_REMOVED => Response::ShardRemoved {
            removed: cursor.u8()? != 0,
        },
        RESP_STATS => Response::Stats(read_stats(&mut cursor)?),
        RESP_PONG => Response::Pong {
            generation: cursor.u64()?,
            uptime_us: cursor.u64()?,
        },
        RESP_VALUES => {
            let n = cursor.u16()? as usize;
            let mut predictions = Vec::with_capacity(n);
            for _ in 0..n {
                predictions.push((cursor.f64()?, cursor.u64()?));
            }
            Response::Values { predictions }
        }
        RESP_SNAPSHOT => Response::Snapshot {
            bytes: cursor.bytes()?,
        },
        RESP_RESTORED => Response::Restored {
            generation: cursor.u64()?,
        },
        RESP_SHARD_JOINED => Response::ShardJoined {
            id: cursor.u32()?,
            moved: cursor.u64()?,
        },
        RESP_SHARD_LEFT => Response::ShardLeft {
            removed: cursor.u8()? != 0,
            drained: cursor.u64()?,
        },
        RESP_ERROR => {
            let len = cursor.u16()? as usize;
            Response::Error {
                message: String::from_utf8_lossy(cursor.take(len)?).into_owned(),
            }
        }
        other => return Err(invalid(format!("unknown response opcode {other}"))),
    };
    cursor.finish()?;
    Ok(Some(response))
}

fn put_stats(body: &mut Vec<u8>, stats: &RuntimeStats) -> io::Result<()> {
    put_u64(body, stats.generation);
    put_u64(body, stats.uptime_us);
    // Shard identity (v3): configured name + ring position count.
    put_string(body, &stats.name)?;
    put_u64(body, stats.ring_positions);
    put_u64(body, stats.dim);
    put_u64(body, stats.classes);
    let shards =
        u16::try_from(stats.shard_loads.len()).map_err(|_| invalid("shard count exceeds u16"))?;
    put_u16(body, shards);
    for (id, len) in &stats.shard_loads {
        put_u64(body, *id);
        put_u64(body, *len);
    }
    put_u64(body, stats.keys);
    match stats.last_remap_fraction {
        Some(fraction) => {
            body.push(1);
            put_f64(body, fraction);
        }
        None => body.push(0),
    }
    let metrics = &stats.metrics;
    put_u64(body, metrics.queue_depth);
    put_u64(body, metrics.requests);
    put_u64(body, metrics.batches);
    put_u64(body, metrics.inserts);
    put_u64(body, metrics.removes);
    put_u64(body, metrics.fits);
    put_f64(body, metrics.mean_batch_size);
    let bins = u16::try_from(metrics.batch_sizes.len())
        .map_err(|_| invalid("histogram bin count exceeds u16"))?;
    put_u16(body, bins);
    for count in &metrics.batch_sizes {
        put_u64(body, *count);
    }
    put_f64(body, metrics.latency_us_p50);
    put_f64(body, metrics.latency_us_p95);
    put_f64(body, metrics.latency_us_p99);
    Ok(())
}

fn read_stats(cursor: &mut Cursor<'_>) -> io::Result<RuntimeStats> {
    let generation = cursor.u64()?;
    let uptime_us = cursor.u64()?;
    let name = cursor.string()?;
    let ring_positions = cursor.u64()?;
    let dim = cursor.u64()?;
    let classes = cursor.u64()?;
    let shards = cursor.u16()? as usize;
    let mut shard_loads = Vec::with_capacity(shards);
    for _ in 0..shards {
        shard_loads.push((cursor.u64()?, cursor.u64()?));
    }
    let keys = cursor.u64()?;
    let last_remap_fraction = match cursor.u8()? {
        0 => None,
        _ => Some(cursor.f64()?),
    };
    let queue_depth = cursor.u64()?;
    let requests = cursor.u64()?;
    let batches = cursor.u64()?;
    let inserts = cursor.u64()?;
    let removes = cursor.u64()?;
    let fits = cursor.u64()?;
    let mean_batch_size = cursor.f64()?;
    let bins = cursor.u16()? as usize;
    let mut batch_sizes = Vec::with_capacity(bins);
    for _ in 0..bins {
        batch_sizes.push(cursor.u64()?);
    }
    Ok(RuntimeStats {
        generation,
        uptime_us,
        name,
        ring_positions,
        dim,
        classes,
        shard_loads,
        keys,
        last_remap_fraction,
        metrics: MetricsSnapshot {
            queue_depth,
            requests,
            batches,
            inserts,
            removes,
            fits,
            mean_batch_size,
            batch_sizes,
            latency_us_p50: cursor.f64()?,
            latency_us_p95: cursor.f64()?,
            latency_us_p99: cursor.f64()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn hv(dim: usize, seed: u64) -> BinaryHypervector {
        let mut rng = StdRng::seed_from_u64(seed);
        BinaryHypervector::random(dim, &mut rng)
    }

    fn round_trip_request(request: Request) {
        let mut buffer = Vec::new();
        write_request(&mut buffer, &request).unwrap();
        let decoded = read_request(&mut buffer.as_slice()).unwrap().unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let mut buffer = Vec::new();
        write_response(&mut buffer, &response).unwrap();
        let decoded = read_response(&mut buffer.as_slice()).unwrap().unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::PredictBatch {
            pairs: (0..5).map(|i| (format!("k{i}"), hv(64, i))).collect(),
        });
        round_trip_request(Request::PredictBatch { pairs: Vec::new() });
        round_trip_request(Request::Insert {
            key: String::new(),
            hv: hv(65, 9),
        });
        round_trip_request(Request::Remove {
            key: "κλειδί".into(),
        });
        round_trip_request(Request::Fit {
            hv: hv(1, 2),
            target: Target::Label(3),
        });
        round_trip_request(Request::Fit {
            hv: hv(129, 5),
            target: Target::Value(-12.75),
        });
        round_trip_request(Request::Refresh);
        round_trip_request(Request::AddShard);
        round_trip_request(Request::RemoveShard { id: 7 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Ping);
        round_trip_request(Request::Snapshot);
        round_trip_request(Request::Restore {
            snapshot: vec![0x48, 0x44, 0x43, 0x53, 0xFF],
        });
        round_trip_request(Request::Restore {
            snapshot: Vec::new(),
        });
        round_trip_request(Request::ShardJoin {
            addr: "127.0.0.1:7117".into(),
        });
        round_trip_request(Request::ShardLeave { id: 2 });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Labels {
            predictions: vec![(0, 1), (3, 1), (2, 2)],
        });
        round_trip_response(Response::Inserted { replaced: true });
        round_trip_response(Response::Removed { removed: false });
        round_trip_response(Response::FitAck);
        round_trip_response(Response::Refreshed { generation: 17 });
        round_trip_response(Response::ShardAdded { id: 5 });
        round_trip_response(Response::ShardRemoved { removed: true });
        round_trip_response(Response::Pong {
            generation: 12,
            uptime_us: 9_876_543,
        });
        round_trip_response(Response::Values {
            predictions: vec![(0.5, 1), (-3.25, 1), (12.0, 2)],
        });
        round_trip_response(Response::Snapshot {
            bytes: vec![0x48, 0x44, 0x43, 0x53, 0x00, 0x01],
        });
        round_trip_response(Response::Restored { generation: 4 });
        round_trip_response(Response::ShardJoined { id: 3, moved: 17 });
        round_trip_response(Response::ShardLeft {
            removed: true,
            drained: 9,
        });
        round_trip_response(Response::Error {
            message: "dimension mismatch: expected 512, found 64".into(),
        });
        round_trip_response(Response::Stats(RuntimeStats {
            generation: 3,
            uptime_us: 120_000,
            name: "shard-1".into(),
            ring_positions: 128,
            dim: 512,
            classes: 4,
            shard_loads: vec![(0, 10), (1, 0), (5, 3)],
            keys: 13,
            last_remap_fraction: Some(0.25),
            metrics: MetricsSnapshot {
                queue_depth: 2,
                requests: 100,
                batches: 9,
                inserts: 13,
                removes: 1,
                fits: 40,
                mean_batch_size: 100.0 / 9.0,
                batch_sizes: vec![1, 0, 8],
                latency_us_p50: 120.0,
                latency_us_p95: 400.0,
                latency_us_p99: 900.0,
            },
        }));
        round_trip_response(Response::Stats(RuntimeStats {
            generation: 0,
            uptime_us: 0,
            name: String::new(),
            ring_positions: 0,
            dim: 64,
            classes: 2,
            shard_loads: Vec::new(),
            keys: 0,
            last_remap_fraction: None,
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
        }));
    }

    #[test]
    fn multiple_frames_stream_in_order() {
        let mut buffer = Vec::new();
        write_request(&mut buffer, &Request::Stats).unwrap();
        write_request(&mut buffer, &Request::Remove { key: "x".into() }).unwrap();
        let mut reader = buffer.as_slice();
        assert_eq!(read_request(&mut reader).unwrap(), Some(Request::Stats));
        assert_eq!(
            read_request(&mut reader).unwrap(),
            Some(Request::Remove { key: "x".into() })
        );
        assert_eq!(read_request(&mut reader).unwrap(), None, "clean EOF");
    }

    #[test]
    fn malformed_frames_are_rejected_not_trusted() {
        // Truncated mid-frame.
        let mut buffer = Vec::new();
        write_request(
            &mut buffer,
            &Request::PredictBatch {
                pairs: vec![("k".into(), hv(128, 3))],
            },
        )
        .unwrap();
        buffer.truncate(buffer.len() - 1);
        assert!(read_request(&mut buffer.as_slice()).is_err());

        // Oversized length prefix.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut framed = huge.to_vec();
        framed.extend_from_slice(&[PROTOCOL_VERSION, 1]);
        assert!(read_request(&mut framed.as_slice()).is_err());

        // Wrong version (the old v1 framing is refused, not misread).
        let mut wrong = vec![0, 0, 0, 2, 1, OP_PING];
        assert!(read_request(&mut wrong.as_slice()).is_err());
        wrong[4] = PROTOCOL_VERSION;
        wrong[5] = 200; // unknown opcode
        assert!(read_request(&mut wrong.as_slice()).is_err());

        // Dirty tail bits beyond the dimension.
        let mut body = Vec::new();
        put_string(&mut body, "k").unwrap();
        put_u32(&mut body, 65);
        put_u64(&mut body, 0);
        put_u64(&mut body, u64::MAX);
        let mut framed = Vec::new();
        write_frame(&mut framed, OP_INSERT, &body).unwrap();
        assert!(read_request(&mut framed.as_slice()).is_err());

        // Trailing garbage after a well-formed body.
        let mut body = Vec::new();
        put_u32(&mut body, 7);
        body.push(0xAB);
        let mut framed = Vec::new();
        write_frame(&mut framed, 8, &body).unwrap();
        assert!(read_request(&mut framed.as_slice()).is_err());
    }

    /// Pins the [`MAX_SNAPSHOT_BYTES`] arithmetic: a snapshot stream at
    /// exactly the cap still encodes as one frame, one byte more does
    /// not — which is why servers must check the cap *before* encoding
    /// (an encode failure here would drop the connection).
    #[test]
    fn snapshot_frame_cap_is_exact() {
        let at_cap = Response::Snapshot {
            bytes: vec![0u8; MAX_SNAPSHOT_BYTES],
        };
        let mut buffer = Vec::new();
        write_response(&mut buffer, &at_cap).unwrap();
        assert!(matches!(
            read_response(&mut buffer.as_slice()).unwrap().unwrap(),
            Response::Snapshot { bytes } if bytes.len() == MAX_SNAPSHOT_BYTES
        ));

        let over_cap = Response::Snapshot {
            bytes: vec![0u8; MAX_SNAPSHOT_BYTES + 1],
        };
        assert!(write_response(&mut Vec::new(), &over_cap).is_err());
    }

    #[test]
    fn key_length_is_bounded() {
        let request = Request::Remove {
            key: "x".repeat(70_000),
        };
        assert!(write_request(&mut Vec::new(), &request).is_err());
    }
}
