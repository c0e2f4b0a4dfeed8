//! The wire protocol: length-prefixed JSON frames with typed messages.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The same codec runs over TCP (client ↔ server) and
//! over stdio (farm coordinator ↔ worker process). Framing failures are
//! typed ([`FrameError`]) so a malformed, truncated or oversized frame
//! drops the offending connection — never the process.

use microsim::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use sora_bench::ScenarioError;
use sora_core::ControllerStatus;
use std::io::{ErrorKind, Read, Write};

/// Hard cap on a frame's payload length. Large enough for the result JSON
/// of the paper's full 12-minute runs (a few MiB), small enough that a
/// corrupt length prefix cannot trigger a multi-GiB allocation.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream cleanly, at a frame boundary.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The stream failed or ended mid-frame.
    Io {
        /// The transport error.
        message: String,
    },
    /// The payload is not UTF-8 JSON of the expected shape.
    Json {
        /// The decoder's message.
        message: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            FrameError::Io { message } => write!(f, "frame transport error: {message}"),
            FrameError::Json { message } => write!(f, "frame decode error: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: big-endian length, then the compact JSON payload.
///
/// The frame leaves in a single `write_all` of one buffer: the JSON is
/// rendered behind a 4-byte placeholder that is then patched with the
/// length. Splitting prefix and payload into two writes would let Nagle's
/// algorithm hold the payload until the peer's delayed ACK (~40 ms).
pub fn write_frame<W: Write, T: Serialize + ?Sized>(
    w: &mut W,
    value: &T,
) -> Result<(), FrameError> {
    // Room for the prefix and a small reply; larger frames grow as
    // `serde_json::to_string` would.
    let mut text = String::with_capacity(64);
    text.push_str("\0\0\0\0");
    serde_json::to_value(value).write_compact(&mut text);
    let mut frame = text.into_bytes();
    let len = frame.len() - 4;
    if len > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversized {
            len: len.min(u32::MAX as usize) as u32,
        });
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    let io = |e: std::io::Error| FrameError::Io {
        message: e.to_string(),
    };
    w.write_all(&frame).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(())
}

/// Reads one frame and decodes it as `T`.
///
/// EOF before the first prefix byte is a clean [`FrameError::Closed`]; EOF
/// anywhere inside a frame is [`FrameError::Io`]. A length prefix above
/// [`MAX_FRAME_LEN`] is rejected before any allocation.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<T, FrameError> {
    let io = |e: &std::io::Error| FrameError::Io {
        message: e.to_string(),
    };
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io {
                    message: "stream ended inside a frame length prefix".to_string(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io(&e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            FrameError::Io {
                message: "stream ended inside a frame payload".to_string(),
            }
        } else {
            io(&e)
        }
    })?;
    let text = String::from_utf8(payload).map_err(|_| FrameError::Json {
        message: "frame payload is not UTF-8".to_string(),
    })?;
    serde_json::from_str(&text).map_err(|e| FrameError::Json {
        message: e.to_string(),
    })
}

/// Everything a client (or the farm coordinator) can ask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run a scenario to completion and return its canonical result JSON.
    Submit {
        /// The scenario config text (the `run_scenario` JSON schema).
        scenario: String,
    },
    /// Start a live session on this connection (one per connection).
    Init {
        /// The scenario config text.
        scenario: String,
    },
    /// Advance the live session's workload clock to this simulated second.
    /// With a subscription active, `Telemetry` frames stream out before the
    /// final `Stepped` reply.
    StepUntil {
        /// Target simulated time in seconds.
        t_secs: f64,
    },
    /// Ask for the live session's workload clock.
    Time,
    /// Ask for a full status frame (clock, telemetry, controller state).
    Status,
    /// Stream a `Telemetry` frame every `period_secs` of simulated time
    /// during subsequent `StepUntil` requests.
    Subscribe {
        /// Streaming period in simulated seconds (must be positive).
        period_secs: f64,
    },
    /// Complete the live session: run the remaining trace, drain, and
    /// return the canonical result JSON.
    Finish,
    /// Abandon the live session without producing results.
    Halt,
    /// Stop the whole server (all connections).
    Shutdown,
}

/// A point-in-time telemetry frame streamed between simulation steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryFrame {
    /// The workload clock in simulated seconds.
    pub now_secs: f64,
    /// World counters; the completion window covers the span since the
    /// previous frame.
    pub snapshot: TelemetrySnapshot,
    /// The controller stack's self-reported state.
    pub controller: ControllerStatus,
}

/// A live session's full status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// The session's content-addressed cache key.
    pub key: String,
    /// The workload clock in simulated seconds.
    pub now_secs: f64,
    /// Whether the trace has ended (only `Finish` remains).
    pub workload_done: bool,
    /// Gauge samples recorded so far.
    pub samples: u64,
    /// The controller stack's self-reported state.
    pub controller: ControllerStatus,
    /// World counters (window since the last streamed frame).
    pub snapshot: TelemetrySnapshot,
}

/// Why the server rejected a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ServerError {
    /// The scenario config was rejected (typed parse/validation error).
    Scenario {
        /// The underlying scenario error.
        error: ScenarioError,
    },
    /// The request is invalid in the connection's current state.
    BadRequest {
        /// What went wrong.
        message: String,
    },
    /// A farm worker failed.
    Worker {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Scenario { error } => write!(f, "scenario rejected: {error}"),
            ServerError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServerError::Worker { message } => write!(f, "worker failed: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Everything the server answers with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Reply {
    /// Liveness answer.
    Pong,
    /// The canonical result JSON of a completed run.
    Result {
        /// The run's content-addressed cache key.
        key: String,
        /// The result JSON text (byte-identical to the in-process run).
        text: String,
    },
    /// A live session is ready.
    Inited {
        /// The session's content-addressed cache key.
        key: String,
    },
    /// A `StepUntil` completed.
    Stepped {
        /// The workload clock after stepping (may overshoot the target by
        /// up to one workload action).
        now_secs: f64,
        /// Whether the trace has ended.
        workload_done: bool,
    },
    /// A streamed telemetry frame (precedes `Stepped` under subscription).
    Telemetry {
        /// The frame.
        frame: TelemetryFrame,
    },
    /// Answer to `Time`.
    TimeIs {
        /// The workload clock in simulated seconds.
        now_secs: f64,
    },
    /// Answer to `Status`.
    StatusIs {
        /// The session status.
        status: SessionStatus,
    },
    /// A subscription is active.
    Subscribed,
    /// The live session was abandoned.
    Halted,
    /// The server is shutting down.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Why.
        error: ServerError,
    },
}
