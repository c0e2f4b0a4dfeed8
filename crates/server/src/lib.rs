//! **sora-server** — the simulation-as-a-service control plane.
//!
//! Everything else in this workspace runs simulations *in process*. This
//! crate puts the same engine behind a small wire protocol so experiments
//! can be driven remotely and fanned out across worker processes:
//!
//! * [`protocol`] — a length-prefixed JSON frame codec with typed
//!   [`protocol::Request`]/[`protocol::Reply`] messages, used identically
//!   over TCP (the server) and over stdio (farm workers);
//! * [`session`] — live sessions: a scenario initialised once and stepped
//!   to successive simulated-time targets, surfacing telemetry snapshots
//!   and controller status between steps;
//! * [`canon`] — canonical scenario JSON (sorted keys, normalised numbers)
//!   and the content-addressed cache key derived from it;
//! * [`cache`] — the on-disk result cache keyed by [`canon::cache_key`];
//! * [`farm`] — the sweep farm: scenario fan-out across spawned worker
//!   processes with cache short-circuiting and kill/resume semantics;
//! * [`service`] — the TCP accept loop, per-connection dispatch, the
//!   stdio worker loop, and the socket set-up every TCP stream shares;
//! * [`signals`] — the SIGINT/SIGTERM stop flag behind graceful shutdown.
//!
//! The headline invariant: a scenario submitted over the wire produces
//! **byte-identical** results JSON to the same scenario run in-process
//! (`run_scenario` / [`sora_bench::ScenarioSpec::run`]), at any worker
//! count. Both paths funnel through [`sora_bench::scenario_result_text`],
//! and live sessions step the run with [`apps::ScenarioStepper`], which
//! pauses only between fully-executed workload actions.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod farm;
pub mod protocol;
pub mod service;
pub mod session;
pub mod signals;

pub use cache::ResultCache;
pub use canon::{cache_key, canonical_string, canonicalize, content_hash, ENGINE_FINGERPRINT};
pub use farm::{run_farm, EntryStatus, FarmConfig, FarmEntry, FarmOutcome};
pub use protocol::{
    read_frame, write_frame, FrameError, Reply, Request, ServerError, SessionStatus,
    TelemetryFrame, MAX_FRAME_LEN,
};
pub use service::{prepare_stream, serve, worker_loop, worker_loop_on};
pub use session::LiveSession;
pub use signals::{install as install_signal_handlers, request_stop, stop_flag};

// Re-exported so server binaries and tests need no direct bench dependency
// to parse specs or render the canonical result text.
pub use sora_bench::{scenario_result_text, ScenarioError, ScenarioSpec};
