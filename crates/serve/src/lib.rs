//! # sdn-serve — a long-running simulation service
//!
//! Wraps one deterministic [`renaissance`] simulation in a session you can poke at
//! over HTTP/JSON while it runs: inspect topology and per-node state, watch
//! legitimacy and metrics converge, page through retained probe samples, tail a
//! live telemetry stream, and inject faults or traffic mid-run.
//!
//! The design splits along the determinism boundary:
//!
//! * [`session`] — the wall-clock-free core. A [`Session`](session::Session) owns
//!   the network and advances in fixed simulated-time ticks; every mutation enters
//!   as a typed [`Command`](command::Command). Faults are a thin boundary over
//!   the scenario fault engine: the session validates a request's victims, lowers
//!   it to [`FaultEvent`](renaissance::scenario::FaultEvent)s and lets its one
//!   [`FaultContext`](renaissance::scenario::FaultContext) execute them — the
//!   same executor every campaign cell runs through.
//! * [`command`] — the JSON wire format for commands (faults, flow attachment,
//!   step/run/pause/shutdown). [`FaultSpec`] names concrete node indices only,
//!   which is what makes a logged command replayable.
//! * [`log`] — the replayable [`CommandLog`](log::CommandLog): each applied
//!   command stamped with its tick, plus the final report. Replaying a log
//!   reproduces the live session's report byte for byte.
//! * [`transport`] — the dependency-free HTTP/1.1 server. The **only** module
//!   allowed to read the host clock or spawn threads (`sdn-stancheck` enforces
//!   this scope rule); server threads never touch the session, they enqueue
//!   requests the driver answers between ticks.
//!
//! The crate sits on the simulation crates and `sdn-metrics` (which hosts the JSON
//! value type); it does not depend on the benchmark harness.
//!
//! Two binaries ship with the crate: `sdn-serve` (the service itself, plus
//! `sdn-serve replay <log>` for offline verification) and `sdn-serve-cli` (a
//! polling terminal client).

pub mod command;
pub mod log;
pub mod session;
pub mod transport;

pub use command::{Command, FaultSpec, FlowsSpec};
pub use log::CommandLog;
pub use session::{ConfigError, Session, SessionConfig};
pub use transport::Server;
