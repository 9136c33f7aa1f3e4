//! Discrete-event network simulator for the Renaissance reproduction.
//!
//! The paper's prototype ran on Mininet (virtual hosts, OVS switches, real kernels);
//! this crate is the simulation substitute: a deterministic, seedable discrete-event
//! simulator that models
//!
//! * the connected topology `Gc` and the operational topology `Go` (Section 2),
//! * per-link behaviour — latency, jitter (a per-packet draw from the *closed*
//!   interval `[0, jitter]`: the configured bound itself is attainable), bandwidth,
//!   packet omission and duplication (the "not rare" transient failures of
//!   Section 3.4.1),
//! * fault injection: temporary and permanent link failures, node fail-stop, node and
//!   link additions (the benign failures of Section 3.4.2),
//! * local topology discovery with a configurable detection delay (the Theta failure
//!   detector of Section 2.2.1),
//! * message and byte accounting (Figure 9) and generic time series (Figures 15–20).
//!
//! Nodes are state machines implementing [`node::Node`]; the key design constraint is
//! that a node can only exchange messages with *direct neighbors*, so any multi-hop
//! communication — including all controller-to-switch traffic — has to be forwarded by
//! the switch state machines themselves. That is what makes the simulated control plane
//! in-band, exactly like the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod link;
pub mod metrics;
pub mod node;
pub mod sim;
pub mod time;

pub use link::{BurstLoss, BurstState, LinkConfig};
pub use metrics::NetworkMetrics;
pub use node::{Context, Node, Payload, TimerId};
pub use sim::{SimConfig, Simulator};
pub use time::{SimDuration, SimTime};
