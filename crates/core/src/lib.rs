//! **Renaissance** — a self-stabilizing, distributed, in-band SDN control plane.
//!
//! This crate is a from-scratch Rust reproduction of the system described in
//! *"Renaissance: A Self-Stabilizing Distributed SDN Control Plane using In-band
//! Communications"* (Canini, Salem, Schiff, Schiller, Schmid — ICDCS 2018). It contains
//! the paper's primary contribution:
//!
//! * [`controller::Controller`] — Algorithm 2: round-synchronized topology discovery,
//!   in-band bootstrapping, kappa-fault-resilient rule installation, stale-state
//!   cleanup, C-resets,
//! * [`config::Variant`] — the memory-adaptive main algorithm and the Theta(D)
//!   non-adaptive variation of Section 8.1,
//! * the rule retention of the paper's evaluation prototype (Section 6.2): every
//!   `updateRule` keeps the previous round's rules (`keep_tags = [prevTag]`), so
//!   failover paths stay usable while a new round's rules are installed,
//! * [`legitimacy`] — the legitimate-state predicate of Definition 1,
//! * [`harness::SdnNetwork`] — a complete simulated deployment (controllers, abstract
//!   switches, discrete-event network) with fault injection, replacing the paper's
//!   OVS/Floodlight/Mininet testbed,
//! * [`faults`] — arbitrary transient-state corruption (the Theorem 2 experiments the
//!   original prototype could not run),
//! * [`scenario`] — the declarative experiment API: [`scenario::ScenarioBuilder`]
//!   composes a topology, configurations, a typed fault schedule, traffic workloads,
//!   and probes, and a single event-driven runner executes the whole experiment over
//!   multiple seeds.
//!
//! # Quick start
//!
//! Declare an experiment — topology, faults, repetitions — and run it:
//!
//! ```
//! use renaissance::scenario::{ControllerSelector, FaultEvent, Scenario};
//! use sdn_netsim::SimDuration;
//!
//! // A small ring with 2 controllers bootstraps in-band to a legitimate state; one
//! // controller then fail-stops and the survivor cleans up after it.
//! let report = Scenario::builder("quickstart")
//!     .topology(sdn_topology::builders::ring(5, 2))
//!     .task_delay(SimDuration::from_millis(100))
//!     .fault_at(
//!         SimDuration::from_secs(1),
//!         FaultEvent::FailController(ControllerSelector::Index(1)),
//!     )
//!     .runs(2)
//!     .run();
//! assert!(report.all_converged());
//! assert!(report.runs.iter().all(|run| run.first_recovery_s() > Some(0.0)));
//! ```
//!
//! The [`harness::SdnNetwork`] escape hatch underneath remains available for ad-hoc
//! driving:
//!
//! ```
//! use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
//! use sdn_netsim::SimDuration;
//! use sdn_topology::builders;
//!
//! let mut sdn = SdnNetwork::new(
//!     builders::ring(5, 2),
//!     ControllerConfig::for_network(2, 5),
//!     HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
//! );
//! let bootstrap_time = sdn
//!     .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
//!     .expect("Renaissance bootstraps every connected topology");
//! assert!(bootstrap_time > SimDuration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod faults;
pub mod harness;
pub mod legitimacy;
pub mod nodes;
pub mod packet;
pub mod reply_db;
pub mod scenario;

pub use config::{ControllerConfig, HarnessConfig, Variant};
pub use controller::{Controller, ControllerStats};
pub use faults::FaultInjector;
pub use harness::SdnNetwork;
pub use legitimacy::LegitimacyReport;
pub use nodes::SdnNode;
pub use packet::{ControlPacket, PacketBody};
pub use reply_db::ReplyDb;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioReport, ScenarioRunner};
