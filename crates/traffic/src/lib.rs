//! Data-plane host traffic model for the Renaissance reproduction.
//!
//! The paper's throughput experiments (Section 6.4.3) place two hosts at maximal
//! distance, run iperf (TCP Reno) between them for 30 seconds, and fail a mid-path link
//! at second 10. The paper's testbed used real TCP over Mininet; this crate substitutes
//! a mechanistic Reno model driven by the state of the simulated data plane:
//!
//! * [`reno`] — an AIMD congestion-window model producing throughput, retransmission,
//!   BAD-TCP, and out-of-order series,
//! * [`iperf`] — the Reno flow between the two farthest-apart switches as a scenario
//!   workload (the mid-path link failure and the with-recovery (Figure 15) /
//!   without-recovery (Figure 16) modes are the scenario's), plus the Table 17
//!   correlation statistic between the two,
//! * [`engine`] — the heavy-traffic flow engine: struct-of-arrays flow batches,
//!   seeded traffic-matrix generators, bottleneck fair-share progress charged per
//!   coarse service tick, and flow-completion-time telemetry — millions of concurrent
//!   flows with no per-packet state.
//!
//! # Example
//!
//! ```
//! use renaissance::scenario::{Endpoints, FaultEvent, LinkSelector, Scenario};
//! use sdn_netsim::SimDuration;
//! use sdn_traffic::iperf::IperfWorkload;
//!
//! let report = Scenario::builder("throughput")
//!     .network("grid(2, 3)")
//!     .controllers(2)
//!     .task_delay(SimDuration::from_millis(100))
//!     .workload(|| Box::new(IperfWorkload::farthest(12)))
//!     .fault_at(
//!         SimDuration::from_secs(5),
//!         FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
//!     )
//!     .run();
//! let iperf = report.runs[0].workload("iperf").unwrap();
//! let run = IperfWorkload::run_from_report(iperf).unwrap();
//! assert_eq!(run.throughput_mbps.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod iperf;
pub mod reno;

pub use engine::{
    generate, Arrival, EngineConfig, FanOut, FctCollector, FctSummary, FlowBatch, FlowEngine,
    FlowEngineWorkload, FlowMix, FlowSetConfig, FlowSpec, TrafficMatrix,
};
pub use iperf::{throughput_correlation, IperfRun, IperfWorkload};
pub use reno::{PathEvent, RenoConfig, RenoConnection};
