//! Data-plane host traffic model for the Renaissance reproduction.
//!
//! The paper's throughput experiments (Section 6.4.3) place two hosts at maximal
//! distance, run iperf (TCP Reno) between them for 30 seconds, and fail a mid-path link
//! at second 10. The paper's testbed used real TCP over Mininet; this crate substitutes
//! a mechanistic Reno model driven by the state of the simulated data plane:
//!
//! * [`reno`] — an AIMD congestion-window model producing throughput, retransmission,
//!   BAD-TCP, and out-of-order series,
//! * [`iperf`] — the experiment driver: host placement, mid-path link failure, and the
//!   with-recovery (Figure 15) / without-recovery (Figure 16) modes, plus the
//!   Table 17 correlation statistic between the two,
//! * [`engine`] — the heavy-traffic flow engine: struct-of-arrays flow batches,
//!   seeded traffic-matrix generators, bottleneck fair-share progress charged per
//!   coarse service tick, and flow-completion-time telemetry — millions of concurrent
//!   flows with no per-packet state.
//!
//! # Example
//!
//! ```
//! use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
//! use sdn_netsim::SimDuration;
//! use sdn_topology::builders;
//! use sdn_traffic::iperf::{self, IperfConfig};
//!
//! let mut sdn = SdnNetwork::new(
//!     builders::ring(6, 2),
//!     ControllerConfig::for_network(2, 6),
//!     HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
//! );
//! sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120)).unwrap();
//! let (src, dst) = iperf::farthest_switch_pair(&sdn).unwrap();
//! let run = iperf::run_throughput_experiment(&mut sdn, src, dst, IperfConfig {
//!     duration_secs: 12,
//!     failure_at_secs: 5,
//!     ..IperfConfig::default()
//! });
//! assert_eq!(run.throughput_mbps.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod iperf;
pub mod reno;

pub use engine::{
    generate, Arrival, EngineConfig, FanOut, FctCollector, FctSummary, FlowBatch, FlowEngine,
    FlowEngineWorkload, FlowId, FlowMix, FlowSetConfig, FlowSpec, TrafficMatrix,
};
pub use iperf::{
    farthest_switch_pair, run_throughput_experiment, throughput_correlation, IperfConfig, IperfRun,
    IperfWorkload,
};
pub use reno::{PathEvent, RenoConfig, RenoConnection};
