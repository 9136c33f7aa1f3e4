//! Workspace facade crate: re-exports every crate of the Renaissance reproduction so
//! that the repository-level examples and integration tests can use a single import
//! root. Library users should depend on the individual crates (`renaissance`,
//! `sdn-topology`, ...) directly.
//!
//! Start with [`renaissance::scenario`]: the declarative `ScenarioBuilder` is the
//! front door for composing experiments (topology + fault schedule + workloads +
//! probes) over the simulated control plane.

pub use renaissance;
pub use sdn_metrics;
pub use sdn_netsim;
pub use sdn_serve;
pub use sdn_switch;
pub use sdn_tags;
pub use sdn_topology;
pub use sdn_traffic;
