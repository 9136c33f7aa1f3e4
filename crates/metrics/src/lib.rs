//! The typed observability pipeline shared by the simulator, the scenario runner, and
//! the benchmark harness.
//!
//! Three pieces replace the stringly-typed `Vec<(String, f64)>` plumbing the workspace
//! grew up with:
//!
//! * [`MetricKey`] — a typed, namespaced metric identity (`scenario/bootstrap_s`,
//!   `probe/legitimacy`, ...) carrying the [`Unit`] its values are printed in,
//! * [`Digest`] — a streaming, mergeable summary of repeated measurements
//!   (count/mean/stddev/min/max plus p50/p90/p99 quantiles) that experiment code
//!   aggregates instead of buffering every sample,
//! * [`Recorder`] — the sink abstraction observations flow through: an in-memory
//!   digest store ([`MemorySink`]) and streaming JSON-lines ([`JsonLinesSink`]) and CSV
//!   ([`CsvSink`]) writers.
//!
//! Beside them sits [`json`]: the workspace's one JSON value, emitter and parser —
//! below both of its users, the benchmark artifacts and the `sdn-serve` wire format.
//!
//! # Example
//!
//! ```
//! use sdn_metrics::{MetricKey, MemorySink, Recorder};
//!
//! let mut sink = MemorySink::default();
//! for value in [1.0, 2.0, 3.0] {
//!     sink.record("B4", &MetricKey::BOOTSTRAP_TIME, value);
//! }
//! let digest = sink.digest("B4", &MetricKey::BOOTSTRAP_TIME).unwrap();
//! assert_eq!(digest.len(), 3);
//! assert_eq!(digest.mean(), 2.0);
//! assert_eq!(digest.median(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
pub mod json;
mod key;
mod recorder;
mod ring;

pub use digest::Digest;
pub use key::{MetricKey, Namespace, Unit};
pub use recorder::{csv_field, CsvSink, JsonLinesSink, MemorySink, Recorder};
pub use ring::{RingPage, RingSink};
