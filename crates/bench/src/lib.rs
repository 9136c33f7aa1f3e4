//! Experiment harness regenerating every table and figure of the Renaissance ICDCS 2018
//! evaluation (Section 6).
//!
//! Each `fig*`/`table*` binary in `src/bin/` is a thin wrapper around a function of the
//! [`experiments`] module; all of them print a human-readable table to stdout and, when
//! the `RENAISSANCE_DUMP` environment variable is set, also emit the raw results as a
//! structured dump
//! so EXPERIMENTS.md can be regenerated mechanically.
//!
//! Scale knobs follow one shared convention (see [`cli`]): every binary accepts
//! `--runs N`, `--seed N`, `--networks A,B`, `--task-delay-ms N`, and `--threads N`
//! (documented in `--help`), with environment fallbacks:
//!
//! * `RENAISSANCE_RUNS` — repetitions per configuration (default 3; the paper used 20),
//! * `RENAISSANCE_SEED` — base seed override (each experiment documents its default),
//! * `RENAISSANCE_NETWORKS` — comma-separated list: the paper networks
//!   `B4,Clos,Telstra,AT&T,EBONE` and/or generator names such as `fat_tree(8)`,
//!   `jellyfish(100, 4, 7)`, `grid(10, 12)`,
//! * `RENAISSANCE_THREADS` — scenario-runner worker threads (default: all cores).
//!
//! The `scale_campaign` binary sweeps topology family x size x fault scenario and
//! emits the machine-readable `BENCH_scale.json` artifact CI tracks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod experiments;
pub mod output;
pub mod report;

pub use experiments::{ExperimentScale, Measurement};
pub use output::MetricPipeline;
pub use report::{print_table, Row};
pub use sdn_metrics::{MetricKey, Recorder};
