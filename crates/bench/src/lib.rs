//! Experiment harness regenerating every table and figure of the Renaissance ICDCS 2018
//! evaluation (Section 6).
//!
//! One binary, `renaissance-fig <id>... | --all`, regenerates them from the [`figures`]
//! registry: each entry is one function that runs the figure's scenarios on the
//! [`experiments`] skeleton shared with the scale campaign, streams every per-run
//! sample to `--out PATH` when asked, and returns the human-readable table it prints to
//! stdout. Its output at a small fixed scale is committed as `BENCH_figures.txt` and
//! gated byte for byte (`tests/figures.rs`).
//!
//! A run is a function of its flags alone (see [`cli`]): every binary accepts
//! `--runs N` (default 3; the paper used 20), `--seed N` (each experiment documents its
//! default), `--networks A,B` (the paper networks `B4,Clos,Telstra,AT&T,EBONE` and/or
//! generator names such as `fat_tree(8)`, `jellyfish(100, 4, 7)`, `grid(10, 12)`),
//! `--task-delay-ms N`, and `--threads N` (default: all cores). Nothing in this crate
//! reads the environment or the host clock; host time is measured by the separate
//! `renaissance-perf` package (`crates/bench/perf`, `BENCHMARK.json`).
//!
//! The `scale_campaign` binary sweeps topology family x size x fault scenario and
//! emits the machine-readable `BENCH_scale*.json` artifacts; `tests/gate.rs` holds the
//! smoke tier (and, in an ignored test, the large tier) byte for byte to its
//! committed copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod output;
pub mod report;

pub use experiments::ExperimentScale;
pub use report::{print_table, Row, Table};
pub use sdn_metrics::{MetricKey, Recorder};
