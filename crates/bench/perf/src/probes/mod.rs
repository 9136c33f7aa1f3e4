//! Unit-cost probes: one small module per layer, each timing a public function of
//! that layer from outside, at least [`REPS`] times, on (clones of) the state a
//! traced run ended in. Inner layers that cannot be bracketed by a span are then
//! attributed as *exact count × unit cost*, the count coming from counters the
//! product already keeps. When an API moves, the one module that calls it is the
//! one to repair.

pub mod core_controller;
pub mod core_legitimacy;
pub mod core_reply_db;
pub mod metrics_digest;
pub mod netsim_calendar;
pub mod netsim_link;
pub mod serve_log;
pub mod serve_session;
pub mod switch_rules;
pub mod switch_switch;
pub mod topology_flat;
pub mod topology_flows;
pub mod traffic_engine;

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per unit-cost measurement.
pub const REPS: usize = 50;

/// Median seconds of one call of `f`, over [`REPS`] individually timed calls.
pub fn secs_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    secs_per_prepared_call(|| (), |()| f())
}

/// Like [`secs_per_call`], with an untimed `prepare` step before each call — the
/// place to clone state the measured call consumes or mutates.
pub fn secs_per_prepared_call<S, T>(
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let state = prepare();
        let started = Instant::now();
        let out = f(black_box(state));
        samples.push(started.elapsed().as_secs_f64());
        black_box(out);
    }
    stats::median(&samples)
}

/// Median seconds of one operation when a single one is too short to time: `f`
/// performs `ops_per_batch` operations per call and is timed [`REPS`] times.
pub fn secs_per_op<T>(ops_per_batch: usize, f: impl FnMut() -> T) -> f64 {
    secs_per_call(f) / ops_per_batch.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preparation_is_not_timed() {
        let slow_prepare = || std::thread::sleep(std::time::Duration::from_millis(2));
        let per_call = secs_per_prepared_call(slow_prepare, |()| 1 + 1);
        assert!(
            per_call < 1e-3,
            "prepare leaked into the timing: {per_call}"
        );
    }
}
