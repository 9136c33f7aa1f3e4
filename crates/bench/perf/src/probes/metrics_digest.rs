//! `metrics.digest`: recording one sample into a streaming digest, and merging two
//! digests — what the flow engine's completion-time collection is built from.

use super::{secs_per_op, secs_per_prepared_call};
use sdn_metrics::Digest;
use std::hint::black_box;

const SAMPLES: usize = 10_000;

fn filled(offset: f64) -> Digest {
    Digest::from_samples((0..SAMPLES).map(|i| offset + (i * 7 % 1_000) as f64))
}

/// Nanoseconds per `Digest::record`.
pub fn record_ns() -> f64 {
    secs_per_op(SAMPLES, || black_box(filled(0.0))) * 1e9
}

/// Microseconds per `Digest::merge` of two 10,000-sample digests.
pub fn merge_us() -> f64 {
    let (a, b) = (filled(0.0), filled(0.5));
    secs_per_prepared_call(
        || a.clone(),
        |mut merged| {
            merged.merge(&b);
            merged
        },
    ) * 1e6
}
