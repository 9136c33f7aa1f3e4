//! `netsim.link`: one per-packet draw of the link model — the flat path every
//! message takes, and the Gilbert–Elliott path a degraded (gray) link takes.

use super::secs_per_op;
use sdn_netsim::{BurstLoss, BurstState, LinkConfig};
use sdn_rng::Rng;
use std::hint::black_box;

const DRAWS: usize = 10_000;

/// Nanoseconds per [`LinkConfig::sample`] on the network's default link.
pub fn sample_ns(link: LinkConfig) -> f64 {
    let mut rng = Rng::seed_from_u64(0x11E4);
    secs_per_op(DRAWS, || {
        for _ in 0..DRAWS {
            black_box(link.sample(&mut rng));
        }
    }) * 1e9
}

/// Nanoseconds per [`LinkConfig::sample_bursty`] on the gray link of the fault
/// schedule (Gilbert, ~30 % loss in bursts).
pub fn sample_bursty_ns(link: LinkConfig) -> f64 {
    let gray = link.with_burst(BurstLoss::gilbert(0.15, 0.35, 1.0));
    let mut state = BurstState::new(0x11E4);
    secs_per_op(DRAWS, || {
        for _ in 0..DRAWS {
            black_box(gray.sample_bursty(&mut state));
        }
    }) * 1e9
}
