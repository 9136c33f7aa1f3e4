//! Seeded flow-set generators: sizes and arrival times.
//!
//! A [`FlowSetConfig`] combines a spatial [`TrafficMatrix`], a size [`FlowMix`]
//! (elephants and mice) and an [`Arrival`] process into one deterministic recipe;
//! [`generate`] expands the recipe over an ordered endpoint list into a
//! [`FlowBatch`], one flow per sampled pair, in non-decreasing start-tick order.
//! Equal seeds produce equal batches, independent of thread count or host.

use super::flows::{BatchBuilder, FlowBatch};
use super::matrix::TrafficMatrix;
use sdn_rng::Rng;
use sdn_topology::NodeId;

/// Flow-size mix: a heavy-tailed two-point distribution of mice and elephants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowMix {
    /// Size of a mouse flow in bytes (e.g. a 10 kB RPC).
    pub mice_bytes: f64,
    /// Size of an elephant flow in bytes (e.g. a 10 MB bulk transfer).
    pub elephant_bytes: f64,
    /// Probability in `[0, 1]` that a flow is an elephant.
    pub elephant_fraction: f64,
}

impl FlowMix {
    /// The classic datacenter mix: 10 kB mice, 10 MB elephants, 10% elephants.
    pub fn datacenter() -> Self {
        FlowMix {
            mice_bytes: 10e3,
            elephant_bytes: 10e6,
            elephant_fraction: 0.1,
        }
    }

    fn sample(&self, rng: &mut Rng) -> f64 {
        if rng.gen_bool(self.elephant_fraction) {
            self.elephant_bytes
        } else {
            self.mice_bytes
        }
    }
}

/// When flows activate relative to the start of the workload window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Every flow active from tick 0 — the peak-concurrency stress shape.
    UpFront,
    /// An open-loop Poisson process at `rate_per_tick` flows per service tick:
    /// inter-arrival gaps are seeded exponential draws ([`sdn_rng::Rng::gen_exp`])
    /// accumulated onto a running clock, so flow `i+1` always starts at or after
    /// flow `i` and the offered load stays at the configured rate no matter how
    /// the network is doing: a sustained offered rate.
    Poisson {
        /// Mean number of flow arrivals per service tick (> 0).
        rate_per_tick: f64,
    },
}

impl Arrival {
    /// A sampler holding whatever running state the arrival law needs. One sampler
    /// is used per generated flow set, so Poisson arrivals accumulate on one clock.
    fn sampler(&self) -> ArrivalSampler {
        ArrivalSampler {
            arrival: *self,
            clock: 0.0,
        }
    }
}

/// Stateful start-tick sampler for one flow-set generation pass.
struct ArrivalSampler {
    arrival: Arrival,
    /// Poisson only: the running arrival clock in (fractional) ticks.
    clock: f64,
}

impl ArrivalSampler {
    /// The next flow's start tick, never earlier than the one before it.
    fn sample(&mut self, rng: &mut Rng) -> u32 {
        match self.arrival {
            Arrival::UpFront => 0,
            Arrival::Poisson { rate_per_tick } => {
                let mean_gap = if rate_per_tick > 0.0 {
                    1.0 / rate_per_tick
                } else {
                    0.0
                };
                self.clock += rng.gen_exp(mean_gap);
                // Saturate rather than wrap on absurd rates: the tail of the
                // batch just lands on the final representable tick.
                if self.clock >= f64::from(u32::MAX) {
                    u32::MAX
                } else {
                    self.clock as u32
                }
            }
        }
    }
}

/// The full recipe of one generated flow set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSetConfig {
    /// Spatial structure — who talks to whom.
    pub matrix: TrafficMatrix,
    /// Size mix — how much each flow carries.
    pub mix: FlowMix,
    /// Arrival process — when each flow activates.
    pub arrival: Arrival,
    /// Number of sampled pairs, one flow each.
    pub pairs: u32,
}

impl FlowSetConfig {
    /// A uniform-matrix datacenter mix with all flows arriving up front.
    pub fn stress(pairs: u32) -> Self {
        FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::datacenter(),
            arrival: Arrival::UpFront,
            pairs,
        }
    }
}

/// Expands `config` over the ordered `endpoints` list into a seeded [`FlowBatch`].
///
/// The generation loop is strictly sequential over one RNG stream, so a given
/// `(endpoints, config, seed)` triple yields a bit-identical batch everywhere.
///
/// # Panics
///
/// Panics when fewer than two endpoints are supplied (delegated to
/// [`TrafficMatrix::sampler`]).
pub fn generate(endpoints: &[NodeId], config: &FlowSetConfig, seed: u64) -> FlowBatch {
    let mut sampler = config.matrix.sampler(endpoints.len(), seed);
    // Independent stream for sizes/arrivals so changing the matrix kind does not
    // reshuffle every flow's size.
    let mut shape_rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut arrivals = config.arrival.sampler();
    let mut batch = BatchBuilder::new(endpoints, config.pairs as usize);
    for _ in 0..config.pairs {
        let (s, d) = sampler.next_pair();
        let start_tick = arrivals.sample(&mut shape_rng);
        let bytes = config.mix.sample(&mut shape_rng);
        batch.push(s as usize, d as usize, bytes, start_tick);
    }
    batch.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// All flows `bytes` long: no size variance.
    fn same_size(bytes: f64) -> FlowMix {
        FlowMix {
            mice_bytes: bytes,
            elephant_bytes: bytes,
            elephant_fraction: 0.0,
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let eps = endpoints(32);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::datacenter(),
            arrival: Arrival::Poisson {
                rate_per_tick: 50.0,
            },
            pairs: 500,
        };
        let a = generate(&eps, &config, 42);
        let b = generate(&eps, &config, 42);
        assert_eq!(a, b);
        let c = generate(&eps, &config, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_produces_both_sizes_at_expected_rates() {
        let eps = endpoints(16);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::datacenter(),
            arrival: Arrival::UpFront,
            pairs: 10_000,
        };
        let batch = generate(&eps, &config, 7);
        assert_eq!(batch.len(), 10_000);
        let elephants = (0..batch.len())
            .filter(|&i| batch.remaining(i) == 10e6)
            .count();
        // 10% elephants with binomial noise.
        assert!(
            (700..1_350).contains(&elephants),
            "elephants {elephants} of 10000"
        );
    }

    #[test]
    fn poisson_arrival_is_open_loop_at_the_configured_rate() {
        let eps = endpoints(16);
        let pairs = 5_000;
        let rate = 50.0;
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: same_size(1e3),
            arrival: Arrival::Poisson {
                rate_per_tick: rate,
            },
            pairs,
        };
        let batch = generate(&eps, &config, 13);
        // Start ticks are non-decreasing in generation order: one cumulative clock.
        for i in 1..batch.len() {
            assert!(batch.start_tick(i) >= batch.start_tick(i - 1));
        }
        // The arrival window is about pairs/rate ticks long, and any mid-window
        // tick activates about `rate` flows.
        let last = batch.start_tick(batch.len() - 1);
        let expected_span = f64::from(pairs) / rate;
        assert!(
            (f64::from(last) - expected_span).abs() < expected_span * 0.2,
            "window {last} ticks, expected ~{expected_span}"
        );
        let mid: usize = (40..60).map(|t| batch.activating(t).len()).sum();
        assert!((700..1_300).contains(&mid), "20 mid ticks carried {mid}");
        // Seed determinism holds for the stateful sampler too.
        assert_eq!(batch, generate(&eps, &config, 13));
        assert_ne!(batch, generate(&eps, &config, 14));
    }

    #[test]
    fn poisson_with_degenerate_rate_starts_everything_up_front() {
        let eps = endpoints(4);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: same_size(1e3),
            arrival: Arrival::Poisson { rate_per_tick: 0.0 },
            pairs: 50,
        };
        let batch = generate(&eps, &config, 3);
        assert_eq!(batch.activating(0).len(), 50);
    }
}
