//! Seeded flow-set generators: sizes, arrival times, and fan-out.
//!
//! A [`FlowSetConfig`] combines a spatial [`TrafficMatrix`], a size [`FlowMix`]
//! (elephants and mice), an [`Arrival`] process, and an optional request/response
//! [`FanOut`] stage into one deterministic recipe; [`generate`] expands the recipe
//! over an ordered endpoint list into a [`FlowBatch`]. Equal seeds produce equal
//! batches, independent of thread count or host.

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

    /// All flows the same size — removes size variance from an experiment.
    pub fn uniform(bytes: f64) -> Self {
        FlowMix {
            mice_bytes: bytes,
            elephant_bytes: bytes,
            elephant_fraction: 0.0,
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
    /// Start ticks drawn uniformly over `[0, over_ticks)` — a steady arrival
    /// process that keeps concurrency roughly level while flows complete.
    Uniform {
        /// Width of the arrival window in service ticks (>= 1).
        over_ticks: u32,
    },
    /// An open-loop Poisson process at `rate_per_tick` flows per service tick:
    /// inter-arrival gaps are seeded exponential draws ([`sdn_rng::Rng::gen_exp`])
    /// accumulated onto a running clock, so flow `i+1` always starts at or after
    /// flow `i` and the offered load stays at the configured rate no matter how
    /// the network is doing — the sustained-rate shape ROADMAP item 3 calls for.
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
    fn sample(&mut self, rng: &mut Rng) -> u32 {
        match self.arrival {
            Arrival::UpFront => 0,
            Arrival::Uniform { over_ticks } => {
                rng.gen_range(0..u64::from(over_ticks.max(1))) as u32
            }
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

/// Optional request/response fan-out: each sampled pair becomes a client that sends
/// a small request to `width` servers, each of which answers with a response flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FanOut {
    /// Number of servers each client contacts (>= 1).
    pub width: u32,
    /// Request size in bytes (client to server).
    pub request_bytes: f64,
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
    /// Number of sampled pairs. Without fan-out this is the flow count; with
    /// fan-out of width `w` each pair expands into `2 * w` flows.
    pub pairs: u32,
    /// Optional request/response expansion.
    pub fan_out: Option<FanOut>,
}

impl FlowSetConfig {
    /// A uniform-matrix datacenter mix with all flows arriving up front.
    pub fn stress(pairs: u32) -> Self {
        FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::datacenter(),
            arrival: Arrival::UpFront,
            pairs,
            fan_out: None,
        }
    }

    /// Total flows this recipe expands to.
    pub fn flow_count(&self) -> u64 {
        match self.fan_out {
            None => u64::from(self.pairs),
            Some(f) => u64::from(self.pairs) * 2 * u64::from(f.width.max(1)),
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
    let mut batch = BatchBuilder::new(endpoints, config.flow_count() as usize);
    for _ in 0..config.pairs {
        let (s, d) = sampler.next_pair();
        let (s, d) = (s as usize, d as usize);
        let start_tick = arrivals.sample(&mut shape_rng);
        match config.fan_out {
            None => batch.push(s, d, config.mix.sample(&mut shape_rng), start_tick),
            Some(fan) => {
                // `d` seeds a contiguous run of `width` servers; each server gets a
                // request from the client and answers with a response flow.
                for k in 0..fan.width.max(1) as usize {
                    let mut server = (d + k) % endpoints.len();
                    if endpoints[server] == endpoints[s] {
                        server = (d + k + 1) % endpoints.len();
                    }
                    batch.push(s, server, fan.request_bytes, start_tick);
                    batch.push(server, s, config.mix.sample(&mut shape_rng), start_tick);
                }
            }
        }
    }
    batch.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let eps = endpoints(32);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::datacenter(),
            arrival: Arrival::Uniform { over_ticks: 10 },
            pairs: 500,
            fan_out: None,
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
            fan_out: None,
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
    fn fan_out_expands_pairs_into_requests_and_responses() {
        let eps = endpoints(8);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::uniform(1e6),
            arrival: Arrival::UpFront,
            pairs: 100,
            fan_out: Some(FanOut {
                width: 3,
                request_bytes: 1e3,
            }),
        };
        let batch = generate(&eps, &config, 9);
        assert_eq!(batch.len() as u64, config.flow_count());
        assert_eq!(batch.len(), 600);
        let requests = (0..batch.len())
            .filter(|&i| batch.remaining(i) == 1e3)
            .count();
        let responses = (0..batch.len())
            .filter(|&i| batch.remaining(i) == 1e6)
            .count();
        assert_eq!(requests, 300);
        assert_eq!(responses, 300);
        // No self-flows even after server remapping.
        for i in 0..batch.len() {
            assert_ne!(batch.src(i), batch.dst(i));
        }
    }

    #[test]
    fn uniform_arrival_spreads_start_ticks() {
        let eps = endpoints(16);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::uniform(1e3),
            arrival: Arrival::Uniform { over_ticks: 20 },
            pairs: 2_000,
            fan_out: None,
        };
        let batch = generate(&eps, &config, 11);
        let first = batch.activating(0).len();
        assert!(first > 0 && first < batch.len());
        let total: usize = (0..20).map(|t| batch.activating(t).len()).sum();
        assert_eq!(total, batch.len());
    }

    #[test]
    fn poisson_arrival_is_open_loop_at_the_configured_rate() {
        let eps = endpoints(16);
        let pairs = 5_000;
        let rate = 50.0;
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::uniform(1e3),
            arrival: Arrival::Poisson {
                rate_per_tick: rate,
            },
            pairs,
            fan_out: None,
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
            mix: FlowMix::uniform(1e3),
            arrival: Arrival::Poisson { rate_per_tick: 0.0 },
            pairs: 50,
            fan_out: None,
        };
        let batch = generate(&eps, &config, 3);
        assert_eq!(batch.activating(0).len(), 50);
    }
}
