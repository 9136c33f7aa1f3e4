//! Link model: latency, bandwidth accounting, and the unreliable-media failure modes
//! the paper's fault model allows (packet omission, duplication, reordering).

use crate::time::SimDuration;
use sdn_rng::Rng;

/// Configuration of the physical behaviour of every link in the simulated network.
///
/// The defaults approximate the Mininet setup of the paper's evaluation: 1 Gbit/s
/// links with sub-millisecond latency and no packet corruption; the loss/duplication
/// probabilities are switched on by the channel-layer and transient-fault experiments.
///
/// # Example
///
/// ```
/// use sdn_netsim::link::LinkConfig;
/// use sdn_netsim::time::SimDuration;
/// let cfg = LinkConfig {
///     latency: SimDuration::from_micros(200),
///     ..LinkConfig::default()
/// };
/// assert_eq!(cfg.latency.as_micros(), 200);
/// assert_eq!(cfg.loss_probability, 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation latency applied to every packet.
    pub latency: SimDuration,
    /// Extra random latency applied per packet, drawn uniformly from the *closed*
    /// interval `[0, jitter]` — the sampling uses an inclusive range, so the
    /// configured bound itself is attainable. Models reordering, because two packets
    /// sent back-to-back may arrive out of order.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a packet is silently dropped (omission failure).
    pub loss_probability: f64,
    /// Probability in `[0, 1]` that a packet is delivered twice (duplication failure).
    pub duplication_probability: f64,
    /// Link bandwidth in bits per second, used by the traffic model to convert packet
    /// sizes into serialization delay. `None` means infinite bandwidth.
    pub bandwidth_bps: Option<u64>,
    /// Optional two-state burst-loss process layered on top of `loss_probability`.
    /// When set, the link alternates between a good and a bad state (Gilbert–Elliott
    /// style) and the loss probability of the *current state* replaces
    /// `loss_probability` for each packet. Burst-configured links draw all their
    /// randomness from a dedicated per-link RNG stream so outcomes are independent
    /// of global event interleaving.
    pub burst: Option<BurstLoss>,
}

/// Parameters of a seeded two-state (Gilbert–Elliott) burst-loss process.
///
/// The link starts in the good state. Before each packet the state advances:
/// from good it enters the bad state with probability `p_enter`; from bad it
/// returns to good with probability `p_exit`. The packet is then dropped with
/// `loss_good` or `loss_bad` depending on the state after the transition. The
/// expected bad-burst length is `1 / p_exit` packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// Probability of transitioning good → bad before a packet.
    pub p_enter: f64,
    /// Probability of transitioning bad → good before a packet.
    pub p_exit: f64,
    /// Per-packet loss probability while in the good state.
    pub loss_good: f64,
    /// Per-packet loss probability while in the bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// A classic Gilbert channel: lossless in the good state, `loss_bad` in the
    /// bad state. All probabilities are clamped to `[0, 1]`.
    pub fn gilbert(p_enter: f64, p_exit: f64, loss_bad: f64) -> Self {
        BurstLoss {
            p_enter: clamp_probability(p_enter),
            p_exit: clamp_probability(p_exit),
            loss_good: 0.0,
            loss_bad: clamp_probability(loss_bad),
        }
    }

    /// Stationary (long-run) loss probability of the process.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_enter + self.p_exit;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter / denom;
        self.loss_good * (1.0 - pi_bad) + self.loss_bad * pi_bad
    }
}

/// The evolving state of one direction of a burst-configured link: the current
/// Gilbert–Elliott state plus the dedicated RNG stream that drives every random
/// decision (state transitions, loss, duplication, jitter) for that direction.
#[derive(Clone, Debug)]
pub struct BurstState {
    /// Whether the process is currently in the bad (bursty-loss) state.
    pub in_bad: bool,
    /// The per-link-direction RNG stream.
    pub rng: Rng,
}

impl BurstState {
    /// A fresh state (good) with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        BurstState {
            in_bad: false,
            rng: Rng::seed_from_u64(seed),
        }
    }
}

/// Clamps a probability into `[0, 1]`; non-finite values (NaN, ±inf) map to the
/// nearest defined bound (NaN → 0).
pub fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_micros(250),
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            duplication_probability: 0.0,
            bandwidth_bps: Some(1_000_000_000),
            burst: None,
        }
    }
}

impl LinkConfig {
    /// Replaces the loss probability, clamped into `[0, 1]` (NaN maps to 0).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss_probability = clamp_probability(loss);
        self
    }

    /// Attaches a two-state burst-loss process to the link.
    pub fn with_burst(mut self, burst: BurstLoss) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Removes any burst-loss process, returning to flat i.i.d. loss.
    pub fn without_burst(mut self) -> Self {
        self.burst = None;
        self
    }

    /// Samples the fate of one packet transmission over this link.
    ///
    /// This is the flat (non-burst) path: `burst` is ignored and all randomness
    /// is drawn from the caller's RNG. Burst-configured links are sampled through
    /// [`LinkConfig::sample_bursty`] with their per-link stream instead.
    pub fn sample(&self, rng: &mut Rng) -> TransmissionOutcome {
        if self.loss_probability > 0.0 && rng.gen_bool(self.loss_probability.min(1.0)) {
            return TransmissionOutcome::Lost;
        }
        self.deliver(rng)
    }

    /// Samples one packet through the burst-loss process, advancing `state`.
    ///
    /// Every random decision — the Gilbert–Elliott state transition, the loss
    /// draw, duplication, and jitter — comes from `state.rng`, the dedicated
    /// per-link-direction stream, so the outcome sequence of one link is a pure
    /// function of (seed, link, packet index) and cannot be perturbed by traffic
    /// on other links. Falls back to [`LinkConfig::sample`] over the same stream
    /// when no burst process is configured.
    pub fn sample_bursty(&self, state: &mut BurstState) -> TransmissionOutcome {
        let Some(burst) = self.burst else {
            return self.sample(&mut state.rng);
        };
        // Advance the two-state chain, then draw the packet's fate in the new state.
        if state.in_bad {
            if burst.p_exit > 0.0 && state.rng.gen_bool(burst.p_exit) {
                state.in_bad = false;
            }
        } else if burst.p_enter > 0.0 && state.rng.gen_bool(burst.p_enter) {
            state.in_bad = true;
        }
        let loss = if state.in_bad {
            burst.loss_bad
        } else {
            burst.loss_good
        };
        if loss > 0.0 && state.rng.gen_bool(loss) {
            return TransmissionOutcome::Lost;
        }
        self.deliver(&mut state.rng)
    }

    /// The fate of a packet that survived the loss draw: duplication, then jitter,
    /// both drawn from `rng` in that order.
    fn deliver(&self, rng: &mut Rng) -> TransmissionOutcome {
        let copies = if self.duplication_probability > 0.0
            && rng.gen_bool(self.duplication_probability.min(1.0))
        {
            2
        } else {
            1
        };
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
        };
        TransmissionOutcome::Delivered {
            copies,
            delay: self.latency + jitter,
        }
    }

    /// The serialization delay of a packet of `bytes` bytes on this link
    /// (zero when the bandwidth is unlimited).
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            None | Some(0) => SimDuration::ZERO,
            Some(bps) => {
                SimDuration::from_micros((bytes as u64 * 8).saturating_mul(1_000_000) / bps)
            }
        }
    }
}

/// The fate of a single packet transmission, as sampled from a [`LinkConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransmissionOutcome {
    /// The packet was dropped by the medium (omission failure).
    Lost,
    /// The packet is delivered `copies` times after `delay`.
    Delivered {
        /// Number of copies delivered (2 models a duplication failure).
        copies: u8,
        /// Propagation plus jitter delay.
        delay: SimDuration,
    },
}

/// The administrative / operational state of a link in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkStatus {
    /// The link forwards packets.
    #[default]
    Up,
    /// The link is temporarily unavailable (a transient link failure: packets are
    /// dropped but the link is still part of `Gc`).
    Down,
    /// The link has been permanently removed from `Gc`.
    Removed,
}

impl LinkStatus {
    /// Returns `true` when packets can traverse the link.
    pub fn is_operational(self) -> bool {
        matches!(self, LinkStatus::Up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `latency`, no jitter, loss or duplication, unlimited bandwidth.
    fn link(latency: SimDuration) -> LinkConfig {
        LinkConfig {
            latency,
            bandwidth_bps: None,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn reliable_link_always_delivers_once() {
        let cfg = link(SimDuration::from_micros(100));
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            match cfg.sample(&mut rng) {
                TransmissionOutcome::Delivered { copies, delay } => {
                    assert_eq!(copies, 1);
                    assert_eq!(delay, SimDuration::from_micros(100));
                }
                TransmissionOutcome::Lost => panic!("reliable link lost a packet"),
            }
        }
    }

    #[test]
    fn lossy_link_loses_roughly_the_configured_fraction() {
        let cfg = link(SimDuration::from_micros(10)).with_loss(0.3);
        let mut rng = Rng::seed_from_u64(7);
        let lost = (0..10_000)
            .filter(|_| matches!(cfg.sample(&mut rng), TransmissionOutcome::Lost))
            .count();
        assert!((2_500..3_500).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn duplication_produces_two_copies() {
        let cfg = LinkConfig {
            duplication_probability: 1.0,
            ..link(SimDuration::from_micros(10))
        };
        let mut rng = Rng::seed_from_u64(3);
        match cfg.sample(&mut rng) {
            TransmissionOutcome::Delivered { copies, .. } => assert_eq!(copies, 2),
            TransmissionOutcome::Lost => panic!("unexpected loss"),
        }
    }

    #[test]
    fn jitter_bounds_delay() {
        let cfg = LinkConfig {
            jitter: SimDuration::from_micros(50),
            ..link(SimDuration::from_micros(100))
        };
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            if let TransmissionOutcome::Delivered { delay, .. } = cfg.sample(&mut rng) {
                assert!(delay >= SimDuration::from_micros(100));
                assert!(delay <= SimDuration::from_micros(150));
            }
        }
    }

    #[test]
    fn jitter_bound_is_inclusive() {
        // The jitter interval is closed: `gen_range(0..=jitter)` can return the bound
        // itself. Pin that the documented maximum delay is actually attained (with a
        // tiny bound, a few thousand draws hit every value of the support).
        let cfg = LinkConfig {
            jitter: SimDuration::from_micros(3),
            ..link(SimDuration::from_micros(100))
        };
        let mut rng = Rng::seed_from_u64(17);
        let max_delay = SimDuration::from_micros(103);
        let mut edge_hits = 0usize;
        for _ in 0..5_000 {
            if let TransmissionOutcome::Delivered { delay, .. } = cfg.sample(&mut rng) {
                assert!(delay <= max_delay);
                if delay == max_delay {
                    edge_hits += 1;
                }
            }
        }
        assert!(
            edge_hits > 0,
            "the inclusive upper bound must be drawn at least once"
        );
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = LinkConfig {
            bandwidth_bps: Some(1_000_000), // 1 Mbit/s
            ..LinkConfig::default()
        };
        // 1000 bits at 1 Mbit/s
        assert_eq!(cfg.serialization_delay(125), SimDuration::from_millis(1));
        let unlimited = link(SimDuration::ZERO);
        assert_eq!(unlimited.serialization_delay(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn status_operational() {
        assert!(LinkStatus::Up.is_operational());
        assert!(!LinkStatus::Down.is_operational());
        assert!(!LinkStatus::Removed.is_operational());
        assert_eq!(LinkStatus::default(), LinkStatus::Up);
    }

    #[test]
    fn out_of_range_probabilities_clamp() {
        assert_eq!(LinkConfig::default().with_loss(1.5).loss_probability, 1.0);
        assert_eq!(LinkConfig::default().with_loss(-0.5).loss_probability, 0.0);
        assert_eq!(
            LinkConfig::default().with_loss(f64::NAN).loss_probability,
            0.0
        );
        // The exact bounds pass through untouched.
        assert_eq!(LinkConfig::default().with_loss(0.0).loss_probability, 0.0);
        assert_eq!(LinkConfig::default().with_loss(1.0).loss_probability, 1.0);
        assert_eq!(
            LinkConfig::default()
                .with_loss(f64::NEG_INFINITY)
                .loss_probability,
            0.0
        );
        let burst = BurstLoss::gilbert(-0.1, 1.7, 5.0);
        assert_eq!(
            burst,
            BurstLoss {
                p_enter: 0.0,
                p_exit: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0
            }
        );
    }

    #[test]
    fn burst_loss_is_bursty_and_matches_stationary_rate() {
        // p_enter 0.02, p_exit 0.2 → pi_bad = 0.02/0.22 ≈ 9.1% of packets in the
        // bad state, each lost with 0.9 → stationary loss ≈ 8.2%.
        let burst = BurstLoss::gilbert(0.02, 0.2, 0.9);
        let cfg = link(SimDuration::from_micros(10)).with_burst(burst);
        let mut state = BurstState::new(99);
        let n = 50_000;
        let mut lost = 0usize;
        let mut loss_runs = 0usize;
        let mut prev_lost = false;
        for _ in 0..n {
            let is_lost = matches!(cfg.sample_bursty(&mut state), TransmissionOutcome::Lost);
            if is_lost {
                lost += 1;
                if !prev_lost {
                    loss_runs += 1;
                }
            }
            prev_lost = is_lost;
        }
        let rate = lost as f64 / n as f64;
        let expected = burst.stationary_loss();
        assert!(
            (rate - expected).abs() < 0.02,
            "loss rate {rate:.3} vs stationary {expected:.3}"
        );
        // Bursty: losses cluster into runs, so the number of distinct runs is
        // well below the loss count (i.i.d. loss at the same rate would give
        // mean run length ≈ 1.09; the Gilbert channel gives ≈ 1/0.2 · 0.9-ish).
        let mean_run = lost as f64 / loss_runs.max(1) as f64;
        assert!(
            mean_run > 2.0,
            "expected bursty losses, got mean run length {mean_run:.2}"
        );
    }

    #[test]
    fn burst_streams_are_deterministic_per_seed() {
        let cfg = link(SimDuration::from_micros(10)).with_burst(BurstLoss::gilbert(0.05, 0.3, 0.8));
        let run = |seed: u64| -> Vec<TransmissionOutcome> {
            let mut state = BurstState::new(seed);
            (0..500).map(|_| cfg.sample_bursty(&mut state)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn sample_bursty_without_burst_matches_flat_sampling() {
        let cfg = LinkConfig {
            jitter: SimDuration::from_micros(5),
            loss_probability: 0.3,
            duplication_probability: 0.1,
            ..link(SimDuration::from_micros(10))
        };
        let mut flat_rng = Rng::seed_from_u64(21);
        let mut state = BurstState::new(21);
        for _ in 0..200 {
            assert_eq!(cfg.sample(&mut flat_rng), cfg.sample_bursty(&mut state));
        }
    }
}
