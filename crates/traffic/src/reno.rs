//! A simplified TCP Reno connection model.
//!
//! The paper's throughput experiments (Section 6.4.3) run iperf over TCP Reno between
//! two hosts while a link on the primary path fails. What matters for reproducing
//! Figures 15–20 is Reno's *reaction* to the failover: a burst of retransmissions and
//! out-of-order packets around the failure second, a dip in goodput caused by the
//! congestion window halving (fast recovery) or collapsing (timeout), and a quick
//! return to the pre-failure rate. This module models exactly that: an AIMD congestion
//! window advanced in discrete time steps, driven by "path available / path changed"
//! signals from the routing layer instead of per-packet simulation.

/// Maximum segment size in bytes.
const MSS_BYTES: f64 = 1460.0;
/// Base round-trip time in milliseconds for a one-hop path; each extra hop adds
/// [`RTT_PER_HOP_MS`].
const BASE_RTT_MS: f64 = 10.0;
/// Additional round-trip time per path hop, in milliseconds.
const RTT_PER_HOP_MS: f64 = 2.0;
/// Bottleneck link capacity in megabits per second.
const LINK_CAPACITY_MBPS: f64 = 1000.0;
/// Fraction of the link capacity a single TCP flow can reach in steady state
/// (protocol overheads, scheduler interference — roughly 0.5 in the paper's Mininet
/// measurements, which hover around 500 Mbit/s on 1 Gbit/s links).
const ACHIEVABLE_UTILIZATION: f64 = 0.52;

/// What happened to the flow's path during one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathEvent {
    /// Same path as before, everything flowing.
    Stable,
    /// The path changed (local fast-failover or a new primary installed): packets in
    /// flight on the old path are lost or reordered.
    Rerouted,
    /// No path at all: every packet in flight is lost and the retransmission timer fires.
    Unavailable,
}

/// Per-step observation of the connection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepOutcome {
    /// Goodput achieved during this step, in megabits per second.
    pub throughput_mbps: f64,
    /// Segments sent during this step.
    pub segments_sent: u64,
    /// Segments retransmitted during this step.
    pub retransmissions: u64,
    /// Segments that arrived out of order during this step.
    pub out_of_order: u64,
    /// Segments flagged "BAD TCP" by a Wireshark-like classifier (retransmissions plus
    /// spurious/duplicate ACKs) during this step.
    pub bad_tcp: u64,
}

impl StepOutcome {
    /// Retransmitted fraction of the segments sent in this step, as a percentage.
    pub fn retransmission_pct(&self) -> f64 {
        percentage(self.retransmissions, self.segments_sent)
    }

    /// Out-of-order fraction of the segments sent in this step, as a percentage.
    pub fn out_of_order_pct(&self) -> f64 {
        percentage(self.out_of_order, self.segments_sent)
    }

    /// BAD-TCP fraction of the segments sent in this step, as a percentage.
    pub fn bad_tcp_pct(&self) -> f64 {
        percentage(self.bad_tcp, self.segments_sent)
    }
}

fn percentage(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// A model TCP Reno connection.
#[derive(Clone, Debug, PartialEq)]
pub struct RenoConnection {
    /// Congestion window in segments.
    cwnd: f64,
    /// Slow-start threshold in segments.
    ssthresh: f64,
}

impl Default for RenoConnection {
    /// A fresh connection in slow start.
    fn default() -> Self {
        RenoConnection {
            cwnd: 10.0,
            ssthresh: f64::MAX,
        }
    }
}

impl RenoConnection {
    /// Advances the connection by one second over a path of `path_hops` hops that
    /// experienced `event`.
    pub fn step(&mut self, path_hops: usize, event: PathEvent) -> StepOutcome {
        let rtt_ms = BASE_RTT_MS + RTT_PER_HOP_MS * path_hops as f64;
        let rtt_s = (rtt_ms / 1000.0).max(1e-4);
        let rtts_in_step = (1.0 / rtt_s).max(1.0);
        // The window that fully utilises the achievable share of the bottleneck.
        let capacity_window =
            (LINK_CAPACITY_MBPS * ACHIEVABLE_UTILIZATION * 1_000_000.0 / 8.0 * rtt_s) / MSS_BYTES;

        let mut outcome = StepOutcome::default();
        let in_flight = self.cwnd.min(capacity_window);

        match event {
            PathEvent::Unavailable => {
                // Retransmission timeout: everything in flight is lost, slow start again.
                outcome.segments_sent = in_flight.round() as u64;
                outcome.retransmissions = outcome.segments_sent;
                outcome.bad_tcp = outcome.segments_sent;
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 1.0;
                outcome.throughput_mbps = 0.0;
                return outcome;
            }
            PathEvent::Rerouted => {
                // Fast recovery: the in-flight window is partially lost / reordered and
                // the congestion window is halved once.
                let lost = in_flight * 0.5;
                outcome.retransmissions = lost.round() as u64;
                outcome.out_of_order = (in_flight * 0.1).round() as u64;
                outcome.bad_tcp = (lost * 1.2).round() as u64;
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
            }
            PathEvent::Stable => {}
        }

        // Window growth over the RTTs contained in this step. The window is allowed to
        // grow past the bandwidth-delay product (buffers / receive window), which is why
        // — exactly as in the paper's measurements — a single fast-recovery halving
        // barely dents the achieved rate: the halved window still fills the pipe.
        let window_cap = capacity_window * 2.5;
        let mut sent = 0.0;
        for _ in 0..rtts_in_step.round() as u64 {
            sent += self.cwnd.min(capacity_window);
            if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd * 2.0).min(window_cap);
            } else {
                self.cwnd += 1.0;
            }
            self.cwnd = self.cwnd.min(window_cap);
        }
        // Retransmitted segments do not contribute to goodput.
        let goodput_segments = (sent - outcome.retransmissions as f64).max(0.0);
        outcome.segments_sent += sent.round() as u64 + outcome.retransmissions;
        // Goodput over the one-second step.
        outcome.throughput_mbps = (goodput_segments * MSS_BYTES * 8.0) / 1_000_000.0;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_state(conn: &mut RenoConnection, hops: usize) -> f64 {
        let mut last = 0.0;
        for _ in 0..20 {
            last = conn.step(hops, PathEvent::Stable).throughput_mbps;
        }
        last
    }

    #[test]
    fn steady_state_reaches_achievable_share_of_capacity() {
        let mut conn = RenoConnection::default();
        let rate = steady_state(&mut conn, 8);
        let target = LINK_CAPACITY_MBPS * ACHIEVABLE_UTILIZATION;
        assert!(rate > target * 0.85, "rate {rate} too low");
        assert!(rate < LINK_CAPACITY_MBPS, "rate {rate} exceeds the link");
    }

    #[test]
    fn reroute_causes_a_dip_and_retransmissions() {
        let mut conn = RenoConnection::default();
        let before = steady_state(&mut conn, 8);
        let dip = conn.step(8, PathEvent::Rerouted);
        assert!(dip.retransmissions > 0);
        assert!(dip.out_of_order > 0);
        assert!(dip.bad_tcp >= dip.retransmissions);
        assert!(dip.throughput_mbps < before);
        assert!(dip.retransmission_pct() > 0.0);
        assert!(dip.bad_tcp_pct() >= dip.retransmission_pct());
        // Recovery within a few seconds.
        let mut after = 0.0;
        for _ in 0..5 {
            after = conn.step(8, PathEvent::Stable).throughput_mbps;
        }
        assert!(after > before * 0.9, "after {after} vs before {before}");
    }

    #[test]
    fn unavailable_path_collapses_the_window() {
        let mut conn = RenoConnection::default();
        let _ = steady_state(&mut conn, 4);
        let outage = conn.step(4, PathEvent::Unavailable);
        assert_eq!(outage.throughput_mbps, 0.0);
        assert!(outage.retransmission_pct() >= 99.0);
        assert!(conn.cwnd <= 1.0);
        // Slow start brings the rate back up quickly.
        let mut rate = 0.0;
        for _ in 0..10 {
            rate = conn.step(4, PathEvent::Stable).throughput_mbps;
        }
        assert!(rate > 100.0);
    }

    #[test]
    fn longer_paths_have_lower_or_equal_throughput_growth() {
        let mut short = RenoConnection::default();
        let mut long = RenoConnection::default();
        let s = short.step(2, PathEvent::Stable).throughput_mbps;
        let l = long.step(20, PathEvent::Stable).throughput_mbps;
        assert!(s >= l, "short {s} vs long {l}");
    }

    #[test]
    fn counters_accumulate_and_percentages_handle_zero() {
        let mut conn = RenoConnection::default();
        let first = conn.step(3, PathEvent::Stable);
        let second = conn.step(3, PathEvent::Stable);
        assert!(
            second.segments_sent >= first.segments_sent,
            "the window grows"
        );
        assert_eq!(first.retransmissions + second.retransmissions, 0);
        let empty = StepOutcome::default();
        assert_eq!(empty.retransmission_pct(), 0.0);
        assert_eq!(empty.out_of_order_pct(), 0.0);
        assert_eq!(empty.bad_tcp_pct(), 0.0);
    }
}
