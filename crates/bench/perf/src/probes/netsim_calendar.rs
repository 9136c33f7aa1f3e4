//! `netsim.calendar`: one push + pop pair on the indexed calendar queue.
//!
//! The schedule has the round-interleaved shape of `benches/hotpath.rs` — per-link
//! delivery bursts at jittered latencies plus per-node periodic timers, pushed as
//! simulated time reaches each round — sized to the workload's own topology.

use super::secs_per_op;
use sdn_netsim::calendar::{CalendarQueue, EventRef};
use sdn_netsim::SimTime;
use sdn_rng::Rng;
use sdn_topology::Graph;

const ROUNDS: u64 = 40;
const ROUND_US: u64 = 200_000;

fn schedule(graph: &Graph) -> Vec<Vec<EventRef>> {
    let mut rng = Rng::seed_from_u64(0xA6E0DA);
    let mut seq = 0u64;
    let mut next = |at: u64, slot: u32| {
        let ev = EventRef {
            at: SimTime::from_micros(at),
            seq,
            slot,
        };
        seq += 1;
        ev
    };
    (0..ROUNDS)
        .map(|round| {
            let base = round * ROUND_US;
            let mut burst = Vec::new();
            for link in graph.links() {
                burst.push(next(base + 50 + rng.next_u64() % 500, link.a.index()));
            }
            for (i, _) in graph.nodes().enumerate() {
                burst.push(next(base + ROUND_US + (i as u64 * 7) % 1_000, i as u32));
            }
            burst
        })
        .collect()
}

fn drain(schedule: &[Vec<EventRef>]) -> u64 {
    let mut agenda = CalendarQueue::new();
    let mut popped = 0u64;
    for (round, burst) in schedule.iter().enumerate() {
        let round_end = SimTime::from_micros((round as u64 + 1) * ROUND_US);
        for &ev in burst {
            agenda.push(ev);
        }
        while agenda.peek().is_some_and(|ev| ev.at < round_end) {
            popped += u64::from(agenda.pop().is_some());
        }
    }
    while agenda.pop().is_some() {
        popped += 1;
    }
    popped
}

/// Nanoseconds per push + pop pair.
pub fn op_ns(graph: &Graph) -> f64 {
    let schedule = schedule(graph);
    let events: usize = schedule.iter().map(Vec::len).sum();
    secs_per_op(events, || drain(&schedule)) * 1e9
}
