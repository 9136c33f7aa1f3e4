//! The one driver under both surfaces that check Theorem 2: a booted [`SdnNetwork`],
//! its [`FaultContext`] and one agenda of workload ticks, workload finishes and fault
//! batches, keyed on `(instant, Order, seq)` with `seq` counting pushes. A scenario
//! run fills it at the bootstrap instant and checks legitimacy between its items; an
//! `sdn-serve` session fills it as commands arrive and fires it tick by tick.

use super::schedule::{FaultContext, FaultEvent};
use super::workload::{Workload, WorkloadReport, WorkloadTick};
use super::Scenario;
use crate::config::ControllerConfig;
use crate::harness::SdnNetwork;
use sdn_netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The rank of an agenda item among the items of one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Order {
    /// A workload tick: it sees the state before any fault of its instant.
    Tick,
    /// A workload's end, after every tick of its instant.
    Finish,
    /// A fault batch.
    Faults,
}

/// What one fired agenda item did.
pub enum Fired {
    /// A workload ticked.
    Tick,
    /// The workload [`Driver::attach`] numbered `.0` finished with report `.1`.
    Finish(usize, WorkloadReport),
    /// A fault batch was applied: one description per change it made.
    Faults(Vec<String>),
}

/// An attached workload, `done` of its `ticks` ticks fired. It is one agenda item (its
/// next tick, then its finish), so a window of any length costs one entry.
struct Work {
    id: usize,
    workload: Box<dyn Workload>,
    interval: SimDuration,
    done: u64,
    ticks: u64,
}

enum Item {
    Work(Work),
    Faults(Vec<FaultEvent>),
}

/// A booted network, its fault engine and its agenda. See the module docs.
pub struct Driver {
    /// The network; callers bring it to an item's instant before firing the item.
    pub net: SdnNetwork,
    /// The fault engine: the only path a fault takes to the network.
    pub faults: FaultContext,
    agenda: BTreeMap<(SimTime, Order, u64), Item>,
    pushed: u64,
    attached: usize,
    pending_faults: usize,
    active_workloads: usize,
}

impl Driver {
    /// Builds `scenario`'s network at `seed` with an empty agenda: the one boot path
    /// of a scenario run and a service session.
    pub fn boot(scenario: &Scenario, seed: u64) -> Driver {
        let topology = scenario.topology.build(scenario.controllers);
        let config = scenario.controller_config.unwrap_or_else(|| {
            ControllerConfig::for_network(topology.controller_count(), topology.switch_count())
        });
        let config = scenario.tune.map_or(config, |tune| tune(config));
        Driver {
            net: SdnNetwork::new(topology, config, scenario.harness.with_seed(seed)),
            faults: FaultContext::new(seed),
            agenda: BTreeMap::new(),
            pushed: 0,
            attached: 0,
            pending_faults: 0,
            active_workloads: 0,
        }
    }

    /// Starts `workload` now, schedules its `k`-th of `ticks` ticks at `now + k *
    /// interval` (`elapsed = k * interval`) and its finish at the last tick's instant,
    /// and returns its number, counted from 0. Panics if `interval` is zero.
    pub fn attach(
        &mut self,
        workload: Box<dyn Workload>,
        interval: SimDuration,
        ticks: u64,
    ) -> usize {
        assert!(
            !interval.is_zero(),
            "workload '{}' has a zero tick interval",
            workload.label()
        );
        let (id, now) = (self.attached, self.net.now());
        let mut work = Work {
            id,
            workload,
            interval,
            done: 0,
            ticks,
        };
        work.workload.start(&mut self.net);
        let (at, order) = match ticks {
            0 => (now, Order::Finish),
            _ => (now + interval, Order::Tick),
        };
        self.agenda
            .insert((at, order, self.pushed), Item::Work(work));
        self.pushed += 1;
        self.attached += 1;
        self.active_workloads += 1;
        id
    }

    /// Queues `events` as one batch at `at`: they fire together, in order.
    pub fn push_faults(&mut self, at: SimTime, events: Vec<FaultEvent>) {
        self.pending_faults += events.len();
        let key = (at, Order::Faults, self.pushed);
        self.agenda.insert(key, Item::Faults(events));
        self.pushed += 1;
    }

    /// The instant of the earliest agenda item.
    pub fn next_at(&self) -> Option<SimTime> {
        self.agenda.first_key_value().map(|(&(at, _, _), _)| at)
    }

    /// Fires the earliest agenda item if it is due by `(at, through)`: before `at`, or
    /// at `at` and ranked no later than `through`.
    pub fn fire_due(&mut self, at: SimTime, through: Order) -> Option<Fired> {
        let (&(when, order, seq), _) = self.agenda.first_key_value()?;
        if (when, order) > (at, through) {
            return None;
        }
        let mut work = match self.agenda.pop_first()?.1 {
            Item::Work(work) => work,
            Item::Faults(events) => {
                self.pending_faults -= events.len();
                let (faults, net) = (&mut self.faults, &mut self.net);
                let done = events.iter().flat_map(|e| faults.apply(net, e));
                return Some(Fired::Faults(done.collect()));
            }
        };
        if order == Order::Finish {
            self.active_workloads -= 1;
            return Some(Fired::Finish(work.id, work.workload.finish(&mut self.net)));
        }
        work.done += 1;
        let (index, elapsed) = (work.done as u32, work.interval.saturating_mul(work.done));
        work.workload
            .tick(&mut self.net, WorkloadTick { index, elapsed });
        let next = if work.done < work.ticks {
            (when + work.interval, Order::Tick)
        } else {
            (when, Order::Finish)
        };
        self.agenda.insert((next.0, next.1, seq), Item::Work(work));
        Some(Fired::Tick)
    }

    /// Fault events queued and not yet fired.
    pub fn pending_faults(&self) -> usize {
        self.pending_faults
    }

    /// Workloads attached and not yet finished.
    pub fn active_workloads(&self) -> usize {
        self.active_workloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LinkSelector, WorkloadReport};
    use sdn_topology::{builders, NodeId};
    use std::sync::{Arc, Mutex};

    /// Records every tick it sees into a shared log, tagged with its name.
    struct Recorder {
        name: &'static str,
        log: Arc<Mutex<Vec<(&'static str, WorkloadTick)>>>,
    }

    impl Workload for Recorder {
        fn label(&self) -> String {
            self.name.to_string()
        }
        fn duration(&self) -> SimDuration {
            SimDuration::ZERO
        }
        fn start(&mut self, _net: &mut SdnNetwork) {}
        fn tick(&mut self, _net: &mut SdnNetwork, tick: WorkloadTick) {
            self.log.lock().unwrap().push((self.name, tick));
        }
        fn finish(&mut self, _net: &mut SdnNetwork) -> WorkloadReport {
            WorkloadReport::new(self.name)
        }
    }

    fn booted() -> Driver {
        let scenario = Scenario::builder("driver")
            .topology(builders::ring(5, 2))
            .build();
        Driver::boot(&scenario, 3)
    }

    /// Fires everything due by `at`, advancing the network to each item first.
    fn fire_through(driver: &mut Driver, at: SimTime) -> Vec<Fired> {
        let mut fired = Vec::new();
        while let Some(when) = driver.next_at().filter(|&when| when <= at) {
            driver.net.run_until(when);
            fired.extend(driver.fire_due(when, Order::Faults));
        }
        fired
    }

    #[test]
    fn ticks_carry_their_elapsed_workload_time() {
        let mut driver = booted();
        let log = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recorder {
            name: "a",
            log: log.clone(),
        };
        let half = SimDuration::from_millis(500);
        assert_eq!(driver.attach(Box::new(recorder), half, 3), 0);
        let fired = fire_through(&mut driver, SimTime::from_secs(10));
        let ticks: Vec<(u32, f64)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|(_, t)| (t.index, t.elapsed.as_secs_f64()))
            .collect();
        assert_eq!(ticks, vec![(1, 0.5), (2, 1.0), (3, 1.5)]);
        assert!(matches!(fired.last(), Some(Fired::Finish(0, _))));
        assert_eq!(driver.active_workloads(), 0);
        assert_eq!(driver.net.now(), SimTime::from_millis(1500));
    }

    #[test]
    fn one_instant_fires_ticks_then_finishes_then_faults_in_push_order() {
        let mut driver = booted();
        let log = Arc::new(Mutex::new(Vec::new()));
        let second = SimDuration::from_secs(1);
        let at = SimTime::from_secs(2);
        // A heal with no partition in force changes nothing.
        driver.push_faults(at, vec![FaultEvent::HealPartition]);
        for (name, interval, ticks) in [("a", second, 2), ("b", SimDuration::from_secs(2), 1)] {
            let log = log.clone();
            driver.attach(Box::new(Recorder { name, log }), interval, ticks);
        }
        assert_eq!((driver.pending_faults(), driver.active_workloads()), (1, 2));
        // Nothing ranked after a finish fires while `through` stops at finishes.
        driver.net.run_until(at);
        while driver.fire_due(at, Order::Finish).is_some() {}
        assert_eq!(driver.pending_faults(), 1);
        let names: Vec<_> = log
            .lock()
            .unwrap()
            .iter()
            .map(|(n, t)| (*n, t.index))
            .collect();
        assert_eq!(names, vec![("a", 1), ("a", 2), ("b", 1)]);
        assert_eq!(driver.active_workloads(), 0);
        assert!(matches!(
            driver.fire_due(at, Order::Faults),
            Some(Fired::Faults(done)) if done.is_empty()
        ));
        assert_eq!((driver.pending_faults(), driver.next_at()), (0, None));
    }

    #[test]
    fn a_batch_fires_whole_and_describes_its_changes() {
        let mut driver = booted();
        let at = SimTime::from_secs(1);
        let (a, b) = (NodeId::new(2), NodeId::new(3));
        let events = vec![
            FaultEvent::FailLink(LinkSelector::Between(a, b)),
            FaultEvent::RestoreLink(a, b),
        ];
        driver.push_faults(at, events);
        assert_eq!(driver.pending_faults(), 2);
        assert!(driver.fire_due(SimTime::ZERO, Order::Faults).is_none());
        match fire_through(&mut driver, at).as_slice() {
            [Fired::Faults(done)] => assert_eq!(done.len(), 2, "{done:?}"),
            _ => panic!("one batch fires"),
        }
        assert_eq!(driver.pending_faults(), 0);
    }
}
