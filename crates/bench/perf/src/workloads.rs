//! The five workloads: their fixed parameters and the scenario each one runs.
//!
//! Topologies, seeds per sample and iteration counts are constants of the benchmark,
//! never flags, so numbers from two checkouts always describe the same work. The
//! `Quick` size (roughly a tenth of the work) exists for smoke runs and for this
//! package's own tests; it is never used for reported numbers.

use renaissance::scenario::{
    ControllerSelector, DegradeSpec, Endpoints, FaultEvent, FaultSchedule, LinkSelector,
    PartitionSpec, Scenario,
};
use sdn_netsim::SimDuration;
use sdn_traffic::engine::{FlowEngineWorkload, FlowSetConfig};

pub const BOOT_RULES: &str = "boot_rules_jf300";
pub const BOOT_EVENTS: &str = "boot_events_grid280";
pub const CHURN: &str = "churn_ft8";
pub const LOAD: &str = "load_ft8_1m";
pub const SERVE: &str = "serve_ft8";

/// Controllers in every workload, and the runner's measurement constants — the
/// `experiments::experiment` skeleton of the fig/table binaries.
pub const CONTROLLERS: usize = 3;
pub const TIMEOUT: SimDuration = SimDuration::from_secs(1_200);
pub const CHECK_EVERY: SimDuration = SimDuration::from_millis(250);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// A flow-engine attachment: the flow set and how many one-second ticks it runs.
#[derive(Clone, Copy, Debug)]
pub struct Flows {
    pub pairs: u32,
    pub ticks: u32,
}

/// Everything that defines one simulation workload. The untraced path turns it into
/// a [`Scenario`]; the traced driver reads the same fields, so both run the same
/// experiment by construction.
#[derive(Clone, Debug)]
pub struct SimPlan {
    pub name: &'static str,
    pub topology: &'static str,
    pub task_delay: SimDuration,
    /// Seeds run back to back in one sample (`K`).
    pub seeds_per_sample: usize,
    /// Seconds one full-size sample takes on the 2-core reference host; `--seconds`
    /// divided by it is the number of timed samples.
    pub nominal_sample_s: f64,
    pub schedule: FaultSchedule,
    pub flows: Option<Flows>,
}

impl SimPlan {
    /// The scenario of one sample: seeds `seed .. seed + K`, one thread.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut builder = Scenario::builder(self.name)
            .network(self.topology)
            .controllers(CONTROLLERS)
            .task_delay(self.task_delay)
            .timeout(TIMEOUT)
            .check_every(CHECK_EVERY)
            .schedule(self.schedule.clone())
            .runs(self.seeds_per_sample)
            .seeds_from(seed)
            .threads(1);
        if let Some(flows) = self.flows {
            builder = builder.workload(move || {
                Box::new(FlowEngineWorkload::new(
                    FlowSetConfig::stress(flows.pairs),
                    flows.ticks,
                ))
            });
        }
        builder.build()
    }
}

/// The plan of the named simulation workload, `None` for `serve_ft8` and unknown
/// names.
pub fn sim_plan(name: &str, size: Size) -> Option<SimPlan> {
    let full = size == Size::Full;
    let ms = SimDuration::from_millis;
    let secs = SimDuration::from_secs;
    let mid_path = FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches));
    Some(match name {
        BOOT_RULES => SimPlan {
            name: BOOT_RULES,
            topology: if full {
                "jellyfish(300, 5, 1)"
            } else {
                "jellyfish(60, 5, 1)"
            },
            task_delay: ms(500),
            seeds_per_sample: if full { 4 } else { 2 },
            nominal_sample_s: 2.3,
            schedule: FaultSchedule::new(),
            flows: None,
        },
        BOOT_EVENTS => SimPlan {
            name: BOOT_EVENTS,
            topology: if full { "grid(14, 20)" } else { "grid(6, 8)" },
            task_delay: ms(500),
            seeds_per_sample: 1,
            nominal_sample_s: 3.3,
            schedule: FaultSchedule::new(),
            flows: None,
        },
        CHURN => SimPlan {
            name: CHURN,
            topology: if full { "fat_tree(8)" } else { "fat_tree(4)" },
            task_delay: ms(200),
            seeds_per_sample: 1,
            nominal_sample_s: 3.5,
            schedule: FaultSchedule::new()
                .at(
                    secs(2),
                    FaultEvent::FlapLink {
                        selector: LinkSelector::RandomSafe { count: 1 },
                        period: secs(12),
                        count: 3,
                    },
                )
                .at(
                    secs(40),
                    FaultEvent::RollingControllerRestart {
                        interval: secs(10),
                        down_for: secs(5),
                        count: 3,
                    },
                )
                .at(
                    secs(75),
                    FaultEvent::Partition {
                        groups: PartitionSpec::Halves,
                        heal_after: Some(secs(10)),
                    },
                )
                .at(
                    secs(95),
                    FaultEvent::DegradeLink(LinkSelector::SameRack, DegradeSpec::gray()),
                )
                .at(secs(97), mid_path)
                .at(
                    secs(110),
                    FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
                ),
            flows: None,
        },
        LOAD => SimPlan {
            name: LOAD,
            topology: if full { "fat_tree(8)" } else { "fat_tree(4)" },
            task_delay: ms(1_000),
            seeds_per_sample: if full { 4 } else { 1 },
            nominal_sample_s: 2.1,
            schedule: FaultSchedule::new().at(secs(10), mid_path),
            flows: Some(Flows {
                pairs: if full { 1_000_000 } else { 100_000 },
                ticks: 30,
            }),
        },
        _ => return None,
    })
}

/// Fixed parameters of `serve_ft8`: a closed loop of one client issuing one
/// connection per request against an in-process server on loopback.
#[derive(Clone, Copy, Debug)]
pub struct ServePlan {
    pub topology: &'static str,
    pub tick_millis: u64,
    /// Seconds one full-size session (loop + replay) takes on the reference host.
    pub nominal_session_s: f64,
    pub warmup_iterations: u32,
    pub iterations: u32,
    /// The fault script fires at `k * script_stride` for `k = 1, 2, 3, 3.5, 4, 4.5`
    /// and the flow attachment at `5 * script_stride`.
    pub script_stride: u32,
    pub flow_pairs: u32,
    pub flow_ticks: u32,
}

pub fn serve_plan(size: Size) -> ServePlan {
    match size {
        Size::Full => ServePlan {
            topology: "fat_tree(8)",
            tick_millis: 250,
            nominal_session_s: 6.0,
            warmup_iterations: 20,
            iterations: 600,
            script_stride: 100,
            flow_pairs: 10_000,
            flow_ticks: 30,
        },
        Size::Quick => ServePlan {
            topology: "fat_tree(4)",
            tick_millis: 250,
            nominal_session_s: 6.0,
            warmup_iterations: 2,
            iterations: 60,
            script_stride: 10,
            flow_pairs: 1_000,
            flow_ticks: 3,
        },
    }
}
