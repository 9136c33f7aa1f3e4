//! Heavy-traffic flow engine: aggregated flow batches charged against link capacity.
//!
//! The iperf model in [`crate::iperf`] follows *one* TCP flow in mechanistic detail.
//! This module is the opposite trade: millions of concurrent flows, no per-packet or
//! per-window state, progress charged in bulk once per coarse service tick. It is how
//! the reproduction asks the paper's question at datacenter scale — *what does traffic
//! experience while the control plane bootstraps or recovers?* — where simulating
//! individual segments would be hopeless.
//!
//! The pieces:
//!
//! * [`flows`] — [`FlowBatch`], the struct-of-arrays population grouped into path
//!   classes,
//! * [`matrix`] — seeded [`TrafficMatrix`] spatial shapes (uniform / hotspot /
//!   permutation),
//! * [`generators`] — size mixes, arrival processes, and request/response fan-out
//!   expanding a [`FlowSetConfig`] into a batch,
//! * [`fct`] — flow-completion-time telemetry ([`FctCollector`] / [`FctSummary`]),
//! * this module — the [`FlowEngine`] itself plus [`FlowEngineWorkload`], the
//!   scenario-API adapter.
//!
//! # The progress model
//!
//! Flows are charged by *path class*: all flows with one (source, destination) pair
//! share a path, so the engine resolves it once per class and charges it once per
//! tick. A retarget follows each class's next hops (a per-destination BFS tree over
//! the operational topology's CSR snapshot) into a list of directed arcs. Per service
//! tick the engine counts the active flows of each class and adds that count to every
//! arc on the class's path; each class's flows then get `capacity / bottleneck` worth
//! of bytes, the bottleneck being the *maximum* load along the path — a classic
//! max-min-flavoured fair-share approximation — delivered flow by flow in activation
//! order. Classes whose destination is unreachable stall: their flows deliver nothing
//! but stay active, which is exactly the recovery signal the under-load campaign cells
//! measure.
//!
//! Class paths are rebuilt only when the simulator's topology generation changes
//! ([`FlowEngine::retarget`]); between changes a tick is pure array arithmetic.
//!
//! Everything is deterministic: generation is a single seeded RNG stream, stepping is
//! sequential over index-ordered arrays, and the FCT digest merges deterministically —
//! so campaign metrics are bit-identical across `--threads 1` and `--threads 4`.
//!
//! # Example
//!
//! ```
//! use sdn_topology::{builders, NodeId};
//! use sdn_traffic::engine::{generate, EngineConfig, FlowEngine, FlowSetConfig};
//!
//! let net = builders::fat_tree(4, 2);
//! let batch = generate(&net.switches, &FlowSetConfig::stress(1_000), 42);
//! let mut engine = FlowEngine::new(batch, EngineConfig::default());
//! engine.retarget(&net.switch_graph, |_| true);
//! while !engine.is_done() {
//!     engine.step();
//! }
//! assert_eq!(engine.fct().completed(), 1_000);
//! ```

pub mod fct;
pub mod flows;
pub mod generators;
pub mod matrix;

pub use fct::{FctCollector, FctSummary};
pub use flows::{FlowBatch, FlowSpec};
pub use generators::{generate, Arrival, FanOut, FlowMix, FlowSetConfig};
pub use matrix::{MatrixSampler, TrafficMatrix};

use renaissance::scenario::{Workload, WorkloadReport, WorkloadTick};
use renaissance::SdnNetwork;
use sdn_netsim::SimDuration;
use sdn_topology::{BfsScratch, Graph, NodeId};

/// Default seed salt mixed into the harness seed by [`FlowEngineWorkload`], so the
/// flow population is decorrelated from the harness's own random streams.
const WORKLOAD_SEED_SALT: u64 = 0x666c_6f77; // "flow"

/// Capacity and cadence parameters of a [`FlowEngine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Capacity of every link in megabits per second (matches the iperf model's
    /// default bottleneck).
    pub link_capacity_mbps: f64,
    /// Length of one service tick in seconds.
    pub tick_secs: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            link_capacity_mbps: 1000.0,
            tick_secs: 1.0,
        }
    }
}

/// What one [`FlowEngine::step`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TickStats {
    /// The 0-based tick that was just serviced.
    pub tick: u32,
    /// Flows that activated on this tick.
    pub activated: usize,
    /// Flows active during this tick (after activation, before completions retire).
    pub concurrent: usize,
    /// Flows that completed on this tick.
    pub completed: usize,
    /// Active flows with no usable path this tick (delivered nothing).
    pub stalled: usize,
    /// Bytes delivered across all flows this tick.
    pub delivered_bytes: f64,
}

/// The batched heavy-traffic engine. See the module docs for the progress model.
#[derive(Clone, Debug)]
pub struct FlowEngine {
    config: EngineConfig,
    batch: FlowBatch,
    /// Indices of active (started, not finished) flows, in activation order.
    active: Vec<u32>,
    fct: FctCollector,
    /// Per path class `c`, `path_arcs[path_start[c]..path_start[c + 1]]` are the
    /// directed-arc indices of its next-hop chain, source first, in the snapshot the
    /// routes were built against.
    path_start: Vec<u32>,
    path_arcs: Vec<u32>,
    /// Per path class: does its chain reach the destination? A class that does not
    /// stalls; any arcs its chain did follow still carry its flows.
    routable: Vec<bool>,
    /// Per-directed-arc flow count of the current tick.
    arc_load: Vec<u32>,
    /// Per path class: active flows this tick (all zero between ticks).
    class_flows: Vec<u32>,
    /// Per path class: the bytes each of its flows delivers this tick, `None` when
    /// it stalls. Only classes with active flows are current.
    share: Vec<Option<f64>>,
    /// The classes with active flows this tick (empty between ticks).
    live: Vec<u32>,
    scratch: BfsScratch,
    tick: u32,
    activated_total: usize,
    peak_concurrent: usize,
}

impl FlowEngine {
    /// Creates an engine over a generated batch. Call [`FlowEngine::retarget`] before
    /// the first [`FlowEngine::step`]; until then every flow is unroutable.
    pub fn new(batch: FlowBatch, config: EngineConfig) -> Self {
        let classes = batch.classes().len();
        FlowEngine {
            config,
            batch,
            active: Vec::new(),
            fct: FctCollector::new(),
            path_start: vec![0; classes + 1],
            path_arcs: Vec::new(),
            routable: vec![false; classes],
            arc_load: Vec::new(),
            class_flows: vec![0; classes],
            share: vec![None; classes],
            live: Vec::new(),
            scratch: BfsScratch::new(),
            tick: 0,
            activated_total: 0,
            peak_concurrent: 0,
        }
    }

    /// Rebuilds the class paths against `graph` (typically the simulator's
    /// operational topology). `relay` says which nodes may forward traffic — pass
    /// `|n| n.is_switch(n_controllers)` for in-band semantics, or `|_| true` on a
    /// switches-only graph.
    ///
    /// One filtered BFS runs per distinct destination, and each path class with that
    /// destination follows the BFS tree from its source once. Classes whose endpoints
    /// left the graph simply stall until a later retarget brings them back.
    pub fn retarget(&mut self, graph: &Graph, relay: impl Fn(NodeId) -> bool) {
        let flat = graph.snapshot();
        let relay_ok: Vec<bool> = (0..flat.node_count() as u32)
            .map(|idx| relay(flat.node_at(idx)))
            .collect();
        self.path_arcs.clear();
        let (mut searched, mut dst) = (None, None);
        for (c, &(src, slot)) in self.batch.classes().iter().enumerate() {
            if searched != Some(slot) {
                searched = Some(slot);
                dst = flat.index_of(self.batch.destinations()[slot as usize]);
                if let Some(d) = dst {
                    flat.bfs_filtered(d, &mut self.scratch, |u| relay_ok[u as usize]);
                }
            }
            self.routable[c] = match (flat.index_of(src), dst) {
                (Some(mut u), Some(d)) => {
                    // The parent in a BFS tree rooted at the destination *is* the next
                    // hop; its arc index is the parent's position in u's ascending
                    // neighbor row. The chain ends at the root, or at an unreached u.
                    while let Some(parent) = self.scratch.parent_of(u) {
                        let pos = flat.neighbor_indices(u).partition_point(|&v| v < parent);
                        self.path_arcs.push(flat.offsets()[u as usize] + pos as u32);
                        u = parent;
                    }
                    u == d
                }
                _ => false,
            };
            self.path_start[c + 1] = self.path_arcs.len() as u32;
        }
        self.arc_load.clear();
        self.arc_load.resize(flat.arc_targets().len(), 0);
    }

    /// Services one tick: activates this tick's flows, counts active flows per path
    /// class, charges each class's count to the arcs of its path, gives each class's
    /// flows its bottleneck share, delivers it flow by flow, records completions, and
    /// retires finished flows.
    pub fn step(&mut self) -> TickStats {
        let tick = self.tick;
        let activating = self.batch.activating(tick);
        let activated = activating.len();
        self.activated_total += activated;
        self.active.extend(activating.map(|i| i as u32));
        let concurrent = self.active.len();
        self.peak_concurrent = self.peak_concurrent.max(concurrent);

        for &i in &self.active {
            let c = self.batch.class(i as usize);
            if self.class_flows[c as usize] == 0 {
                self.live.push(c);
            }
            self.class_flows[c as usize] += 1;
        }
        let path = |c: usize| {
            &self.path_arcs[self.path_start[c] as usize..self.path_start[c + 1] as usize]
        };
        self.arc_load.iter_mut().for_each(|l| *l = 0);
        for &c in &self.live {
            for &arc in path(c as usize) {
                self.arc_load[arc as usize] += self.class_flows[c as usize];
            }
        }
        // A class's rate is the capacity divided by the worst (largest) load along
        // its path. A zero-hop path delivers at full capacity.
        let capacity_bytes_per_tick =
            self.config.link_capacity_mbps * 1e6 / 8.0 * self.config.tick_secs;
        for &c in &self.live {
            let c = c as usize;
            self.class_flows[c] = 0;
            self.share[c] = self.routable[c].then(|| {
                let bottleneck = path(c).iter().map(|&arc| self.arc_load[arc as usize]).max();
                capacity_bytes_per_tick / f64::from(bottleneck.unwrap_or(0).max(1))
            });
        }
        self.live.clear();

        let mut delivered_total = 0.0;
        let mut completed = 0usize;
        let mut stalled = 0usize;
        for &i in &self.active {
            let i = i as usize;
            let Some(share) = self.share[self.batch.class(i) as usize] else {
                stalled += 1;
                continue;
            };
            delivered_total += self.batch.deliver(i, share);
            if self.batch.remaining(i) == 0.0 {
                let fct_s = f64::from(tick + 1 - self.batch.start_tick(i)) * self.config.tick_secs;
                self.fct.record_completion(fct_s);
                completed += 1;
            }
        }
        self.fct.credit_bytes(delivered_total);
        let batch = &self.batch;
        self.active.retain(|&i| batch.remaining(i as usize) > 0.0);
        self.tick = tick + 1;
        TickStats {
            tick,
            activated,
            concurrent,
            completed,
            stalled,
            delivered_bytes: delivered_total,
        }
    }

    /// `true` once every flow has activated and completed.
    pub fn is_done(&self) -> bool {
        self.activated_total == self.batch.len() && self.active.is_empty()
    }

    /// The completion-time / delivered-bytes telemetry collected so far.
    pub fn fct(&self) -> &FctCollector {
        &self.fct
    }

    /// The flow population this engine runs.
    pub fn batch(&self) -> &FlowBatch {
        &self.batch
    }

    /// Number of currently active flows.
    pub fn concurrent(&self) -> usize {
        self.active.len()
    }

    /// The highest concurrent-flow count observed on any tick.
    pub fn peak_concurrent(&self) -> usize {
        self.peak_concurrent
    }

    /// The next tick [`FlowEngine::step`] will service.
    pub fn tick(&self) -> u32 {
        self.tick
    }
}

/// The flow engine as a scenario [`Workload`].
///
/// On start it generates the flow population over the network's switches (seeded from
/// the harness seed so scenario repeats are bit-identical), builds routes against the
/// operational topology, and then steps the engine once per workload tick — rebuilding
/// routes only when the simulator's topology generation changes. The report carries
/// per-tick `concurrent_flows` / `completed_flows` / `stalled_flows` /
/// `achieved_mbps` series and the `fct_s` completion-time digest.
///
/// The workload observes the simulator but never perturbs it, so adding it to a
/// scenario leaves every other workload's numbers untouched.
#[derive(Debug)]
pub struct FlowEngineWorkload {
    config: FlowSetConfig,
    duration_secs: u32,
    seed_salt: u64,
    engine: Option<FlowEngine>,
    generation: u64,
    n_controllers: usize,
    concurrent: Vec<f64>,
    completed: Vec<f64>,
    stalled: Vec<f64>,
    achieved: Vec<f64>,
}

impl FlowEngineWorkload {
    /// A flow-engine workload running `config` for `duration_secs` service ticks.
    pub fn new(config: FlowSetConfig, duration_secs: u32) -> Self {
        FlowEngineWorkload {
            config,
            duration_secs,
            seed_salt: WORKLOAD_SEED_SALT,
            engine: None,
            generation: 0,
            n_controllers: 0,
            concurrent: Vec::new(),
            completed: Vec::new(),
            stalled: Vec::new(),
            achieved: Vec::new(),
        }
    }

    /// Overrides the salt mixed into the harness seed (to run decorrelated flow
    /// populations in one scenario).
    pub fn with_seed_salt(mut self, salt: u64) -> Self {
        self.seed_salt = salt;
        self
    }

    fn retarget_engine(&mut self, net: &SdnNetwork) {
        let n_controllers = self.n_controllers;
        if let Some(engine) = self.engine.as_mut() {
            engine.retarget(net.sim().operational_graph(), |node| {
                node.is_switch(n_controllers)
            });
        }
        self.generation = net.sim().topology_generation();
    }
}

impl Workload for FlowEngineWorkload {
    fn label(&self) -> String {
        "flow_engine".to_string()
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_secs(u64::from(self.duration_secs))
    }

    fn start(&mut self, net: &mut SdnNetwork) {
        let endpoints = net.topology().switches.clone();
        let seed = net.harness_config().seed ^ self.seed_salt;
        let batch = generate(&endpoints, &self.config, seed);
        self.n_controllers = net.controller_config().n_controllers;
        self.engine = Some(FlowEngine::new(batch, EngineConfig::default()));
        self.retarget_engine(net);
    }

    fn tick(&mut self, net: &mut SdnNetwork, _tick: WorkloadTick) {
        if net.sim().topology_generation() != self.generation {
            self.retarget_engine(net);
        }
        let engine = self
            .engine
            .as_mut()
            // stancheck: allow(unwrap-expect) — Workload trait contract: the ScenarioRunner always calls start() before the first tick()
            .expect("tick before start");
        let stats = engine.step();
        self.concurrent.push(stats.concurrent as f64);
        self.completed.push(stats.completed as f64);
        self.stalled.push(stats.stalled as f64);
        self.achieved
            .push(stats.delivered_bytes * 8.0 / 1e6 / engine.config.tick_secs);
    }

    fn finish(&mut self, _net: &mut SdnNetwork) -> WorkloadReport {
        // stancheck: allow(unwrap-expect) — Workload trait contract: finish() only runs after start() on the same agenda
        let engine = self.engine.take().expect("finish before start");
        let mut report = WorkloadReport::new(self.label());
        report.push_note("matrix", self.config.matrix.label());
        report.push_note("flows", engine.batch().len().to_string());
        report.push_note("peak_concurrent", engine.peak_concurrent().to_string());
        report.push_note("completed", engine.fct().completed().to_string());
        report.push_series("concurrent_flows", std::mem::take(&mut self.concurrent));
        report.push_series("completed_flows", std::mem::take(&mut self.completed));
        report.push_series("stalled_flows", std::mem::take(&mut self.stalled));
        report.push_series("achieved_mbps", std::mem::take(&mut self.achieved));
        report.push_digest("fct_s", engine.fct().digest().clone());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaissance::scenario::{Endpoints, FaultEvent, LinkSelector, Scenario};
    use sdn_topology::builders;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn line3() -> Graph {
        Graph::from_links([(n(0), n(1)), (n(1), n(2))])
    }

    /// 8 Mbit/s capacity = exactly 1 MB per one-second tick, so shares are round.
    fn mb_config() -> EngineConfig {
        EngineConfig {
            link_capacity_mbps: 8.0,
            tick_secs: 1.0,
        }
    }

    #[test]
    fn two_flows_share_their_common_bottleneck_link() {
        let batch = FlowBatch::from_specs(vec![
            FlowSpec {
                src: n(0),
                dst: n(2),
                bytes: 1e6,
                start_tick: 0,
            },
            FlowSpec {
                src: n(0),
                dst: n(1),
                bytes: 1e6,
                start_tick: 0,
            },
        ]);
        let mut engine = FlowEngine::new(batch, mb_config());
        engine.retarget(&line3(), |_| true);
        // Both flows cross arc 0->1 (load 2), so each gets 0.5 MB per tick and
        // finishes its 1 MB on tick 2.
        let t0 = engine.step();
        assert_eq!(t0.concurrent, 2);
        assert_eq!(t0.completed, 0);
        assert_eq!(t0.delivered_bytes, 1e6);
        let t1 = engine.step();
        assert_eq!(t1.completed, 2);
        assert!(engine.is_done());
        let summary = engine.fct().summary();
        assert_eq!(summary.count, 2);
        assert_eq!(summary.p50_s, 2.0);
        assert_eq!(summary.max_s, 2.0);
        assert_eq!(engine.fct().delivered_bytes(), 2e6);
    }

    #[test]
    fn lone_flow_runs_at_full_capacity() {
        let batch = FlowBatch::from_specs(vec![FlowSpec {
            src: n(0),
            dst: n(2),
            bytes: 2e6,
            start_tick: 0,
        }]);
        let mut engine = FlowEngine::new(batch, mb_config());
        engine.retarget(&line3(), |_| true);
        let t0 = engine.step();
        assert_eq!(t0.delivered_bytes, 1e6);
        let t1 = engine.step();
        assert_eq!(t1.completed, 1);
        assert_eq!(engine.fct().summary().p50_s, 2.0);
    }

    #[test]
    fn unroutable_flows_stall_and_resume_after_retarget() {
        let square = Graph::from_links([(n(0), n(1)), (n(1), n(2)), (n(2), n(3)), (n(0), n(3))]);
        let batch = FlowBatch::from_specs(vec![FlowSpec {
            src: n(0),
            dst: n(2),
            bytes: 2e6,
            start_tick: 0,
        }]);
        let mut engine = FlowEngine::new(batch, mb_config());
        // Routes built against a graph where the destination is unreachable.
        let broken = Graph::from_links([(n(0), n(1)), (n(2), n(3))]);
        engine.retarget(&broken, |_| true);
        let t0 = engine.step();
        assert_eq!(t0.stalled, 1);
        assert_eq!(t0.delivered_bytes, 0.0);
        assert_eq!(engine.concurrent(), 1, "stalled flows stay active");
        // The repaired topology routes 0 -> 1 -> 2 (ascending tie-break).
        engine.retarget(&square, |_| true);
        let t1 = engine.step();
        assert_eq!(t1.stalled, 0);
        assert_eq!(t1.delivered_bytes, 1e6);
        let t2 = engine.step();
        assert_eq!(t2.completed, 1);
        // FCT counts from activation, stall included: 3 ticks.
        assert_eq!(engine.fct().summary().p50_s, 3.0);
    }

    #[test]
    fn controllers_are_never_relayed_through() {
        // 0 and 2 are switches bridged by controller 1 and by switch path 3-4.
        let g = Graph::from_links([
            (n(0), n(1)),
            (n(1), n(2)),
            (n(0), n(3)),
            (n(3), n(4)),
            (n(4), n(2)),
        ]);
        let batch = FlowBatch::from_specs(vec![FlowSpec {
            src: n(0),
            dst: n(2),
            bytes: 1e6,
            start_tick: 0,
        }]);
        let mut engine = FlowEngine::new(batch, mb_config());
        engine.retarget(&g, |node| node != n(1));
        let t0 = engine.step();
        assert_eq!(t0.stalled, 0);
        // The 3-hop switch detour carries the flow even though the controller
        // shortcut is 2 hops.
        assert_eq!(t0.delivered_bytes, 1e6);
        assert_eq!(t0.completed, 1);
    }

    #[test]
    fn staggered_arrivals_follow_their_buckets() {
        let batch = FlowBatch::from_specs(vec![
            FlowSpec {
                src: n(0),
                dst: n(2),
                bytes: 1e6,
                start_tick: 0,
            },
            FlowSpec {
                src: n(2),
                dst: n(0),
                bytes: 1e6,
                start_tick: 2,
            },
        ]);
        let mut engine = FlowEngine::new(batch, mb_config());
        engine.retarget(&line3(), |_| true);
        assert_eq!(engine.step().concurrent, 1);
        assert!(!engine.is_done(), "a flow is still waiting to activate");
        assert_eq!(engine.step().concurrent, 0);
        let t2 = engine.step();
        assert_eq!(t2.activated, 1);
        assert_eq!(t2.concurrent, 1);
        assert_eq!(t2.completed, 1);
        assert!(engine.is_done());
        assert_eq!(engine.peak_concurrent(), 1);
    }

    #[test]
    fn engine_runs_are_bit_identical() {
        let net = builders::fat_tree(4, 2);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::HotspotPod {
                groups: 4,
                hot_fraction: 0.5,
            },
            mix: FlowMix::datacenter(),
            arrival: Arrival::Uniform { over_ticks: 5 },
            pairs: 5_000,
            fan_out: None,
        };
        let run = || {
            let batch = generate(&net.switches, &config, 42);
            let mut engine = FlowEngine::new(batch, EngineConfig::default());
            engine.retarget(&net.switch_graph, |_| true);
            let mut stats = Vec::new();
            for _ in 0..50 {
                stats.push(engine.step());
                if engine.is_done() {
                    break;
                }
            }
            (stats, engine.fct().clone())
        };
        let (stats_a, fct_a) = run();
        let (stats_b, fct_b) = run();
        assert_eq!(stats_a, stats_b);
        assert_eq!(fct_a, fct_b);
        assert!(fct_a.completed() > 0);
    }

    #[test]
    fn under_load_scenario_is_bit_identical_across_thread_counts() {
        // The campaign's `*_under_load` cells ride this property: fanning seeds over
        // worker threads — or re-running the whole scenario — must not change a
        // single bit of the reports, FCT digests included.
        let scenario = |threads: usize| {
            Scenario::builder("under-load-determinism")
                .network("fat_tree(4)")
                .task_delay(SimDuration::from_millis(200))
                .runs(4)
                .seeds_from(7)
                .threads(threads)
                .workload(|| Box::new(FlowEngineWorkload::new(FlowSetConfig::stress(5_000), 12)))
                .fault_at(
                    SimDuration::from_secs(5),
                    FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
                )
                .run()
        };
        let sequential = scenario(1);
        let parallel = scenario(4);
        assert_eq!(sequential, parallel);
        assert_eq!(
            parallel,
            scenario(4),
            "repeat runs must also be bit-identical"
        );
        let wl = parallel.runs[0]
            .workload("flow_engine")
            .expect("flow-engine report");
        let fct = wl.digest("fct_s").expect("fct digest");
        assert!(fct.count() > 0, "flows must complete under load");
        assert!(wl.series("concurrent_flows").is_some());
    }

    /// The engine before path classes, written out literally: per tick, pass one
    /// walks every active flow's next-hop chain to count flows per arc, and pass two
    /// walks it again for the bottleneck and delivers.
    struct PerFlowReference {
        config: EngineConfig,
        batch: FlowBatch,
        active: Vec<u32>,
        fct: FctCollector,
        flat: sdn_topology::FlatGraph,
        next_arc: Vec<u32>,
        node_count: usize,
        src_idx: Vec<u32>,
        dst_idx: Vec<u32>,
        arc_load: Vec<u32>,
        scratch: BfsScratch,
        tick: u32,
    }

    const NO_ARC: u32 = u32::MAX;
    const NO_INDEX: u32 = sdn_topology::flat::NO_INDEX;

    impl PerFlowReference {
        fn new(batch: FlowBatch, config: EngineConfig) -> Self {
            let flows = batch.len();
            PerFlowReference {
                config,
                batch,
                active: Vec::new(),
                fct: FctCollector::new(),
                flat: sdn_topology::FlatGraph::default(),
                next_arc: Vec::new(),
                node_count: 0,
                src_idx: vec![NO_INDEX; flows],
                dst_idx: vec![NO_INDEX; flows],
                arc_load: Vec::new(),
                scratch: BfsScratch::new(),
                tick: 0,
            }
        }

        fn retarget(&mut self, graph: &Graph, relay: impl Fn(NodeId) -> bool) {
            self.flat = graph.snapshot();
            let n = self.flat.node_count();
            self.node_count = n;
            let relay_ok: Vec<bool> = (0..n as u32)
                .map(|idx| relay(self.flat.node_at(idx)))
                .collect();
            let slots = self.batch.destinations().len();
            self.next_arc.clear();
            self.next_arc.resize(slots * n, NO_ARC);
            for (slot, &dst) in self.batch.destinations().iter().enumerate() {
                let Some(d) = self.flat.index_of(dst) else {
                    continue;
                };
                self.flat
                    .bfs_filtered(d, &mut self.scratch, |u| relay_ok[u as usize]);
                let base = slot * n;
                for u in 0..n as u32 {
                    if u == d {
                        continue;
                    }
                    let Some(parent) = self.scratch.parent_of(u) else {
                        continue;
                    };
                    if let Ok(pos) = self.flat.neighbor_indices(u).binary_search(&parent) {
                        self.next_arc[base + u as usize] =
                            self.flat.offsets()[u as usize] + pos as u32;
                    }
                }
            }
            for i in 0..self.batch.len() {
                self.src_idx[i] = self.flat.index_of(self.batch.src(i)).unwrap_or(NO_INDEX);
                self.dst_idx[i] = self.flat.index_of(self.batch.dst(i)).unwrap_or(NO_INDEX);
            }
            self.arc_load.clear();
            self.arc_load.resize(self.flat.arc_targets().len(), 0);
        }

        fn step(&mut self) -> TickStats {
            let tick = self.tick;
            let activating = self.batch.activating(tick);
            let activated = activating.len();
            self.active.extend(activating.map(|i| i as u32));
            let concurrent = self.active.len();
            self.arc_load.iter_mut().for_each(|l| *l = 0);
            let targets = self.flat.arc_targets();
            for &i in &self.active {
                let i = i as usize;
                let slot_base = self.batch.dst_slot(i) as usize * self.node_count;
                let dst = self.dst_idx[i];
                let mut u = self.src_idx[i];
                if u == NO_INDEX || dst == NO_INDEX {
                    continue;
                }
                let mut hops = 0usize;
                while u != dst {
                    let arc = self.next_arc[slot_base + u as usize];
                    if arc == NO_ARC {
                        break;
                    }
                    self.arc_load[arc as usize] += 1;
                    u = targets[arc as usize];
                    hops += 1;
                    if hops > self.node_count {
                        break;
                    }
                }
            }
            let capacity_bytes_per_tick =
                self.config.link_capacity_mbps * 1e6 / 8.0 * self.config.tick_secs;
            let mut delivered_total = 0.0;
            let mut completed = 0usize;
            let mut stalled = 0usize;
            for slot in 0..self.active.len() {
                let i = self.active[slot] as usize;
                let slot_base = self.batch.dst_slot(i) as usize * self.node_count;
                let dst = self.dst_idx[i];
                let mut u = self.src_idx[i];
                let mut bottleneck = 0u32;
                let mut routable = u != NO_INDEX && dst != NO_INDEX;
                let mut hops = 0usize;
                while routable && u != dst {
                    let arc = self.next_arc[slot_base + u as usize];
                    if arc == NO_ARC {
                        routable = false;
                        break;
                    }
                    bottleneck = bottleneck.max(self.arc_load[arc as usize]);
                    u = self.flat.arc_targets()[arc as usize];
                    hops += 1;
                    if hops > self.node_count {
                        routable = false;
                        break;
                    }
                }
                if !routable {
                    stalled += 1;
                    continue;
                }
                let share = capacity_bytes_per_tick / f64::from(bottleneck.max(1));
                let counted = self.batch.deliver(i, share);
                delivered_total += counted;
                if self.batch.remaining(i) == 0.0 {
                    let fct_s =
                        f64::from(tick + 1 - self.batch.start_tick(i)) * self.config.tick_secs;
                    self.fct.record_completion(fct_s);
                    completed += 1;
                }
            }
            self.fct.credit_bytes(delivered_total);
            let batch = &self.batch;
            self.active.retain(|&i| batch.remaining(i as usize) > 0.0);
            self.tick = tick + 1;
            TickStats {
                tick,
                activated,
                concurrent,
                completed,
                stalled,
                delivered_bytes: delivered_total,
            }
        }
    }

    #[test]
    fn class_engine_matches_the_per_flow_reference_bit_for_bit() {
        let topologies = [
            builders::fat_tree(4, 2),
            builders::grid(3, 4, 2),
            builders::jellyfish(12, 3, 5, 2),
        ];
        let matrices = [
            TrafficMatrix::Uniform,
            TrafficMatrix::HotspotPod {
                groups: 3,
                hot_fraction: 0.6,
            },
            TrafficMatrix::Permutation,
        ];
        let arrivals = [
            Arrival::UpFront,
            Arrival::Uniform { over_ticks: 6 },
            Arrival::Poisson {
                rate_per_tick: 40.0,
            },
        ];
        let fan_outs = [
            None,
            Some(FanOut {
                width: 2,
                request_bytes: 2e5,
            }),
        ];
        // Small links, so that flows need several ticks and the removals below cut
        // classes mid-transfer.
        let config = EngineConfig {
            link_capacity_mbps: 80.0,
            tick_secs: 1.0,
        };
        let mut cases = 0;
        for (t, net) in topologies.iter().enumerate() {
            let n_controllers = net.controllers.len();
            let relay = |node: NodeId| node.is_switch(n_controllers);
            // Cut every link of the first switch and one more of the second: the
            // classes touching the first stall, the others reroute.
            let (a, b) = (net.switches[0], net.switches[1]);
            let cut: Vec<(NodeId, NodeId)> = net
                .graph
                .neighbor_vec(a)
                .into_iter()
                .map(|x| (a, x))
                .chain(
                    net.graph
                        .neighbor_vec(b)
                        .into_iter()
                        .take(1)
                        .map(|x| (b, x)),
                )
                .collect();
            let mut damaged = net.graph.clone();
            for &(x, y) in &cut {
                damaged.remove_link(x, y);
            }
            for (m, &matrix) in matrices.iter().enumerate() {
                for (r, &arrival) in arrivals.iter().enumerate() {
                    for (f, &fan_out) in fan_outs.iter().enumerate() {
                        let flows = FlowSetConfig {
                            matrix,
                            mix: FlowMix {
                                mice_bytes: 3e5,
                                elephant_bytes: 4e7,
                                elephant_fraction: 0.2,
                            },
                            arrival,
                            pairs: 400,
                            fan_out,
                        };
                        let seed = (t * 100 + m * 10 + r * 2 + f) as u64;
                        let batch = generate(&net.switches, &flows, seed);
                        let mut engine = FlowEngine::new(batch.clone(), config);
                        let mut reference = PerFlowReference::new(batch, config);
                        for tick in 0..24 {
                            let graph = match tick {
                                0 | 10 => Some(&net.graph),
                                4 => Some(&damaged),
                                _ => None,
                            };
                            if let Some(graph) = graph {
                                engine.retarget(graph, relay);
                                reference.retarget(graph, relay);
                            }
                            let stats = engine.step();
                            assert_eq!(stats, reference.step(), "case {seed} tick {tick}");
                            if tick == 5 && t == 0 {
                                assert!(stats.stalled > 0, "case {seed}: the cut stalls flows");
                            }
                        }
                        assert_eq!(engine.fct(), &reference.fct, "case {seed}");
                        assert_eq!(engine.batch(), &reference.batch, "case {seed}");
                        assert!(engine.fct().completed() > 0, "case {seed}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 54);
    }

    #[test]
    fn million_concurrent_flows_on_fat_tree_16() {
        // The acceptance-scale population: one million flows, all active at once,
        // on the fat_tree(16) switch fabric. Three ticks are enough to prove the
        // engine sustains the concurrency and makes progress; the campaign's large
        // tier runs the full completion curve.
        let net = builders::fat_tree(16, 3);
        let config = FlowSetConfig {
            matrix: TrafficMatrix::Uniform,
            mix: FlowMix::uniform(1e9),
            arrival: Arrival::UpFront,
            pairs: 1_000_000,
            fan_out: None,
        };
        let batch = generate(&net.switches, &config, 7);
        assert_eq!(batch.len(), 1_000_000);
        let mut engine = FlowEngine::new(batch, EngineConfig::default());
        engine.retarget(&net.switch_graph, |_| true);
        let mut delivered = 0.0;
        for _ in 0..3 {
            let stats = engine.step();
            assert_eq!(stats.concurrent, 1_000_000);
            assert_eq!(stats.stalled, 0);
            delivered += stats.delivered_bytes;
        }
        assert_eq!(engine.peak_concurrent(), 1_000_000);
        assert!(delivered > 0.0, "a loaded fabric still makes progress");
    }
}
