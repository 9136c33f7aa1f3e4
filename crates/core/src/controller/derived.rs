//! What a controller memoizes of Algorithm 2's recomputations ([`Derived`]), and the
//! table that shares plans and rule sets between one network's controllers.

use super::{same_graph, ControllerStats};
use crate::config::ControllerConfig;
use crate::reply_db::{View, ViewInput, ViewKey};
use sdn_rng::Rng;
use sdn_switch::{RuleBody, RuleSet, RuleSetWriter};
use sdn_tags::IdRange;
use sdn_topology::{FlowPlan, FlowPlanner, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// A controller's memos: the latest views of `replyDB` and the plan of the reference
/// graph, whose shared sets are `myRules()` per switch. None is protocol state; after
/// the last fault, the audit of each [`Derived::plan_for`] repairs the plan, and with it
/// every rule set, within `⌈n/64⌉` iterations and every view within `n`, with `n` the
/// node count of the planned graph (README, "Repairing the memos").
#[derive(Clone, Debug)]
pub(super) struct Derived {
    /// The views the latest iterations read, each beside the key it was built from,
    /// most recently used first. One iteration reads `G(res(currTag))`,
    /// `G(res(prevTag))` and `G(fusion)`, so three entries are one iteration's working set.
    views: Vec<(ViewKey, Arc<View>)>,
    /// Where a new plan is looked up before it is computed.
    plans: PlanTable,
    /// The plan of `planned`, which also picks first hops for the controller's own
    /// packets and hands out its rule sets; one `Arc` with every controller of `plans`
    /// that planned the same graph.
    plan: Arc<SharedPlan>,
    /// The reference view `plan` was computed over. Once the view converges its
    /// graph stops changing, and every subsequent iteration reuses the plan instead
    /// of re-running the all-pairs planner — the steady state costs one view
    /// comparison instead of an all-pairs distance matrix. `None` until the first plan.
    planned: Option<Arc<View>>,
    /// Bumps whenever `plan` is replaced.
    plan_version: u64,
    /// Calls of `plan_for` so far; each checks the plan block of its turn.
    turn: u64,
}

impl Derived {
    const VIEWS: usize = 3;

    /// Memos of nothing yet, planning through `plans`.
    pub(super) fn new(plans: PlanTable) -> Self {
        Derived {
            views: Vec::new(),
            plans,
            plan: Arc::default(),
            planned: None,
            plan_version: 0,
            turn: 0,
        }
    }

    /// The view of `input`, built only if no memoized key matches it.
    pub(super) fn view(&mut self, input: ViewInput<'_>, stats: &mut ControllerStats) -> Arc<View> {
        if let Some(hit) = self.views.iter().position(|(key, _)| key.matches(input)) {
            stats.views_reused += 1;
            self.views[..=hit].rotate_right(1);
        } else {
            stats.views_built += 1;
            let key = input.key();
            let view = Arc::new(key.view());
            self.views.truncate(Self::VIEWS - 1);
            self.views.insert(0, (key, view));
        }
        self.views[0].1.clone()
    }

    /// The graph of the view of `input`, memoized or derived for this call alone.
    pub(super) fn graph(&self, input: ViewInput<'_>) -> Graph {
        match self.views.iter().find(|(key, _)| key.matches(input)) {
            Some((_, view)) => view.graph().clone(),
            None => input.key().graph(),
        }
    }

    /// The routing plan of the latest reference graph.
    pub(super) fn plan(&self) -> &FlowPlan {
        &self.plan.plan
    }

    /// A counter that bumps whenever the plan is replaced.
    pub(super) fn plan_version(&self) -> u64 {
        self.plan_version
    }

    /// Makes the plan that of `refer`'s graph with the nodes `relays` accepts as
    /// relays, then runs one audit step.
    ///
    /// The plan is a pure function of the reference graph, so an unchanged graph keeps
    /// it while the block this turn checks agrees with the graph, and a changed one
    /// takes the plan of any controller that planned the same graph.
    pub(super) fn plan_for(
        &mut self,
        refer: &Arc<View>,
        relays: impl Fn(NodeId) -> bool,
        stats: &mut ControllerStats,
    ) {
        self.turn = self.turn.wrapping_add(1);
        let planned = (self.planned.as_ref()).is_some_and(|planned| same_graph(planned, refer));
        if !planned || !self.plan.plan.agrees(refer.graph(), &relays, self.turn) {
            self.plan = self.plans.plan(refer.graph(), relays, stats);
            self.plan_version += 1;
        }
        self.planned = Some(refer.clone());
        self.audit();
    }

    /// `myRules(G, j, tag)`: the rules this controller installs at switch `j` given its
    /// current view `G` (paper, Sections 2.2.2 and 3.3). The tag and the owner are the
    /// `updateRule` command's; the set is a function of the plan and `j` alone, so it
    /// is built once per plan, whichever controller holding the plan asks first.
    pub(super) fn my_rules(&self, switch: NodeId, stats: &mut ControllerStats) -> RuleSet {
        self.plan.rules(switch, stats)
    }

    /// Rewrites the memos as a transient fault may, with views over `ids`. A scrambled
    /// plan is this controller's alone, never in the table, and bumps `plan_version`.
    pub(super) fn scramble(&mut self, rng: &mut Rng, ids: IdRange) {
        let Derived {
            views,
            plans: _, // the network's table caches pure functions, outside the fault model
            plan,
            planned,
            plan_version,
            turn,
        } = self;
        views.truncate(rng.gen_range(0..=views.len()));
        for (_, view) in views.iter_mut() {
            if rng.gen_bool(0.5) {
                *view = Arc::new(View::scrambled(rng, ids));
            }
        }
        if rng.gen_bool(0.5) {
            *planned = Some(Arc::new(View::scrambled(rng, ids)));
        }
        if rng.gen_bool(0.5) {
            let view = View::scrambled(rng, ids);
            let new = (self.plans.planner).plan_restricted(view.graph(), &BTreeSet::new());
            *plan = Arc::new(SharedPlan {
                plan: new,
                sets: Mutex::default(),
            });
            *plan_version += 1;
        }
        *turn = rng.next_u64();
    }

    /// The audit step of the views: on each turn that is a multiple of the planned
    /// graph's node count, every view is re-derived from its key and replaced if it
    /// differs, counted as neither a build nor a reuse.
    fn audit(&mut self) {
        let n = (self.planned.as_ref()).map_or(1, |view| view.graph().node_count());
        if self.turn % n.max(1) as u64 == 0 {
            for (key, view) in &mut self.views {
                let fresh = key.view();
                if **view != fresh {
                    *view = Arc::new(fresh);
                }
            }
        }
    }
}

/// The routing plans of one network's controllers, so that controllers whose planning
/// inputs are equal share one plan and one `myRules()` set per switch.
///
/// The table caches two pure functions, the plan of (reference graph, relay flags)
/// under its planner and `myRules()` of (plan, switch), so it is not controller state
/// and no audit reads it (README, "Repairing the memos"). The entries are weak: a plan
/// nobody holds is dropped, with its sets, and pruned at the next lookup.
#[derive(Clone, Debug)]
pub(crate) struct PlanTable {
    planner: FlowPlanner,
    entries: Arc<Mutex<Vec<Weak<SharedPlan>>>>,
}

impl PlanTable {
    /// An empty table whose planner `config` asks for: resilient to `kappa` failures,
    /// keeping at most `max_priorities` candidates per destination.
    pub(crate) fn new(config: ControllerConfig) -> Self {
        let planner = FlowPlanner::new(config.kappa);
        let planner = (config.max_priorities).map_or(planner, |at| planner.with_max_candidates(at));
        PlanTable {
            planner,
            entries: Arc::default(),
        }
    }

    /// The plan of `graph` with the nodes `relays` accepts as relays: the one a
    /// controller holding it already has if there is one, else a new one.
    fn plan(
        &self,
        graph: &Graph,
        relays: impl Fn(NodeId) -> bool,
        stats: &mut ControllerStats,
    ) -> Arc<SharedPlan> {
        let mut entries = lock(&self.entries);
        entries.retain(|entry| entry.strong_count() > 0);
        let snapshot = graph.snapshot();
        let held = (entries.iter().filter_map(Weak::upgrade))
            .find(|held| held.plan.is_plan_of(&snapshot, &relays));
        if let Some(held) = held {
            stats.plans_shared += 1;
            return held;
        }
        stats.plans_built += 1;
        let non_transit: BTreeSet<NodeId> = graph.nodes().filter(|&n| !relays(n)).collect();
        let plan = Arc::new(SharedPlan {
            plan: self.planner.plan_restricted(graph, &non_transit),
            sets: Mutex::default(),
        });
        entries.push(Arc::downgrade(&plan));
        plan
    }
}

/// A routing plan as the [`PlanTable`] shares it, with the `myRules()` set of each
/// switch some controller has asked for under it.
#[derive(Debug, Default)]
pub(crate) struct SharedPlan {
    plan: FlowPlan,
    sets: Mutex<BTreeMap<NodeId, RuleSet>>,
}

impl SharedPlan {
    /// `myRules()` at `switch` under this plan, ranked by the first controller that
    /// asks for it.
    fn rules(&self, switch: NodeId, stats: &mut ControllerStats) -> RuleSet {
        let mut sets = lock(&self.sets);
        if let Some(set) = sets.get(&switch) {
            stats.rule_sets_shared += 1;
            return set.clone();
        }
        stats.rule_sets_built += 1;
        let set = build_rules(&self.plan, switch);
        sets.insert(switch, set.clone());
        set
    }
}

/// The table's lock. What it guards is a cache of pure functions that no panic
/// leaves half-written, so a poisoned lock is taken as it is.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lowest priority level: a destination with more candidates than levels keeps
/// its last candidate there, as if each later rule had overwritten the one before.
const LOWEST_LEVEL: usize = u8::MAX as usize - 1;

/// `myRules()` at `switch` under `plan`, written body by body in the set's slot order
/// in the pass that ranks it: one wildcard-source rule per reachable destination and
/// priority level, encoding the kappa-fault-resilient flow towards that destination.
fn build_rules(plan: &FlowPlan, switch: NodeId) -> RuleSet {
    let mut writer = RuleSetWriter::with_capacity(plan.rule_bound(switch));
    plan.for_each_rule(switch, |dst, hops| {
        let last = hops.len() - 1;
        for (level, fwd) in hops.enumerate() {
            if level < LOWEST_LEVEL || level == last {
                let prt = u8::MAX - level.min(LOWEST_LEVEL) as u8;
                writer.push(RuleBody {
                    src: None,
                    dst,
                    prt,
                    fwd,
                });
            }
        }
    });
    writer.finish()
}

/// Transient faults in the memos, and what the tests read of them. A fault writes
/// only this controller's own handles, never an entry of the shared table.
#[cfg(test)]
impl Derived {
    /// The handle to the plan, shared with the table and every controller holding it.
    pub(super) fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.plan
    }

    pub(super) fn table(&self) -> &PlanTable {
        &self.plans
    }

    pub(super) fn views(&self) -> &[(ViewKey, Arc<View>)] {
        &self.views
    }

    /// Runs `steps` turns of the view audit, as that many iterations would after
    /// planning.
    pub(super) fn audit_steps(&mut self, steps: usize) {
        for _ in 0..steps {
            self.turn = self.turn.wrapping_add(1);
            self.audit();
        }
    }

    /// `myRules()` per switch under a plan of the planned graph computed afresh, not
    /// taken from the table, with the nodes `relays` accepts as relays.
    pub(super) fn fresh_rules(
        &self,
        relays: impl Fn(NodeId) -> bool,
    ) -> impl Fn(NodeId) -> RuleSet {
        let graph = self.planned.as_ref().expect("a planned graph").graph();
        let non_transit = graph.nodes().filter(|&n| !relays(n)).collect();
        let plan = self.plans.planner.plan_restricted(graph, &non_transit);
        move |switch| build_rules(&plan, switch)
    }

    /// Replaces the plan handle with `plan`; the plan the handle pointed at is left as
    /// it was.
    pub(super) fn corrupt_plan(&mut self, plan: Arc<SharedPlan>) {
        self.plan = plan;
    }

    /// Overwrites every memoized view with `view`, keys unchanged.
    pub(super) fn corrupt_views(&mut self, view: &View) {
        for (_, held) in &mut self.views {
            *held = Arc::new(view.clone());
        }
    }

    /// Forgets every memoized view.
    pub(super) fn forget_views(&mut self) {
        self.views.clear();
    }

    /// Sets the count of `plan_for` calls to `turn`.
    pub(super) fn corrupt_turn(&mut self, turn: u64) {
        self.turn = turn;
    }
}

#[cfg(test)]
impl PlanTable {
    /// The plans some controller holds.
    pub(crate) fn held(&self) -> Vec<Arc<SharedPlan>> {
        lock(&self.entries)
            .iter()
            .filter_map(Weak::upgrade)
            .collect()
    }

    /// Whether both handles name one table.
    pub(crate) fn same_table(a: &PlanTable, b: &PlanTable) -> bool {
        Arc::ptr_eq(&a.entries, &b.entries)
    }
}

#[cfg(test)]
impl SharedPlan {
    /// The sets ranked under this plan so far.
    pub(crate) fn sets(&self) -> BTreeMap<NodeId, RuleSet> {
        lock(&self.sets).clone()
    }
}
