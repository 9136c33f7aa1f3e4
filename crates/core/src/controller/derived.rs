//! What a controller memoizes of Algorithm 2's recomputations ([`Derived`]), and the
//! table that shares plans and rule sets between one network's controllers.

use super::{same_graph, ControllerStats};
use crate::config::ControllerConfig;
use crate::reply_db::{View, ViewInput, ViewKey};
use sdn_switch::{RuleBody, RuleSet, RuleSetWriter};
use sdn_topology::{FlowPlan, FlowPlanner, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// A controller's memos: the latest views of `replyDB`, the plan of the reference
/// graph and `myRules()` per switch under it. None is protocol state; after the last
/// fault, the audit step of each [`Derived::plan_for`] repairs every memo within
/// `max(|rule_sets| + 1, ⌈n/64⌉)` iterations (README, "Repairing the memos").
#[derive(Clone, Debug)]
pub(super) struct Derived {
    /// The views the latest iterations read, each beside the key it was built from,
    /// most recently used first. One iteration reads `G(res(currTag))`,
    /// `G(res(prevTag))` and `G(fusion)`, so three entries are one iteration's working set.
    views: Vec<(ViewKey, Arc<View>)>,
    /// Where a new plan is looked up before it is computed.
    plans: PlanTable,
    /// The plan of `planned`, which also picks first hops for the controller's own
    /// packets; one `Arc` with every controller of `plans` that planned the same graph.
    plan: Arc<SharedPlan>,
    /// The reference view `plan` was computed over. Once the view converges its
    /// graph stops changing, and every subsequent iteration reuses the plan instead
    /// of re-running the all-pairs planner — the steady state costs one view
    /// comparison instead of an all-pairs distance matrix. `None` until the first plan.
    planned: Option<Arc<View>>,
    /// Bumps whenever `plan` is replaced.
    plan_version: u64,
    /// `myRules()` per switch under `plan`, taken from the plan's shared sets the
    /// first time a switch is sent rules and handed out by reference from then on. A
    /// set names neither tag nor owner, so it outlives rounds; only a new plan empties
    /// the memo.
    rule_sets: BTreeMap<NodeId, RuleSet>,
    /// The switch whose memoized set the last audit step checked against `plan`.
    audited: NodeId,
    /// Calls of `plan_for` so far; each checks the plan block of its turn.
    turn: u64,
}

impl Derived {
    const VIEWS: usize = 3;

    /// Memos of nothing yet, planning through `plans`; the audit cursor starts after `id`.
    pub(super) fn new(id: NodeId, plans: PlanTable) -> Self {
        Derived {
            views: Vec::new(),
            plans,
            plan: Arc::default(),
            planned: None,
            plan_version: 0,
            rule_sets: BTreeMap::new(),
            audited: id,
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
        self.turn += 1;
        let planned = (self.planned.as_ref()).is_some_and(|planned| same_graph(planned, refer));
        if !planned || !self.plan.plan.agrees(refer.graph(), &relays, self.turn) {
            self.plan = self.plans.plan(refer.graph(), relays, stats);
            self.plan_version += 1;
            self.rule_sets.clear();
        }
        self.planned = Some(refer.clone());
        self.audit(stats);
    }

    /// `myRules(G, j, tag)`: the rules this controller installs at switch `j` given its
    /// current view `G` (paper, Sections 2.2.2 and 3.3). The tag and the owner are the
    /// `updateRule` command's; the set is a function of the plan and `j` alone, so it
    /// is built once per plan, whichever controller holding the plan asks first.
    pub(super) fn my_rules(&mut self, switch: NodeId, stats: &mut ControllerStats) -> RuleSet {
        (self.rule_sets.entry(switch))
            .or_insert_with(|| self.plan.rules(switch, stats))
            .clone()
    }

    /// One audit step: the set of the switch after the one checked last is compared
    /// with `myRules()` under the plan and ranked again, never read from the table, if
    /// it differs. Each time that cursor wraps around, every view is re-derived from its
    /// key and replaced if it differs, counted as neither a build nor a reuse.
    fn audit(&mut self, stats: &mut ControllerStats) {
        let mut after = (self.rule_sets).range((Excluded(self.audited), Unbounded));
        let next = match after.next() {
            Some(next) => Some(next),
            None => {
                for (key, view) in &mut self.views {
                    let fresh = key.view();
                    if **view != fresh {
                        *view = Arc::new(fresh);
                    }
                }
                self.rule_sets.iter().next()
            }
        };
        if let Some((&switch, set)) = next {
            self.audited = switch;
            if !rules_match(&self.plan.plan, switch, set) {
                stats.rule_sets_built += 1;
                (self.rule_sets).insert(switch, build_rules(&self.plan.plan, switch));
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

/// `myRules()` at `switch` under `plan`, body by body in the set's slot order: one
/// wildcard-source rule per reachable destination and priority level, encoding the
/// kappa-fault-resilient flow towards that destination.
fn for_each_body(plan: &FlowPlan, switch: NodeId, mut f: impl FnMut(RuleBody)) {
    plan.for_each_rule(switch, |dst, hops| {
        let last = hops.len() - 1;
        for (level, fwd) in hops.enumerate() {
            if level < LOWEST_LEVEL || level == last {
                let prt = u8::MAX - level.min(LOWEST_LEVEL) as u8;
                f(RuleBody {
                    src: None,
                    dst,
                    prt,
                    fwd,
                });
            }
        }
    });
}

/// `myRules()` at `switch`, written in the pass that ranks it.
fn build_rules(plan: &FlowPlan, switch: NodeId) -> RuleSet {
    let mut writer = RuleSetWriter::with_capacity(plan.rule_bound(switch));
    for_each_body(plan, switch, |body| writer.push(body));
    writer.finish()
}

/// Whether `set` is `myRules()` at `switch`, compared body by body as the plan ranks
/// them, with nothing allocated.
fn rules_match(plan: &FlowPlan, switch: NodeId, set: &RuleSet) -> bool {
    let (mut next, mut same) = (0, true);
    for_each_body(plan, switch, |body| {
        same &= set.get(next) == Some(&body);
        next += 1;
    });
    same && next == set.len()
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

    pub(super) fn rule_sets(&self) -> &BTreeMap<NodeId, RuleSet> {
        &self.rule_sets
    }

    pub(super) fn views(&self) -> &[(ViewKey, Arc<View>)] {
        &self.views
    }

    /// Runs `steps` audit steps, as that many iterations would after planning.
    pub(super) fn audit_steps(&mut self, steps: usize) {
        for _ in 0..steps {
            self.audit(&mut ControllerStats::default());
        }
    }

    /// The memoized switches whose set differs from a fresh ranking under the plan.
    pub(super) fn stale_sets(&self) -> Vec<NodeId> {
        let stale = |(&switch, set): (&NodeId, &RuleSet)| {
            (*set != build_rules(&self.plan.plan, switch)).then_some(switch)
        };
        self.rule_sets.iter().filter_map(stale).collect()
    }

    /// Replaces the plan handle with an empty plan of its own; the plan the handle
    /// pointed at is left as it was.
    pub(super) fn corrupt_plan(&mut self) {
        self.plan = Arc::default();
    }

    /// Empties every memoized rule set.
    pub(super) fn forget_rules(&mut self) {
        for set in self.rule_sets.values_mut() {
            *set = RuleSet::from_iter([]);
        }
    }

    /// Gives every memoized switch the set memoized for the next one, and the last
    /// switch the first one's.
    pub(super) fn swap_rules(&mut self) {
        let sets: Vec<RuleSet> = self.rule_sets.values().cloned().collect();
        let next = sets.iter().cycle().skip(1);
        for (set, other) in self.rule_sets.values_mut().zip(next) {
            *set = other.clone();
        }
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
