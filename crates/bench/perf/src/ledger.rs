//! The per-layer ledger of a traced run: span self times, the product's own
//! counters, and unit costs from the probes, assembled into the metric set
//! `BENCHMARK.json` declares. A metric that does not apply to a workload reads 0.

use crate::probes;
use crate::serve::{SessionRun, KINDS};
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::traced::{self, TracedRun};
use crate::workloads::SimPlan;
use sdn_serve::Session;
use std::collections::BTreeMap;

/// Metric values by declared name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under `name`, which must be a declared per-layer metric.
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(spec::per_layer(name).name, value);
    }

    /// Every declared per-layer metric, in declaration order; unset ones read 0.
    pub fn complete(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|spec| {
                let value = self.values.get(spec.name).copied().unwrap_or(0.0);
                (spec.name, spec.unit, value)
            })
            .collect()
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Counters the product keeps, summed over the traced sample's seeded runs.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    generations: u64,
    sent: u64,
    received: u64,
    dropped: u64,
    duplicated: u64,
    undeliverable: u64,
    iterations: u64,
    rounds_completed: u64,
    rule_updates_sent: u64,
    replies_accepted: u64,
    replies_ignored: u64,
    c_resets: u64,
    reply_db_len: u64,
    batches_applied: u64,
    rules_deleted: u64,
    packets_forwarded: u64,
    packets_dropped: u64,
    total_rules: u64,
    max_rules_per_switch: u64,
    evictions: u64,
    faults_injected: u64,
    recoveries: u64,
    flows_generated: u64,
    flows_completed: u64,
    peak_concurrent: u64,
    plans_observed: u64,
    plan_work: f64,
    iterate_work: f64,
}

impl Counts {
    fn add(&mut self, run: &TracedRun) {
        let net = &run.net;
        self.events += net.sim().events_processed();
        self.generations += net.sim().topology_generation();
        let metrics = net.metrics();
        self.sent += metrics.total_sent();
        self.received += metrics.total_received();
        self.dropped += metrics.dropped();
        self.duplicated += metrics.duplicated();
        self.undeliverable += metrics.undeliverable();
        for controller in net
            .controller_ids()
            .iter()
            .filter_map(|&c| net.controller(c))
        {
            let stats = controller.stats();
            self.iterations += stats.iterations;
            self.rounds_completed += stats.rounds_completed;
            self.rule_updates_sent += stats.rule_updates_sent;
            self.replies_accepted += stats.replies_accepted;
            self.replies_ignored += stats.replies_ignored;
            self.c_resets += controller.c_resets();
            self.reply_db_len += controller.reply_db().len() as u64;
        }
        for switch in net.switch_ids().iter().filter_map(|&s| net.switch(s)) {
            let stats = switch.stats();
            self.batches_applied += stats.batches_applied;
            self.rules_deleted += stats.rules_deleted;
            self.packets_forwarded += stats.packets_forwarded;
            self.packets_dropped += stats.packets_dropped;
            self.evictions += switch.rules().evictions();
        }
        self.total_rules += run.report.total_rules as u64;
        self.max_rules_per_switch = self
            .max_rules_per_switch
            .max(run.report.max_rules_per_switch as u64);
        self.faults_injected += run.report.injected.len() as u64;
        self.recoveries += run
            .report
            .recoveries
            .iter()
            .filter(|r| r.recovered_in_s.is_some())
            .count() as u64;
        for workload in &run.report.workloads {
            let note =
                |key: &str| -> u64 { workload.note(key).and_then(|v| v.parse().ok()).unwrap_or(0) };
            self.flows_generated += note("flows");
            self.flows_completed += note("completed");
            self.peak_concurrent = self.peak_concurrent.max(note("peak_concurrent"));
        }
        self.plans_observed += run.views.plans;
        self.plan_work += run.views.plan_work;
        self.iterate_work += run.views.iterate_work;
    }
}

/// What a traced invocation measured outside the traced sample itself.
pub struct Reference {
    /// Traced against untraced sample wall time, in percent.
    pub trace_overhead_pct: f64,
    /// Completed flows per host second of the untraced samples.
    pub flows_per_s: f64,
}

/// Accumulates the product's counters over the seeded runs of a traced sample.
#[derive(Debug, Default)]
pub struct SampleCounts(Counts);

impl SampleCounts {
    pub fn add(&mut self, run: &TracedRun) {
        self.0.add(run);
    }
}

/// The ledger of one traced sample of a simulation workload. `counts` covers all of
/// the sample's seeded runs; unit costs are probed on the end state of `last`.
pub fn of_sim(
    plan: &SimPlan,
    tracer: &Tracer,
    counts: &SampleCounts,
    last: &TracedRun,
    reference: &Reference,
) -> Ledger {
    let mut ledger = Ledger::default();
    let counts = &counts.0;
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let run_s = total(traced::RUN).total_s();
    let advance_s = total(traced::ADVANCE).self_s();

    // The product's own counters.
    for (name, count) in [
        ("netsim.sim.events", counts.events),
        ("netsim.sim.topology_generations", counts.generations),
        ("netsim.link.messages_sent", counts.sent),
        ("netsim.link.dropped", counts.dropped),
        ("netsim.link.duplicated", counts.duplicated),
        ("netsim.link.undeliverable", counts.undeliverable),
        ("core.controller.iterations", counts.iterations),
        ("core.controller.rounds_completed", counts.rounds_completed),
        (
            "core.controller.rule_updates_sent",
            counts.rule_updates_sent,
        ),
        ("core.controller.replies_accepted", counts.replies_accepted),
        ("core.controller.replies_ignored", counts.replies_ignored),
        ("core.reply_db.c_resets", counts.c_resets),
        ("core.reply_db.len", counts.reply_db_len),
        ("topology.flows.plans_observed", counts.plans_observed),
        ("switch.rules.total_rules", counts.total_rules),
        (
            "switch.rules.max_rules_per_switch",
            counts.max_rules_per_switch,
        ),
        ("switch.rules.evictions", counts.evictions),
        ("switch.switch.batches_applied", counts.batches_applied),
        ("switch.switch.rules_deleted", counts.rules_deleted),
        ("switch.switch.packets_forwarded", counts.packets_forwarded),
        ("switch.switch.packets_dropped", counts.packets_dropped),
        ("core.scenario.faults_injected", counts.faults_injected),
        ("core.scenario.recoveries", counts.recoveries),
        ("traffic.engine.flows_generated", counts.flows_generated),
        ("traffic.engine.flows_completed", counts.flows_completed),
        ("traffic.engine.peak_concurrent", counts.peak_concurrent),
    ] {
        ledger.set(name, count as f64);
    }
    let forwarding_decisions = (counts.packets_forwarded + counts.packets_dropped) as f64;
    for (name, useful, attempts) in [
        (
            "netsim.link.delivery_ratio",
            counts.received,
            counts.sent as f64,
        ),
        (
            "core.controller.reply_accept_ratio",
            counts.replies_accepted,
            (counts.replies_accepted + counts.replies_ignored) as f64,
        ),
        (
            "switch.switch.forward_ratio",
            counts.packets_forwarded,
            forwarding_decisions,
        ),
    ] {
        ledger.set(name, ratio(useful as f64, attempts));
    }

    // Span self times.
    let engine_spans = [
        ("traffic.engine.start_s", traced::ENGINE_START),
        ("traffic.engine.tick_s", traced::ENGINE_TICK),
        ("traffic.engine.finish_s", traced::ENGINE_FINISH),
    ];
    for (name, span) in engine_spans {
        ledger.set(name, total(span).self_s());
    }
    let engine_s: f64 = engine_spans
        .iter()
        .map(|(_, span)| total(span).self_s())
        .sum();
    ledger.set("traffic.engine.share", ratio(engine_s, run_s));
    ledger.set("traffic.engine.flows_per_s", reference.flows_per_s);
    ledger.set("netsim.sim.advance_s", advance_s);
    ledger.set(
        "netsim.sim.us_per_event",
        ratio(advance_s * 1e6, counts.events as f64),
    );
    ledger.set("core.legitimacy.poll_s", total(traced::POLL).self_s());
    ledger.set("core.legitimacy.polls", total(traced::POLL).count as f64);
    ledger.set(
        "core.scenario.fault_apply_s",
        total(traced::FAULT_APPLY).self_s(),
    );
    ledger.set(
        "core.scenario.schedule_build_ms",
        total(traced::SCHEDULE_BUILD).total_s() * 1e3,
    );
    ledger.set("core.scenario.driver_self_s", total(traced::RUN).self_s());

    // Unit costs, on the end state of the sample's last run.
    let net = &last.net;
    let graph = net.sim().operational_graph();
    let link = net.default_link_config();
    let calendar_ns = probes::netsim_calendar::op_ns(&net.topology().graph);
    let sample_ns = probes::netsim_link::sample_ns(link);
    let iterate_ms = probes::core_controller::iterate_ms(net);
    let plan_ms = probes::topology_flows::plan_ms(net);
    let apply_batch_us = probes::switch_switch::apply_batch_us(net);
    let next_hop_ns = probes::switch_switch::next_hop_ns(net);
    let retarget_ms = plan
        .flows
        .map_or(0.0, |flows| probes::traffic_engine::retarget_ms(net, flows));
    for (name, cost) in [
        ("netsim.calendar.op_ns", calendar_ns),
        ("netsim.link.sample_ns", sample_ns),
        (
            "netsim.link.sample_bursty_ns",
            probes::netsim_link::sample_bursty_ns(link),
        ),
        ("core.controller.iterate_ms", iterate_ms),
        (
            "core.reply_db.fusion_graph_us",
            probes::core_reply_db::fusion_graph_us(net),
        ),
        ("topology.flows.plan_ms", plan_ms),
        (
            "topology.flat.snapshot_us",
            probes::topology_flat::snapshot_us(graph),
        ),
        ("topology.flat.bfs_us", probes::topology_flat::bfs_us(graph)),
        (
            "switch.rules.replace_same_us",
            probes::switch_rules::replace_same_us(net),
        ),
        (
            "switch.rules.replace_empty_us",
            probes::switch_rules::replace_empty_us(net),
        ),
        ("switch.switch.apply_batch_us", apply_batch_us),
        ("switch.switch.next_hop_ns", next_hop_ns),
        (
            "core.legitimacy.fresh_ms",
            probes::core_legitimacy::fresh_ms(net),
        ),
        (
            "core.legitimacy.cached_us",
            probes::core_legitimacy::cached_us(net),
        ),
        ("traffic.engine.retarget_ms", retarget_ms),
        (
            "metrics.digest.record_ns",
            probes::metrics_digest::record_ns(),
        ),
        (
            "metrics.digest.merge_us",
            probes::metrics_digest::merge_us(),
        ),
    ] {
        ledger.set(name, cost);
    }

    // Count × unit cost: what the outside view can explain of the time spent inside
    // `run_until`. Iterate and plan costs are the end-state unit costs scaled by the
    // view work each call saw; the estimates can still overlap or overshoot, so the
    // remainder is indicative — the case for in-product hooks.
    let end_view_work = net
        .live_controller_ids()
        .first()
        .and_then(|&id| Some(net.controller(id)?.discovered_graph(net.sim().observed(id))))
        .map_or(0.0, |graph| traced::view_work(&graph));
    let iterate_s = ratio(counts.iterate_work, end_view_work) * iterate_ms / 1e3;
    let plan_s = ratio(counts.plan_work, end_view_work) * plan_ms / 1e3;
    let explained = iterate_s
        + plan_s
        + counts.batches_applied as f64 * apply_batch_us / 1e6
        + forwarding_decisions * next_hop_ns / 1e9
        + counts.events as f64 * calendar_ns / 1e9
        + counts.sent as f64 * sample_ns / 1e9;
    ledger.set("core.controller.est_share", ratio(iterate_s, run_s));
    ledger.set("topology.flows.est_share", ratio(plan_s, run_s));
    ledger.set(
        "netsim.sim.unattributed_share",
        ratio(advance_s - explained, advance_s),
    );

    ledger.set("trace_overhead_pct", reference.trace_overhead_pct);
    ledger.set("trace_spans", tracer.spans().len() as f64);
    ledger
}

/// The ledger of a traced `serve_ft8` invocation: the HTTP session the client
/// observed, and the same script re-driven against a bare session.
pub fn of_serve(
    http: &SessionRun,
    iterations: u32,
    tracer: &Tracer,
    bare: &Session,
    trace_overhead_pct: f64,
) -> Ledger {
    let mut ledger = Ledger::default();
    let spans_ms = |name: &str| tracer.durations_ms(name);
    let p50 = |values: &[f64]| percentile(values, 50.0);

    ledger.set("netsim.sim.events", http.events_total as f64);
    let in_process_ms: Vec<f64> = probes::serve_session::KIND_SPANS
        .iter()
        .map(|name| p50(&spans_ms(name)))
        .collect();
    ledger.set("serve.session.step_ms", in_process_ms[0]);
    ledger.set(
        "serve.session.apply_us",
        p50(&spans_ms("serve.session.apply")) * 1e3,
    );
    for (kind, name) in [
        (1, "serve.session.metrics_json_us"),
        (2, "serve.session.legitimacy_json_us"),
        (3, "serve.session.topology_json_us"),
        (4, "serve.session.log_json_us"),
        (5, "serve.session.node_json_us"),
    ] {
        ledger.set(name, in_process_ms[kind] * 1e3);
    }
    ledger.set(
        "serve.session.final_report_ms",
        probes::serve_session::final_report_ms(bare),
    );

    let step_ms = http.step_ms();
    let read_ms = http.read_ms();
    ledger.set(
        "serve.transport.ticks_per_s",
        ratio(f64::from(iterations), http.client.loop_s),
    );
    ledger.set("serve.transport.step_p50_ms", p50(&step_ms));
    ledger.set("serve.transport.step_p95_ms", percentile(&step_ms, 95.0));
    ledger.set("serve.transport.step_p99_ms", percentile(&step_ms, 99.0));
    ledger.set("serve.transport.read_p50_ms", p50(&read_ms));
    ledger.set("serve.transport.read_p95_ms", percentile(&read_ms, 95.0));
    // HTTP p50 minus the in-process p50 of the same request kind.
    let overhead_us =
        |kind: usize| (p50(&http.latencies_of(|k| k == kind)) - in_process_ms[kind]) * 1e3;
    ledger.set("serve.transport.overhead_step_us", overhead_us(0));
    let reads: Vec<f64> = (1..KINDS.len()).map(overhead_us).collect();
    ledger.set("serve.transport.overhead_read_us", median(&reads));
    ledger.set("serve.transport.requests", http.client.requests as f64);
    ledger.set("serve.transport.bytes_out", http.client.bytes_out as f64);

    let jsonl = http.log.to_jsonl();
    ledger.set("serve.log.replay_s", http.replay_s);
    ledger.set(
        "serve.log.to_jsonl_ms",
        probes::serve_log::to_jsonl_ms(&http.log),
    );
    ledger.set("serve.log.parse_ms", probes::serve_log::parse_ms(&jsonl));
    ledger.set(
        "serve.log.replay_ms_per_tick",
        ratio(http.replay_s * 1e3, http.ticks as f64),
    );
    ledger.set("serve.log.bytes", jsonl.len() as f64);
    ledger.set("serve.log.commands", http.log.entries.len() as f64);

    ledger.set("trace_overhead_pct", trace_overhead_pct);
    ledger.set("trace_spans", tracer.spans().len() as f64);
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve;
    use crate::workloads::{serve_plan, sim_plan, Size, CHURN, LOAD};
    use std::collections::BTreeSet;
    use std::time::Instant;

    fn sim_names(workload: &str) -> BTreeSet<&'static str> {
        let plan = sim_plan(workload, Size::Quick).unwrap();
        let mut tracer = Tracer::new(true);
        let run = traced::run_seed(&plan, 1000, &mut tracer);
        let mut counts = SampleCounts::default();
        counts.add(&run);
        let reference = Reference {
            trace_overhead_pct: 1.0,
            flows_per_s: 1.0,
        };
        let ledger = of_sim(&plan, &tracer, &counts, &run, &reference);
        let complete = ledger.complete();
        assert_eq!(complete.len(), PER_LAYER.len());
        assert!(complete.iter().all(|(_, _, value)| value.is_finite()));
        ledger.values.keys().copied().collect()
    }

    /// Every declared per-layer metric is produced by the simulation ledger or by the
    /// serve ledger.
    #[test]
    fn every_declared_metric_has_a_producer() {
        let mut produced = sim_names(CHURN);
        produced.extend(sim_names(LOAD));

        let plan = serve_plan(Size::Quick);
        let http = serve::run_session(&plan, 1000, Instant::now()).unwrap();
        assert_eq!(http.failures(), Vec::<String>::new());
        let mut tracer = Tracer::new(true);
        let bare =
            probes::serve_session::run_script(&http.log, &plan, http.client.nodes, &mut tracer);
        let ledger = of_serve(&http, plan.iterations, &tracer, &bare, 1.0);
        produced.extend(ledger.values.keys().copied());

        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(produced, declared);
    }
}
