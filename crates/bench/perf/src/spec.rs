//! The benchmark's declarations: every workload and metric name, with unit,
//! direction, regression bound and — for per-layer metrics — the end-to-end metric
//! and workload each one is expected to move. `BENCHMARK.json` at the repository
//! root mirrors this table; the `names` test keeps the two in step.

use crate::json;
use crate::workloads::{BOOT_EVENTS, BOOT_RULES, CHURN, LOAD, SERVE};
use std::fmt::Write as _;
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: BOOT_RULES,
        why: "cold bootstrap of jellyfish(300,5,1): few events carrying ~900-rule batches, so controller iterate, planning, rule splices and legitimacy dominate and the event queue idles",
    },
    WorkloadSpec {
        name: BOOT_EVENTS,
        why: "cold bootstrap of grid(14,20): long in-band paths make the event loop, link model and hop-by-hop forwarding do the work; planning is ~1%, the mirror image of boot_rules_jf300",
    },
    WorkloadSpec {
        name: CHURN,
        why: "fat_tree(8) under flaps, rolling restarts, a partition, a gray link and removals: teardown and repair paths, legitimacy polled on illegitimate states so its memo misses",
    },
    WorkloadSpec {
        name: LOAD,
        why: "fat_tree(8) bootstrap then 1M flows for 30 ticks with a mid-path link removal: the only workload where the traffic engine is the majority, so engine changes must not move the others",
    },
    WorkloadSpec {
        name: SERVE,
        why: "sdn-serve over loopback HTTP, one closed-loop client, one connection per request, fault script, then log replay: transport changes move the loop and not replay, session changes move both",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const WALL_S: &str = "wall_s";
pub const EVENTS_PER_S: &str = "events_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// The metrics every workload produces (the benchmark contract wants each
/// end-to-end metric from each workload, never zero). What only one workload has —
/// flows/s, ticks/s, request latencies, replay time — is reported under its layer.
pub const END_TO_END: [EndToEnd; 4] = [
    // Process start to the first timed sample: argument parsing, scenario (or
    // session and server) construction and the discarded warm-up. serve_ft8 reports
    // the median over its sessions.
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Host seconds per sample: the K seeded runs back to back; for serve_ft8 the
    // timed request loop plus the log replay. Median over the timed samples.
    EndToEnd {
        name: WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Simulator events per host second (serve_ft8: over the timed request loop).
    EndToEnd {
        name: EVENTS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // VmHWM of the process, which ran only this workload.
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One `(end-to-end metric, workload)` pairing a layer metric should move.
pub type Moves = &'static [(&'static str, &'static str)];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: Moves,
}

const fn m(name: &'static str, unit: &'static str, better: Better, moves: Moves) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const EVENT_LOOP: Moves = &[
    (WALL_S, BOOT_EVENTS),
    (EVENTS_PER_S, BOOT_EVENTS),
    (WALL_S, CHURN),
    (WALL_S, SERVE),
];
const LINKS: Moves = &[(WALL_S, BOOT_EVENTS), (WALL_S, CHURN)];
const CONTROL: Moves = &[(WALL_S, BOOT_RULES)];
const REPAIR: Moves = &[(WALL_S, CHURN)];
const RULES: Moves = &[(WALL_S, BOOT_RULES), (PEAK_RSS_MB, BOOT_RULES)];
const SWITCH: Moves = &[(WALL_S, BOOT_RULES), (WALL_S, BOOT_EVENTS)];
const LEGIT: Moves = &[
    (WALL_S, BOOT_RULES),
    (WALL_S, BOOT_EVENTS),
    (WALL_S, CHURN),
    (WALL_S, SERVE),
];
const ENGINE: Moves = &[(WALL_S, LOAD)];
const SESSION: Moves = &[(WALL_S, SERVE), (EVENTS_PER_S, SERVE)];
const TRANSPORT: Moves = &[(WALL_S, SERVE)];
const NOTHING: Moves = &[];

/// Every per-layer metric, grouped by layer (this repository's crates and modules).
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // netsim.sim — the event loop as seen from outside: `run_until` slices.
    m("netsim.sim.advance_s", "s", Lower, EVENT_LOOP),
    m("netsim.sim.events", "count", Lower, EVENT_LOOP),
    m("netsim.sim.us_per_event", "us", Lower, EVENT_LOOP),
    m("netsim.sim.topology_generations", "count", Lower, REPAIR),
    m("netsim.sim.unattributed_share", "ratio", Lower, EVENT_LOOP),
    m(
        "netsim.calendar.op_ns",
        "ns",
        Lower,
        &[(EVENTS_PER_S, BOOT_EVENTS)],
    ),
    m(
        "netsim.link.sample_ns",
        "ns",
        Lower,
        &[(WALL_S, BOOT_EVENTS)],
    ),
    m("netsim.link.sample_bursty_ns", "ns", Lower, REPAIR),
    m("netsim.link.messages_sent", "count", Lower, LINKS),
    m("netsim.link.dropped", "count", Lower, REPAIR),
    m("netsim.link.duplicated", "count", Lower, REPAIR),
    m("netsim.link.undeliverable", "count", Lower, REPAIR),
    m("netsim.link.delivery_ratio", "ratio", Higher, REPAIR),
    // core.controller
    m("core.controller.iterate_ms", "ms", Lower, CONTROL),
    m("core.controller.iterations", "count", Lower, CONTROL),
    m("core.controller.rounds_completed", "count", Higher, CONTROL),
    m("core.controller.rule_updates_sent", "count", Lower, CONTROL),
    m("core.controller.replies_accepted", "count", Higher, CONTROL),
    m("core.controller.replies_ignored", "count", Lower, REPAIR),
    m(
        "core.controller.reply_accept_ratio",
        "ratio",
        Higher,
        REPAIR,
    ),
    m("core.controller.est_share", "ratio", Lower, CONTROL),
    m("core.reply_db.fusion_graph_us", "us", Lower, REPAIR),
    m("core.reply_db.c_resets", "count", Lower, REPAIR),
    m("core.reply_db.len", "count", Lower, REPAIR),
    // topology
    m("topology.flows.plan_ms", "ms", Lower, CONTROL),
    m("topology.flows.plans_observed", "count", Lower, CONTROL),
    m("topology.flows.est_share", "ratio", Lower, CONTROL),
    m("topology.flat.snapshot_us", "us", Lower, CONTROL),
    m("topology.flat.bfs_us", "us", Lower, CONTROL),
    // switch
    m("switch.rules.replace_same_us", "us", Lower, RULES),
    m("switch.rules.replace_empty_us", "us", Lower, RULES),
    m("switch.rules.total_rules", "count", Lower, RULES),
    m("switch.rules.max_rules_per_switch", "count", Lower, RULES),
    m("switch.rules.evictions", "count", Lower, RULES),
    m("switch.switch.apply_batch_us", "us", Lower, CONTROL),
    m(
        "switch.switch.next_hop_ns",
        "ns",
        Lower,
        &[(WALL_S, BOOT_EVENTS)],
    ),
    m("switch.switch.batches_applied", "count", Lower, SWITCH),
    m("switch.switch.rules_deleted", "count", Lower, REPAIR),
    m("switch.switch.packets_forwarded", "count", Lower, SWITCH),
    m("switch.switch.packets_dropped", "count", Lower, REPAIR),
    m("switch.switch.forward_ratio", "ratio", Higher, REPAIR),
    // core.legitimacy
    m("core.legitimacy.poll_s", "s", Lower, LEGIT),
    m("core.legitimacy.polls", "count", Lower, LEGIT),
    m("core.legitimacy.fresh_ms", "ms", Lower, LEGIT),
    m("core.legitimacy.cached_us", "us", Lower, LEGIT),
    // core.scenario — fault application and the driver itself.
    m("core.scenario.fault_apply_s", "s", Lower, REPAIR),
    m("core.scenario.schedule_build_ms", "ms", Lower, REPAIR),
    m("core.scenario.faults_injected", "count", Lower, REPAIR),
    m("core.scenario.recoveries", "count", Higher, REPAIR),
    m("core.scenario.driver_self_s", "s", Lower, REPAIR),
    // traffic.engine
    m("traffic.engine.start_s", "s", Lower, ENGINE),
    m("traffic.engine.tick_s", "s", Lower, ENGINE),
    m("traffic.engine.finish_s", "s", Lower, ENGINE),
    m("traffic.engine.retarget_ms", "ms", Lower, ENGINE),
    m("traffic.engine.flows_generated", "count", Higher, ENGINE),
    m("traffic.engine.flows_completed", "count", Higher, ENGINE),
    m("traffic.engine.peak_concurrent", "count", Higher, ENGINE),
    m("traffic.engine.flows_per_s", "1/s", Higher, ENGINE),
    m("traffic.engine.share", "ratio", Lower, ENGINE),
    m("metrics.digest.record_ns", "ns", Lower, ENGINE),
    m("metrics.digest.merge_us", "us", Lower, ENGINE),
    // serve.session — in-process cost of each call plus `to_string()`.
    m("serve.session.step_ms", "ms", Lower, SESSION),
    m("serve.session.apply_us", "us", Lower, SESSION),
    m("serve.session.metrics_json_us", "us", Lower, TRANSPORT),
    m("serve.session.topology_json_us", "us", Lower, TRANSPORT),
    m("serve.session.legitimacy_json_us", "us", Lower, TRANSPORT),
    m("serve.session.log_json_us", "us", Lower, TRANSPORT),
    m("serve.session.node_json_us", "us", Lower, TRANSPORT),
    m("serve.session.final_report_ms", "ms", Lower, SESSION),
    // serve.transport — what the one closed-loop client observed over HTTP.
    m("serve.transport.ticks_per_s", "1/s", Higher, SESSION),
    m("serve.transport.step_p50_ms", "ms", Lower, SESSION),
    m("serve.transport.step_p95_ms", "ms", Lower, SESSION),
    m("serve.transport.step_p99_ms", "ms", Lower, SESSION),
    m("serve.transport.read_p50_ms", "ms", Lower, TRANSPORT),
    m("serve.transport.read_p95_ms", "ms", Lower, TRANSPORT),
    m("serve.transport.overhead_step_us", "us", Lower, TRANSPORT),
    m("serve.transport.overhead_read_us", "us", Lower, TRANSPORT),
    m("serve.transport.requests", "count", Lower, TRANSPORT),
    // Not an exact count: `/metrics` carries a wall-clock `uptime_s` of varying width.
    m("serve.transport.bytes_out", "B", Lower, TRANSPORT),
    // serve.log
    m("serve.log.replay_s", "s", Lower, SESSION),
    m("serve.log.to_jsonl_ms", "ms", Lower, SESSION),
    m("serve.log.parse_ms", "ms", Lower, SESSION),
    m("serve.log.replay_ms_per_tick", "ms", Lower, SESSION),
    m("serve.log.bytes", "count", Lower, SESSION),
    m("serve.log.commands", "count", Lower, SESSION),
    // The traced run itself; moves nothing and must stay below 10 %.
    m("trace_overhead_pct", "pct", Lower, NOTHING),
    m("trace_spans", "count", Lower, NOTHING),
];

/// The declaration of the per-layer metric `name`.
///
/// # Panics
///
/// Panics when `name` is not declared: every metric this program reports must be.
pub fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"))
}

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// glibc allocator settings every measured process runs under. With the defaults,
/// multi-megabyte vectors are served from the heap once the dynamic mmap threshold
/// has risen, and whether a 24 MB request fits a hole left by earlier runs or
/// extends the heap depends on address layout: the same `load_ft8_1m` work peaked
/// at 86 MB or 109 MB from one process to the next, a two-valued `peak_rss_mb` no
/// bound can hold. Pinned, every block of 1 MB or more is mapped on its own and
/// returned when freed and the heap top is trimmed, so the high-water mark follows
/// live demand (101–112 MB on every seed tried). It is part of the declared
/// command, and the one-command form sets it for its children.
pub const ALLOCATOR_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "1048576"),
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
];

/// What the benchmark driver runs from the repository root, and for how long.
pub const COMMAND: [&str; 10] = [
    "env",
    "MALLOC_MMAP_THRESHOLD_=1048576",
    "MALLOC_TRIM_THRESHOLD_=1048576",
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/perf/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["crates/bench/perf"];
pub const RUN_SECONDS: u32 = 15;

/// The `BENCHMARK.json` document these declarations amount to (`--describe`); the
/// committed file at the repository root is this output, and the `names` test
/// fails when the two drift apart.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| json::quote(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": {},", list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": {},", list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let section = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(
            out,
            "  {}: [\n    {}\n  ]{}",
            json::quote(key),
            rows.join(",\n    "),
            if last { "" } else { "," }
        );
    };
    section(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::quote(w.name),
                    json::quote(w.why)
                )
            })
            .collect(),
        false,
    );
    section(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::quote(m.better.label()),
                    json::number(m.bound)
                )
            })
            .collect(),
        false,
    );
    section(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::quote(m.better.label())
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod names {
    use super::*;
    use crate::json::Value;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every workload and metric name the binary can print is declared exactly once,
    /// matches `[A-Za-z0-9_.-]+`, has a unit, and each per-layer metric names the
    /// end-to-end metric and workload it should move.
    #[test]
    fn declarations_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "workload name `{}`", w.name);
            assert!(seen.insert(w.name), "`{}` declared twice", w.name);
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name) && !m.unit.is_empty(), "{}", m.name);
            assert!(seen.insert(m.name), "`{}` declared twice", m.name);
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        assert!(
            END_TO_END
                .iter()
                .any(|m| m.name == SETUP_S && m.unit == "s" && m.better == Better::Lower),
            "the contract requires setup_s in seconds, lower is better"
        );
        for m in PER_LAYER {
            assert!(well_formed(m.name), "metric name `{}`", m.name);
            assert!(seen.insert(m.name), "`{}` declared twice", m.name);
            let unit_ok = !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
            assert!(unit_ok, "{}: unit `{}`", m.name, m.unit);
            // Only the traced run's own bookkeeping may move nothing.
            assert_eq!(
                m.moves.is_empty(),
                m.name.starts_with("trace_"),
                "{}",
                m.name
            );
            for (metric, workload) in m.moves {
                assert!(END_TO_END.iter().any(|e| e.name == *metric), "{}", m.name);
                assert!(workload_names().any(|w| w == *workload), "{}", m.name);
            }
        }
        assert!(PER_LAYER.len() <= 128);
        for (key, value) in ALLOCATOR_ENV {
            assert!(
                COMMAND.contains(&format!("{key}={value}").as_str()),
                "{key}"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly what this binary
    /// declares — names, units, directions, bounds, command and paths.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = json::parse(&committed).expect("BENCHMARK.json parses");
        let declared = json::parse(&benchmark_json()).expect("--describe output parses");
        assert_eq!(
            committed, declared,
            "BENCHMARK.json drifted from spec.rs; regenerate it with `renaissance-perf --describe`"
        );
        let keys: Vec<&str> = declared.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |section: &str| -> Vec<String> {
            declared
                .get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|entry| {
                    entry
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), workload_names().collect::<Vec<_>>());
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
