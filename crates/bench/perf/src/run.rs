//! One invocation on one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ledger — and the result
//! line both end with.

use crate::fingerprint;
use crate::json;
use crate::ledger::{self, Reference};
use crate::probes::serve_session;
use crate::serve;
use crate::sim;
use crate::spec::{self, END_TO_END};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::traced;
use crate::workloads::{self, Size};
use std::fmt::Write as _;
use std::time::Instant;

/// Where the traced run writes its spans, relative to the working directory.
const TRACE_FILE: &str = "trace.json";

pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// When `main` began.
    pub process_start: Instant,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    fn of_samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(samples),
        }
    }

    /// An `info` line: untraced samples of a declared per-layer metric.
    fn info(name: &str, samples: &[f64]) -> Metric {
        let spec = spec::per_layer(name);
        Metric::of_samples(spec.name, spec.unit, samples)
    }
}

/// Everything one invocation reports.
pub struct Outcome {
    pub workload: String,
    /// The declared metrics of this mode: every end-to-end metric, or every
    /// per-layer metric.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures shown beside the untraced metrics for the reader;
    /// their gated home is the per-layer set.
    pub info: Vec<Metric>,
    pub ops: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
}

impl Outcome {
    /// The human-readable block followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |tag: &str, m: &Metric| {
            let s = &m.summary;
            let _ = writeln!(
                out,
                "{tag} {} {} {} median={} q1={} q3={} n={}",
                self.workload, m.name, m.unit, s.median, s.q1, s.q3, s.n
            );
        };
        for m in &self.metrics {
            line("metric", m);
        }
        for m in &self.info {
            line("info", m);
        }
        let _ = writeln!(
            out,
            "sim_fingerprint {} {:016x}",
            self.workload, self.fingerprint
        );
        let _ = writeln!(
            out,
            "ops {} {} failed_ops {}",
            self.workload,
            self.ops,
            self.failures.len()
        );
        for failure in &self.failures {
            let _ = writeln!(out, "failure {} {failure}", self.workload);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.summary.median),
                    json::quote(m.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.ops.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
        out
    }
}

/// Timed samples an invocation runs: `--seconds` divided by the workload's nominal
/// sample length. The count — not the clock — ends the run, so both sides of a
/// comparison execute identical work on identical seeds.
fn samples_for(request: &Request, nominal_sample_s: f64) -> usize {
    match request.size {
        Size::Full => ((request.seconds / nominal_sample_s).ceil() as usize).max(2),
        Size::Quick => 2,
    }
}

fn end_to_end(setup_s: &[f64], wall_s: &[f64], events_per_s: &[f64]) -> Vec<Metric> {
    let rss = [stats::peak_rss_mb()];
    END_TO_END
        .iter()
        .map(|spec| {
            let samples: &[f64] = match spec.name {
                spec::SETUP_S => setup_s,
                spec::WALL_S => wall_s,
                spec::EVENTS_PER_S => events_per_s,
                _ => &rss,
            };
            Metric::of_samples(spec.name, spec.unit, samples)
        })
        .collect()
}

pub fn run(request: &Request) -> Result<Outcome, String> {
    match workloads::sim_plan(&request.workload, request.size) {
        Some(plan) => {
            let samples = samples_for(request, plan.nominal_sample_s);
            if request.traced {
                sim_traced(request, &plan, samples / 2)
            } else {
                Ok(sim_untraced(request, &plan, samples))
            }
        }
        None if request.workload == workloads::SERVE => {
            let plan = workloads::serve_plan(request.size);
            if request.traced {
                serve_traced(request, &plan)
            } else {
                serve_untraced(request, &plan, samples_for(request, plan.nominal_session_s))
            }
        }
        None => Err(format!(
            "unknown workload `{}`; known: {}",
            request.workload,
            spec::workload_names().collect::<Vec<_>>().join(", ")
        )),
    }
}

fn sim_untraced(request: &Request, plan: &workloads::SimPlan, samples: usize) -> Outcome {
    let m = sim::measure(plan, request.seed, samples, request.process_start);
    let mut info = Vec::new();
    if plan.flows.is_some() {
        info.push(Metric::info("traffic.engine.flows_per_s", &m.flows_per_s));
    }
    Outcome {
        workload: request.workload.clone(),
        metrics: end_to_end(&[m.setup_s], &m.wall_s, &m.events_per_s),
        info,
        ops: m.ops,
        failures: m.failures,
        fingerprint: m.fingerprint,
    }
}

fn serve_untraced(
    request: &Request,
    plan: &workloads::ServePlan,
    sessions: usize,
) -> Result<Outcome, String> {
    use stats::percentile;
    let runs = serve::sessions(plan, request.seed, sessions, request.process_start)?;
    let column = |value: &dyn Fn(&serve::SessionRun) -> f64| -> Vec<f64> {
        runs.iter().map(value).collect()
    };
    let info = [
        (
            "serve.transport.ticks_per_s",
            column(&|r| f64::from(plan.iterations) / r.client.loop_s),
        ),
        (
            "serve.transport.step_p50_ms",
            column(&|r| percentile(&r.step_ms(), 50.0)),
        ),
        (
            "serve.transport.step_p95_ms",
            column(&|r| percentile(&r.step_ms(), 95.0)),
        ),
        (
            "serve.transport.read_p50_ms",
            column(&|r| percentile(&r.read_ms(), 50.0)),
        ),
        (
            "serve.transport.read_p95_ms",
            column(&|r| percentile(&r.read_ms(), 95.0)),
        ),
        ("serve.log.replay_s", column(&|r| r.replay_s)),
    ]
    .into_iter()
    .map(|(name, samples)| Metric::info(name, &samples))
    .collect();
    let fingerprints: Vec<u64> = runs
        .iter()
        .map(|r| fingerprint::of_text(&r.report))
        .collect();
    Ok(Outcome {
        workload: request.workload.clone(),
        metrics: end_to_end(
            &column(&|r| r.client.setup_s),
            &column(&|r| r.wall_s()),
            &column(&|r| r.events_per_s()),
        ),
        info,
        ops: runs.iter().map(serve::SessionRun::ops).sum(),
        failures: runs.iter().flat_map(serve::SessionRun::failures).collect(),
        fingerprint: fingerprint::combine(&fingerprints),
    })
}

fn per_layer(ledger: &ledger::Ledger) -> Vec<Metric> {
    ledger
        .complete()
        .into_iter()
        .map(|(name, unit, value)| Metric::of_samples(name, unit, &[value]))
        .collect()
}

fn write_trace(tracer: &Tracer, workload: &str) -> Result<(), String> {
    tracer.check()?;
    std::fs::write(TRACE_FILE, tracer.to_json(workload))
        .map_err(|e| format!("writing {TRACE_FILE}: {e}"))
}

/// One traced sample: the plan's `K` seeds through the bench-side driver, checked
/// against the scenario runner's fingerprints of the same seeds.
struct TracedSample {
    wall_s: f64,
    tracer: Tracer,
    counts: ledger::SampleCounts,
    /// The last seeded run, kept for its end state.
    last: traced::TracedRun,
    failures: Vec<String>,
}

fn traced_sample(
    plan: &workloads::SimPlan,
    seed: u64,
    reference: &[u64],
) -> Result<TracedSample, String> {
    let mut tracer = Tracer::new(true);
    let mut counts = ledger::SampleCounts::default();
    let mut failures = Vec::new();
    let mut last = None;
    let started = Instant::now();
    for (i, want) in reference.iter().enumerate() {
        // Like the runner, keep one network alive at a time.
        drop(last.take());
        let run = traced::run_seed(plan, seed + i as u64, &mut tracer);
        counts.add(&run);
        failures.extend(sim::run_failure(&run.report));
        let got = fingerprint::of_run(&run.report);
        if got != *want {
            failures.push(format!(
                "seed {}: the traced driver's sim fingerprint {got:016x} differs from the scenario runner's {want:016x}",
                run.report.seed
            ));
        }
        last = Some(run);
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(TracedSample {
        wall_s,
        tracer,
        counts,
        last: last.ok_or("the workload has no seeded run")?,
        failures,
    })
}

/// A warm-up, then `pairs` times an untraced sample through the scenario runner
/// followed by a traced sample of the same seeds through the bench-side driver.
/// Tracing overhead is the median of the pairwise differences, which cancels slow
/// drift of the host; the ledger and `trace.json` describe the last traced sample.
fn sim_traced(
    request: &Request,
    plan: &workloads::SimPlan,
    pairs: usize,
) -> Result<Outcome, String> {
    let scenario = plan.scenario(request.seed);
    let warmup = sim::run_sample(&scenario);
    let mut failures = warmup.failures.clone();
    let mut ops = warmup.fingerprints.len() as u64;
    let mut flows_per_s = Vec::new();
    let mut overhead_pct = Vec::new();
    let mut kept = None;
    for _ in 0..pairs.max(1) {
        drop(kept.take());
        let untraced = sim::run_sample(&scenario);
        failures.extend(sim::sample_failures(&untraced, &warmup.fingerprints));
        flows_per_s.push(untraced.flows_completed as f64 / untraced.wall_s);
        let traced = traced_sample(plan, request.seed, &warmup.fingerprints)?;
        failures.extend(traced.failures.iter().cloned());
        ops += 2 * warmup.fingerprints.len() as u64;
        overhead_pct.push((traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0);
        kept = Some(traced);
    }
    let traced = kept.ok_or("no traced sample ran")?;
    let reference = Reference {
        trace_overhead_pct: stats::median(&overhead_pct),
        flows_per_s: stats::median(&flows_per_s),
    };
    let ledger = ledger::of_sim(
        plan,
        &traced.tracer,
        &traced.counts,
        &traced.last,
        &reference,
    );
    write_trace(&traced.tracer, &request.workload)?;
    Ok(Outcome {
        workload: request.workload.clone(),
        metrics: per_layer(&ledger),
        info: Vec::new(),
        ops,
        failures,
        fingerprint: fingerprint::combine(&warmup.fingerprints),
    })
}

/// One HTTP session, then its recorded script against a bare session, alternating
/// tracer off (the reference) and tracer on.
fn serve_traced(request: &Request, plan: &workloads::ServePlan) -> Result<Outcome, String> {
    let http = serve::run_session(plan, request.seed, request.process_start)?;
    let mut failures = http.failures();
    let nodes = http.client.nodes;
    let mut replay = |tracer: &mut Tracer, label: &str| {
        let started = Instant::now();
        let session = serve_session::run_script(&http.log, plan, nodes, tracer);
        let wall_s = started.elapsed().as_secs_f64();
        if session.final_report().to_string() != http.report {
            failures.push(format!(
                "the {label} bare-session replay does not reproduce the HTTP session's final report"
            ));
        }
        (session, wall_s)
    };
    // Two untraced/traced pairs; the overhead is the median pairwise difference and
    // the ledger describes the last traced replay.
    let mut overhead_pct = Vec::new();
    let mut kept = None;
    for _ in 0..2 {
        drop(kept.take());
        let (_, untraced_s) = replay(&mut Tracer::new(false), "untraced");
        let mut tracer = Tracer::new(true);
        let (bare, traced_s) = replay(&mut tracer, "traced");
        overhead_pct.push((traced_s - untraced_s) / untraced_s * 100.0);
        kept = Some((tracer, bare));
    }
    let (tracer, bare) = kept.ok_or("no traced replay ran")?;
    let ledger = ledger::of_serve(
        &http,
        plan.iterations,
        &tracer,
        &bare,
        stats::median(&overhead_pct),
    );
    write_trace(&tracer, &request.workload)?;
    Ok(Outcome {
        workload: request.workload.clone(),
        metrics: per_layer(&ledger),
        info: Vec::new(),
        ops: http.ops() + 4,
        failures,
        fingerprint: fingerprint::of_text(&http.report),
    })
}
