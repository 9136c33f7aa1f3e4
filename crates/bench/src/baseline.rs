//! Baseline regression gating for the scale campaign.
//!
//! This module compares a freshly produced campaign artifact (`BENCH_scale.json`)
//! against a committed baseline and decides whether the change regressed. Every
//! quantity in the artifact is *simulated* (`bootstrap_s`, `recovery_s`,
//! `messages_sent`, ...) — deterministic for equal seeds, so the gate cannot flake on
//! CI-runner noise. Host time is not in the artifact at all; `renaissance-perf`
//! (`BENCHMARK.json`) measures it.

use sdn_metrics::json::Json;

/// The per-cell metrics the gate compares, all lower-is-better. Each entry is the key
/// of a `Json::samples` object in a campaign result cell; its `mean` member is
/// compared. Every cell must carry all of them — a missing member is schema drift
/// and fails the gate loudly.
pub const GATED_METRICS: &[&str] = &["bootstrap_s", "recovery_s", "messages_sent"];

/// Scenario-specific gated metrics, lower-is-better, compared only when present in
/// both the current and the baseline cell (only the gray-failure cells carry them).
pub const OPTIONAL_GATED_METRICS: &[&str] = &["partition_messages"];

/// Scenario-specific gated metrics that are *higher*-is-better (a drop past the
/// threshold regresses). Compared only when present in both cells.
pub const OPTIONAL_GATED_HIGHER: &[&str] = &["flap_survival"];

/// Per-cell metrics compared in the delta report but never gated: the flow-engine
/// telemetry of the under-load cells. Schema-tolerant — cells missing one of these
/// are simply not compared on it, so baselines without the under-load cells still
/// gate cleanly.
pub const CONTEXT_METRICS: &[&str] = &["fct_p50_s", "fct_p99_s", "achieved_mbps"];

/// The change of one gated metric in one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct GateEntry {
    /// The topology spec of the cell (e.g. `"fat_tree(4)"`).
    pub spec: String,
    /// The fault scenario of the cell (e.g. `"bootstrap"`).
    pub scenario: String,
    /// Which metric this entry compares (`"bootstrap_s"`, ...).
    pub metric: &'static str,
    /// The baseline mean.
    pub baseline: f64,
    /// The current mean.
    pub current: f64,
    /// Relative change in percent, oriented so positive = got worse regardless of
    /// the metric's polarity. Infinite when the baseline mean is zero and the
    /// current one moved in the worse direction.
    pub change_pct: f64,
}

impl GateEntry {
    /// Whether this entry trips the gate.
    pub fn regressed(&self, gate_pct: f64) -> bool {
        self.change_pct > gate_pct
    }
}

/// The full comparison of a campaign artifact against a baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateReport {
    /// The gate threshold, in percent.
    pub gate_pct: f64,
    /// One entry per `(cell, gated metric)` present in both artifacts.
    pub entries: Vec<GateEntry>,
    /// One entry per `(cell, context metric)` present in both artifacts — reported
    /// for FCT/goodput trend visibility, never counted as a regression. For these,
    /// `change_pct` is the raw relative change (sign uninterpreted).
    pub context: Vec<GateEntry>,
    /// Cells present in only one of the two artifacts (`"spec/scenario"`), compared
    /// with nothing and reported so a silently shrinking sweep is visible.
    pub unmatched: Vec<String>,
}

impl GateReport {
    /// The entries that regressed past the gate.
    pub fn regressions(&self) -> Vec<&GateEntry> {
        self.entries
            .iter()
            .filter(|e| e.regressed(self.gate_pct))
            .collect()
    }

    /// Renders the delta report as a JSON document (the CI artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("report", Json::str("scale_campaign_delta")),
            ("gate_pct", Json::num(self.gate_pct)),
            ("regressions", Json::num(self.regressions().len() as f64)),
            (
                "entries",
                Json::arr(self.entries.iter().map(|e| {
                    Json::obj([
                        ("spec", Json::str(e.spec.clone())),
                        ("scenario", Json::str(e.scenario.clone())),
                        ("metric", Json::str(e.metric)),
                        ("baseline_mean", Json::num(e.baseline)),
                        ("current_mean", Json::num(e.current)),
                        ("change_pct", Json::num(e.change_pct)),
                        ("regressed", Json::Bool(e.regressed(self.gate_pct))),
                    ])
                })),
            ),
            (
                "context",
                Json::arr(self.context.iter().map(|e| {
                    Json::obj([
                        ("spec", Json::str(e.spec.clone())),
                        ("scenario", Json::str(e.scenario.clone())),
                        ("metric", Json::str(e.metric)),
                        ("baseline", Json::num(e.baseline)),
                        ("current", Json::num(e.current)),
                        ("change_pct", Json::num(e.change_pct)),
                    ])
                })),
            ),
            (
                "unmatched_cells",
                Json::arr(self.unmatched.iter().map(Json::str)),
            ),
        ])
    }
}

/// The identity and gated means of one campaign cell.
fn cell_metrics(result: &Json) -> Option<(String, Vec<(&'static str, f64)>)> {
    let spec = result.get("spec")?.as_str()?;
    let scenario = result.get("scenario")?.as_str()?;
    let mut means = Vec::new();
    for &metric in GATED_METRICS {
        let mean = result.get(metric)?.get("mean")?.as_f64()?;
        means.push((metric, mean));
    }
    Some((format!("{spec}/{scenario}"), means))
}

/// Compares a current campaign artifact against a baseline artifact, producing the
/// per-cell deltas of the gated metrics.
///
/// Cells are matched by `(spec, scenario)`; cells present in only one artifact are
/// listed in [`GateReport::unmatched`] rather than compared. Fails loudly — rather
/// than comparing nothing and reporting success — when either document is not a
/// `scale_campaign` artifact, when any result cell lacks the gated stats members
/// (schema drift would otherwise silently disable the gate), or when no cell of the
/// current artifact matched the baseline at all.
pub fn gate_campaign(current: &Json, baseline: &Json, gate_pct: f64) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        let name = doc
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label} artifact has no \"benchmark\" field"))?;
        if name != "scale_campaign" {
            return Err(format!(
                "{label} artifact is a '{name}' benchmark, expected 'scale_campaign'"
            ));
        }
    }
    let results = |doc: &Json, label: &str| -> Result<Vec<Json>, String> {
        doc.get("results")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{label} artifact has no \"results\" array"))
    };
    let current_cells = results(current, "current")?;
    let baseline_cells = results(baseline, "baseline")?;

    let mut baseline_by_cell: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    for (i, cell) in baseline_cells.iter().enumerate() {
        baseline_by_cell.push(cell_metrics(cell).ok_or_else(|| {
            format!("baseline result cell #{i} is missing gated stats members (schema drift?)")
        })?);
    }

    // Optional and context metrics are samples objects a cell may lack.
    let mean_of =
        |cell: &Json, metric: &str| -> Option<f64> { cell.get(metric)?.get("mean")?.as_f64() };

    let mut report = GateReport {
        gate_pct,
        entries: Vec::new(),
        context: Vec::new(),
        unmatched: Vec::new(),
    };
    let mut matched_baselines = vec![false; baseline_by_cell.len()];
    for (i, result) in current_cells.iter().enumerate() {
        let (cell, current_means) = cell_metrics(result).ok_or_else(|| {
            format!("current result cell #{i} is missing gated stats members (schema drift?)")
        })?;
        let Some(index) = baseline_by_cell.iter().position(|(c, _)| c == &cell) else {
            report.unmatched.push(format!("{cell} (current only)"));
            continue;
        };
        matched_baselines[index] = true;
        let (spec, scenario) = cell
            .split_once('/')
            .ok_or_else(|| format!("malformed cell id `{cell}` (expected `spec/scenario`)"))?;
        for ((metric, current), &(_, base)) in
            current_means.into_iter().zip(&baseline_by_cell[index].1)
        {
            let change_pct = if base != 0.0 {
                (current - base) / base * 100.0
            } else if current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            report.entries.push(GateEntry {
                spec: spec.to_string(),
                scenario: scenario.to_string(),
                metric,
                baseline: base,
                current,
                change_pct,
            });
        }
        // Scenario-specific gated metrics: only the gray-failure cells carry them,
        // so each is compared when both artifacts have it and skipped otherwise.
        for (metrics, higher_is_better) in [
            (OPTIONAL_GATED_METRICS, false),
            (OPTIONAL_GATED_HIGHER, true),
        ] {
            for &metric in metrics {
                let (Some(current), Some(base)) = (
                    mean_of(result, metric),
                    mean_of(&baseline_cells[index], metric),
                ) else {
                    continue;
                };
                // Orient the delta so positive = regressed, whatever the polarity.
                let worse = if higher_is_better {
                    base - current
                } else {
                    current - base
                };
                let change_pct = if base != 0.0 {
                    worse / base * 100.0
                } else if worse == 0.0 {
                    0.0
                } else if worse > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                report.entries.push(GateEntry {
                    spec: spec.to_string(),
                    scenario: scenario.to_string(),
                    metric,
                    baseline: base,
                    current,
                    change_pct,
                });
            }
        }
        for &metric in CONTEXT_METRICS {
            let (Some(current), Some(base)) = (
                mean_of(result, metric),
                mean_of(&baseline_cells[index], metric),
            ) else {
                continue;
            };
            let change_pct = if base != 0.0 {
                (current - base) / base * 100.0
            } else {
                0.0
            };
            report.context.push(GateEntry {
                spec: spec.to_string(),
                scenario: scenario.to_string(),
                metric,
                baseline: base,
                current,
                change_pct,
            });
        }
    }
    for (matched, (cell, _)) in matched_baselines.iter().zip(&baseline_by_cell) {
        if !matched {
            report.unmatched.push(format!("{cell} (baseline only)"));
        }
    }
    if report.entries.is_empty() && !current_cells.is_empty() {
        return Err(format!(
            "no cell of the current artifact matched the baseline ({} current, {} baseline \
             cells) — wrong baseline file?",
            current_cells.len(),
            baseline_by_cell.len()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(cells: &[(&str, &str, f64, f64, f64)]) -> Json {
        Json::obj([
            ("benchmark", Json::str("scale_campaign")),
            (
                "results",
                Json::arr(cells.iter().map(|(spec, scenario, boot, recov, msgs)| {
                    Json::obj([
                        ("spec", Json::str(*spec)),
                        ("scenario", Json::str(*scenario)),
                        ("bootstrap_s", Json::obj([("mean", Json::num(*boot))])),
                        ("recovery_s", Json::obj([("mean", Json::num(*recov))])),
                        ("messages_sent", Json::obj([("mean", Json::num(*msgs))])),
                    ])
                })),
            ),
        ])
    }

    /// An artifact whose single cell also carries the gray-failure metrics.
    fn gray_artifact(survival: f64, partition_msgs: f64) -> Json {
        Json::obj([
            ("benchmark", Json::str("scale_campaign")),
            (
                "results",
                Json::arr([Json::obj([
                    ("spec", Json::str("fat_tree(4)")),
                    ("scenario", Json::str("partition_heal")),
                    ("bootstrap_s", Json::obj([("mean", Json::num(1.0))])),
                    ("recovery_s", Json::obj([("mean", Json::num(0.5))])),
                    ("messages_sent", Json::obj([("mean", Json::num(1000.0))])),
                    ("flap_survival", Json::obj([("mean", Json::num(survival))])),
                    (
                        "partition_messages",
                        Json::obj([("mean", Json::num(partition_msgs))]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn optional_gray_metrics_are_gated_with_polarity() {
        let baseline = gray_artifact(1.0, 200.0);
        // Survival dropped (higher-is-better) and partition traffic doubled
        // (lower-is-better): both must read as positive regressions.
        let current = gray_artifact(0.5, 400.0);
        let report = gate_campaign(&current, &baseline, 25.0).unwrap();
        let regressions = report.regressions();
        let metrics: Vec<&str> = regressions.iter().map(|r| r.metric).collect();
        assert!(metrics.contains(&"flap_survival"));
        assert!(metrics.contains(&"partition_messages"));
        let survival = regressions
            .iter()
            .find(|r| r.metric == "flap_survival")
            .unwrap();
        assert!((survival.change_pct - 50.0).abs() < 1e-9);
        // The opposite direction is an improvement and never trips.
        assert!(gate_campaign(&baseline, &current, 25.0)
            .unwrap()
            .regressions()
            .is_empty());
        // A baseline without the optional members still gates cleanly.
        let plain = artifact(&[("fat_tree(4)", "partition_heal", 1.0, 0.5, 1000.0)]);
        let report = gate_campaign(&current, &plain, 25.0).unwrap();
        assert!(report.entries.iter().all(|e| e.metric != "flap_survival"));
    }

    #[test]
    fn identical_artifacts_pass() {
        let doc = artifact(&[("fat_tree(4)", "bootstrap", 10.0, 0.0, 1000.0)]);
        let report = gate_campaign(&doc, &doc, 25.0).unwrap();
        assert_eq!(report.entries.len(), 3);
        assert!(report.regressions().is_empty());
        assert!(report.unmatched.is_empty());
        assert!(report.entries.iter().all(|e| e.change_pct == 0.0));
    }

    #[test]
    fn synthetic_regression_trips_the_gate() {
        let baseline = artifact(&[
            ("fat_tree(4)", "bootstrap", 10.0, 0.0, 1000.0),
            ("grid(4, 5)", "controller_failure", 10.0, 5.0, 2000.0),
        ]);
        // Bootstrap 50% slower on one cell, messages doubled on the other.
        let current = artifact(&[
            ("fat_tree(4)", "bootstrap", 15.0, 0.0, 1000.0),
            ("grid(4, 5)", "controller_failure", 10.0, 5.0, 4000.0),
        ]);
        let report = gate_campaign(&current, &baseline, 25.0).unwrap();
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 2);
        assert_eq!(regressions[0].metric, "bootstrap_s");
        assert_eq!(regressions[0].spec, "fat_tree(4)");
        assert!((regressions[0].change_pct - 50.0).abs() < 1e-9);
        assert_eq!(regressions[1].metric, "messages_sent");
        // A 150% gate tolerates both.
        assert!(gate_campaign(&current, &baseline, 150.0)
            .unwrap()
            .regressions()
            .is_empty());
        // Improvements never trip the gate.
        assert!(gate_campaign(&baseline, &current, 25.0)
            .unwrap()
            .regressions()
            .is_empty());
    }

    #[test]
    fn context_metrics_are_reported_not_gated() {
        let with_context = |fct_p99: f64| {
            Json::obj([
                ("benchmark", Json::str("scale_campaign")),
                (
                    "results",
                    Json::arr([Json::obj([
                        ("spec", Json::str("a")),
                        ("scenario", Json::str("bootstrap_under_load")),
                        ("bootstrap_s", Json::obj([("mean", Json::num(1.0))])),
                        ("recovery_s", Json::obj([("mean", Json::num(0.0))])),
                        ("messages_sent", Json::obj([("mean", Json::num(1.0))])),
                        ("fct_p99_s", Json::obj([("mean", Json::num(fct_p99))])),
                    ])]),
                ),
            ])
        };
        // Tail FCT doubled: reported in `context`, but no regression is flagged.
        let report = gate_campaign(&with_context(8.0), &with_context(4.0), 25.0).unwrap();
        assert!(report.regressions().is_empty());
        assert_eq!(report.context.len(), 1);
        assert_eq!(report.context[0].metric, "fct_p99_s");
        assert!((report.context[0].change_pct - 100.0).abs() < 1e-9);
        let json = report.to_json().to_string();
        assert!(json.contains("\"context\":["));
        // A baseline without the context keys still gates.
        let old = artifact(&[("a", "bootstrap_under_load", 1.0, 0.0, 1.0)]);
        let report = gate_campaign(&with_context(8.0), &old, 25.0).unwrap();
        assert!(report.context.is_empty());
        assert_eq!(report.entries.len(), 3);
    }

    #[test]
    fn zero_baseline_growth_is_infinite_regression() {
        let baseline = artifact(&[("g", "bootstrap", 10.0, 0.0, 100.0)]);
        let current = artifact(&[("g", "bootstrap", 10.0, 3.0, 100.0)]);
        let report = gate_campaign(&current, &baseline, 1000.0).unwrap();
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "recovery_s");
        assert!(regressions[0].change_pct.is_infinite());
    }

    #[test]
    fn unmatched_cells_are_reported_not_compared() {
        let baseline = artifact(&[
            ("a", "bootstrap", 1.0, 0.0, 1.0),
            ("gone", "bootstrap", 1.0, 0.0, 1.0),
        ]);
        let current = artifact(&[
            ("a", "bootstrap", 1.0, 0.0, 1.0),
            ("new", "bootstrap", 99.0, 0.0, 99.0),
        ]);
        let report = gate_campaign(&current, &baseline, 25.0).unwrap();
        assert!(report.regressions().is_empty());
        assert_eq!(
            report.unmatched,
            vec![
                "new/bootstrap (current only)",
                "gone/bootstrap (baseline only)"
            ]
        );
        let json = report.to_json().to_string();
        assert!(json.contains("\"unmatched_cells\":[\"new/bootstrap (current only)\""));
    }

    #[test]
    fn schema_drift_fails_the_gate_loudly() {
        let good = artifact(&[("a", "bootstrap", 1.0, 0.0, 1.0)]);
        // A cell whose bootstrap_s object lost its "mean" member.
        let drifted = Json::obj([
            ("benchmark", Json::str("scale_campaign")),
            (
                "results",
                Json::arr([Json::obj([
                    ("spec", Json::str("a")),
                    ("scenario", Json::str("bootstrap")),
                    ("bootstrap_s", Json::obj([("median", Json::num(1.0))])),
                    ("recovery_s", Json::obj([("mean", Json::num(0.0))])),
                    ("messages_sent", Json::obj([("mean", Json::num(1.0))])),
                ])]),
            ),
        ]);
        let err = gate_campaign(&drifted, &good, 25.0).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        let err = gate_campaign(&good, &drifted, 25.0).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        // Disjoint sweeps compare nothing: also a loud failure, not a green gate.
        let disjoint = artifact(&[("b", "bootstrap", 1.0, 0.0, 1.0)]);
        let err = gate_campaign(&good, &disjoint, 25.0).unwrap_err();
        assert!(err.contains("no cell"), "{err}");
    }

    #[test]
    fn non_campaign_artifacts_are_rejected() {
        let doc = artifact(&[]);
        let other = Json::obj([("benchmark", Json::str("other"))]);
        assert!(gate_campaign(&doc, &other, 10.0).is_err());
        assert!(gate_campaign(&other, &doc, 10.0).is_err());
        assert!(gate_campaign(&doc, &Json::Null, 10.0).is_err());
    }
}
