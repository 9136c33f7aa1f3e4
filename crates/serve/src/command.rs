//! Typed session commands and their JSON wire form.
//!
//! Every mutation the service can perform is a [`Command`]: the transport layer
//! parses HTTP bodies into commands and enqueues them, the driver stamps each onto
//! the tick it was applied at and appends it to the command log, and replay
//! re-executes the same commands at the same ticks. Keeping the wire form total
//! (every command round-trips through [`Command::to_json`] / [`Command::from_json`])
//! is what makes a recorded session a complete, self-contained artifact.

use sdn_metrics::json::Json;

/// One fault injection, addressed by concrete node indices (no random selectors:
/// a logged command must mean the same victims on every replay).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Fail-stop the controller with this index.
    FailController(u32),
    /// Revive a failed controller with fresh (empty) state.
    ReviveController(u32),
    /// Fail-stop the switch with this index.
    FailSwitch(u32),
    /// Revive a failed switch with empty configuration.
    ReviveSwitch(u32),
    /// Temporarily fail the link between the two nodes (it stays part of `Gc`).
    FailLink(u32, u32),
    /// Restore a temporarily failed link.
    RestoreLink(u32, u32),
    /// Permanently remove the link from the topology.
    RemoveLink(u32, u32),
    /// Add a brand-new link to the topology.
    AddLink(u32, u32),
    /// Degrade the link's quality without failing it — the gray failure: the link
    /// stays part of `Gc` but starts dropping packets.
    DegradeLink {
        /// One endpoint of the link.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// Flat per-packet loss probability (ignored when `burst` is set: the
        /// burst process then owns the loss decision).
        loss: f64,
        /// Optional Gilbert burst-loss process `(p_enter, p_exit, loss_bad)`.
        burst: Option<(f64, f64, f64)>,
        /// Degrade only the `a -> b` direction, leaving the reverse clean.
        asymmetric: bool,
    },
    /// Remove every quality override from the link, restoring default behaviour.
    RestoreLinkQuality(u32, u32),
    /// Cut every link whose endpoints land in different groups. Nodes listed in
    /// several groups keep their first assignment; unlisted nodes keep all their
    /// links. Undone by [`FaultSpec::HealPartition`].
    Partition {
        /// Explicit node-index groups (at least two).
        groups: Vec<Vec<u32>>,
    },
    /// Restore every link cut by the partition currently in force.
    HealPartition,
    /// Flap the link: starting next tick, down for half of each period and back
    /// up for the rest, `count` times. Phases fire from the session's pending
    /// fault queue, so a replay flips the link on exactly the same ticks.
    FlapLink {
        /// One endpoint of the link.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// Full down-then-up cycle length in ticks (at least 2).
        period_ticks: u32,
        /// Number of down/up cycles.
        count: u32,
    },
    /// Restart controllers one at a time: controller `i` (in index order) goes
    /// down `i * interval_ticks` after the next tick and revives `down_ticks`
    /// later — the rolling-upgrade drill.
    RollingRestart {
        /// Ticks between consecutive controllers' restarts.
        interval_ticks: u32,
        /// Ticks each controller stays down (less than `interval_ticks`, so at
        /// most one controller is down at a time).
        down_ticks: u32,
        /// Number of controllers to cycle, lowest indices first.
        count: u32,
    },
}

impl FaultSpec {
    /// The `kind` discriminant used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::FailController(_) => "fail_controller",
            FaultSpec::ReviveController(_) => "revive_controller",
            FaultSpec::FailSwitch(_) => "fail_switch",
            FaultSpec::ReviveSwitch(_) => "revive_switch",
            FaultSpec::FailLink(..) => "fail_link",
            FaultSpec::RestoreLink(..) => "restore_link",
            FaultSpec::RemoveLink(..) => "remove_link",
            FaultSpec::AddLink(..) => "add_link",
            FaultSpec::DegradeLink { .. } => "degrade_link",
            FaultSpec::RestoreLinkQuality(..) => "restore_link_quality",
            FaultSpec::Partition { .. } => "partition",
            FaultSpec::HealPartition => "heal_partition",
            FaultSpec::FlapLink { .. } => "flap_link",
            FaultSpec::RollingRestart { .. } => "rolling_restart",
        }
    }

    /// Serializes to the wire object (`{"kind":...,"node":n}`,
    /// `{"kind":...,"a":n,"b":m}`, or a kind-specific shape).
    pub fn to_json(&self) -> Json {
        match self {
            FaultSpec::FailController(n)
            | FaultSpec::ReviveController(n)
            | FaultSpec::FailSwitch(n)
            | FaultSpec::ReviveSwitch(n) => Json::obj([
                ("kind", Json::str(self.kind())),
                ("node", Json::num(f64::from(*n))),
            ]),
            FaultSpec::FailLink(a, b)
            | FaultSpec::RestoreLink(a, b)
            | FaultSpec::RemoveLink(a, b)
            | FaultSpec::AddLink(a, b)
            | FaultSpec::RestoreLinkQuality(a, b) => Json::obj([
                ("kind", Json::str(self.kind())),
                ("a", Json::num(f64::from(*a))),
                ("b", Json::num(f64::from(*b))),
            ]),
            FaultSpec::DegradeLink {
                a,
                b,
                loss,
                burst,
                asymmetric,
            } => {
                let mut members = vec![
                    ("kind".to_string(), Json::str(self.kind())),
                    ("a".to_string(), Json::num(f64::from(*a))),
                    ("b".to_string(), Json::num(f64::from(*b))),
                    ("loss".to_string(), Json::num(*loss)),
                ];
                if let Some((p_enter, p_exit, loss_bad)) = burst {
                    members.push((
                        "burst".to_string(),
                        Json::obj([
                            ("p_enter", Json::num(*p_enter)),
                            ("p_exit", Json::num(*p_exit)),
                            ("loss_bad", Json::num(*loss_bad)),
                        ]),
                    ));
                }
                if *asymmetric {
                    members.push(("asymmetric".to_string(), Json::Bool(true)));
                }
                Json::Obj(members)
            }
            FaultSpec::Partition { groups } => Json::obj([
                ("kind", Json::str(self.kind())),
                (
                    "groups",
                    Json::arr(
                        groups
                            .iter()
                            .map(|group| {
                                Json::arr(
                                    group
                                        .iter()
                                        .map(|n| Json::num(f64::from(*n)))
                                        .collect::<Vec<_>>(),
                                )
                            })
                            .collect::<Vec<_>>(),
                    ),
                ),
            ]),
            FaultSpec::HealPartition => Json::obj([("kind", Json::str(self.kind()))]),
            FaultSpec::FlapLink {
                a,
                b,
                period_ticks,
                count,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("a", Json::num(f64::from(*a))),
                ("b", Json::num(f64::from(*b))),
                ("period_ticks", Json::num(f64::from(*period_ticks))),
                ("count", Json::num(f64::from(*count))),
            ]),
            FaultSpec::RollingRestart {
                interval_ticks,
                down_ticks,
                count,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("interval_ticks", Json::num(f64::from(*interval_ticks))),
                ("down_ticks", Json::num(f64::from(*down_ticks))),
                ("count", Json::num(f64::from(*count))),
            ]),
        }
    }

    /// Parses the wire object.
    pub fn from_json(json: &Json) -> Result<FaultSpec, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("fault needs a string `kind`")?;
        let node = || -> Result<u32, String> {
            field_u32(json, "node").ok_or_else(|| format!("fault `{kind}` needs a `node` index"))
        };
        let link = || -> Result<(u32, u32), String> {
            match (field_u32(json, "a"), field_u32(json, "b")) {
                (Some(a), Some(b)) => Ok((a, b)),
                _ => Err(format!("fault `{kind}` needs `a` and `b` node indices")),
            }
        };
        Ok(match kind {
            "fail_controller" => FaultSpec::FailController(node()?),
            "revive_controller" => FaultSpec::ReviveController(node()?),
            "fail_switch" => FaultSpec::FailSwitch(node()?),
            "revive_switch" => FaultSpec::ReviveSwitch(node()?),
            "fail_link" => {
                let (a, b) = link()?;
                FaultSpec::FailLink(a, b)
            }
            "restore_link" => {
                let (a, b) = link()?;
                FaultSpec::RestoreLink(a, b)
            }
            "remove_link" => {
                let (a, b) = link()?;
                FaultSpec::RemoveLink(a, b)
            }
            "add_link" => {
                let (a, b) = link()?;
                FaultSpec::AddLink(a, b)
            }
            "degrade_link" => {
                let (a, b) = link()?;
                let loss = field_prob(json, "loss")?.unwrap_or(0.0);
                let burst = match json.get("burst") {
                    None => None,
                    Some(burst) => {
                        let required = |key: &str| -> Result<f64, String> {
                            field_prob(burst, key)?
                                .ok_or_else(|| format!("`burst` needs a probability `{key}`"))
                        };
                        Some((
                            required("p_enter")?,
                            required("p_exit")?,
                            field_prob(burst, "loss_bad")?.unwrap_or(1.0),
                        ))
                    }
                };
                let asymmetric = json
                    .get("asymmetric")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                FaultSpec::DegradeLink {
                    a,
                    b,
                    loss,
                    burst,
                    asymmetric,
                }
            }
            "restore_link_quality" => {
                let (a, b) = link()?;
                FaultSpec::RestoreLinkQuality(a, b)
            }
            "partition" => {
                let groups = json
                    .get("groups")
                    .and_then(Json::as_array)
                    .ok_or("fault `partition` needs `groups`: an array of node-index arrays")?;
                let mut parsed = Vec::new();
                for group in groups {
                    let members = group
                        .as_array()
                        .ok_or("each partition group must be an array of node indices")?;
                    let mut nodes = Vec::new();
                    for member in members {
                        let n = member
                            .as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or("partition group members must be node indices")?;
                        nodes.push(n);
                    }
                    parsed.push(nodes);
                }
                if parsed.len() < 2 {
                    return Err("a partition needs at least two groups".to_string());
                }
                FaultSpec::Partition { groups: parsed }
            }
            "heal_partition" => FaultSpec::HealPartition,
            "flap_link" => {
                let (a, b) = link()?;
                let period_ticks = field_u32(json, "period_ticks")
                    .filter(|p| *p >= 2)
                    .ok_or("fault `flap_link` needs `period_ticks` of at least 2")?;
                let count = field_u32(json, "count")
                    .filter(|c| *c >= 1)
                    .ok_or("fault `flap_link` needs a positive `count`")?;
                FaultSpec::FlapLink {
                    a,
                    b,
                    period_ticks,
                    count,
                }
            }
            "rolling_restart" => {
                let interval_ticks = field_u32(json, "interval_ticks")
                    .filter(|i| *i >= 2)
                    .ok_or("fault `rolling_restart` needs `interval_ticks` of at least 2")?;
                let down_ticks = field_u32(json, "down_ticks")
                    .filter(|d| *d >= 1 && *d < interval_ticks)
                    .ok_or("`down_ticks` must be in [1, interval_ticks)")?;
                let count = field_u32(json, "count")
                    .filter(|c| *c >= 1)
                    .ok_or("fault `rolling_restart` needs a positive `count`")?;
                FaultSpec::RollingRestart {
                    interval_ticks,
                    down_ticks,
                    count,
                }
            }
            other => return Err(format!("unknown fault kind `{other}`")),
        })
    }
}

/// A flow-engine workload attachment: which traffic shape to offer and for how many
/// service ticks. The arrival process is the open-loop Poisson law when
/// `rate_per_tick` is set, otherwise every flow starts up front.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowsSpec {
    /// Number of sampled source/destination pairs.
    pub pairs: u32,
    /// Service ticks the workload runs for before reporting.
    pub duration_ticks: u32,
    /// Open-loop Poisson arrival rate in flows per service tick; `None` = up-front.
    pub rate_per_tick: Option<f64>,
    /// Traffic matrix label: `"uniform"` (default) or `"permutation"`.
    pub permutation: bool,
    /// Extra salt mixed into the workload seed, so repeated attachments offer
    /// decorrelated flow populations; `None` = the engine default.
    pub seed_salt: Option<u64>,
}

impl FlowsSpec {
    /// Serializes to the wire object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("pairs".to_string(), Json::num(f64::from(self.pairs))),
            (
                "duration_ticks".to_string(),
                Json::num(f64::from(self.duration_ticks)),
            ),
        ];
        if let Some(rate) = self.rate_per_tick {
            members.push(("rate_per_tick".to_string(), Json::num(rate)));
        }
        if self.permutation {
            members.push(("matrix".to_string(), Json::str("permutation")));
        }
        if let Some(salt) = self.seed_salt {
            members.push(("seed_salt".to_string(), Json::num(salt as f64)));
        }
        Json::Obj(members)
    }

    /// Parses the wire object.
    pub fn from_json(json: &Json) -> Result<FlowsSpec, String> {
        let pairs = field_u32(json, "pairs").ok_or("flows need a `pairs` count")?;
        let duration_ticks =
            field_u32(json, "duration_ticks").ok_or("flows need a `duration_ticks` window")?;
        if pairs == 0 || duration_ticks == 0 {
            return Err("`pairs` and `duration_ticks` must be positive".to_string());
        }
        let rate_per_tick = json.get("rate_per_tick").and_then(Json::as_f64);
        if let Some(rate) = rate_per_tick {
            if !rate.is_finite() || rate <= 0.0 {
                return Err("`rate_per_tick` must be positive".to_string());
            }
        }
        let permutation = match json.get("matrix").and_then(Json::as_str) {
            None | Some("uniform") => false,
            Some("permutation") => true,
            Some(other) => return Err(format!("unknown matrix `{other}`")),
        };
        let seed_salt = json
            .get("seed_salt")
            .and_then(Json::as_f64)
            .map(|s| s as u64);
        Ok(FlowsSpec {
            pairs,
            duration_ticks,
            rate_per_tick,
            permutation,
            seed_salt,
        })
    }
}

/// One command a client issued against the session.
///
/// Mutating commands ([`Command::Fault`], [`Command::Flows`]) change simulated
/// state when applied; control commands ([`Command::Step`], [`Command::Run`],
/// [`Command::Pause`], [`Command::Shutdown`]) steer the driver and are logged for
/// audit but replayed as no-ops — the ticks they caused are already captured by the
/// stamps of later entries and the log's final tick.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Inject one fault.
    Fault(FaultSpec),
    /// Attach one flow-engine workload.
    Flows(FlowsSpec),
    /// Advance the session by this many ticks.
    Step {
        /// Number of ticks to execute.
        ticks: u32,
    },
    /// Enter free-running mode, optionally until the given simulated second.
    Run {
        /// Simulated-time deadline in seconds; `None` runs until paused.
        until_s: Option<f64>,
    },
    /// Leave free-running mode.
    Pause,
    /// End the session: the driver finalizes the command log and returns.
    Shutdown,
}

impl Command {
    /// Serializes to the wire object (`{"op":...,...}`).
    pub fn to_json(&self) -> Json {
        match self {
            Command::Fault(spec) => with_op("fault", spec.to_json()),
            Command::Flows(spec) => with_op("flows", spec.to_json()),
            Command::Step { ticks } => Json::obj([
                ("op", Json::str("step")),
                ("ticks", Json::num(f64::from(*ticks))),
            ]),
            Command::Run { until_s } => match until_s {
                Some(until) => {
                    Json::obj([("op", Json::str("run")), ("until_s", Json::num(*until))])
                }
                None => Json::obj([("op", Json::str("run"))]),
            },
            Command::Pause => Json::obj([("op", Json::str("pause"))]),
            Command::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        }
    }

    /// Parses the wire object.
    pub fn from_json(json: &Json) -> Result<Command, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("command needs a string `op`")?;
        Ok(match op {
            "fault" => Command::Fault(FaultSpec::from_json(json)?),
            "flows" => Command::Flows(FlowsSpec::from_json(json)?),
            "step" => Command::Step {
                ticks: field_u32(json, "ticks").unwrap_or(1).max(1),
            },
            "run" => Command::Run {
                until_s: json.get("until_s").and_then(Json::as_f64),
            },
            "pause" => Command::Pause,
            "shutdown" => Command::Shutdown,
            other => return Err(format!("unknown command op `{other}`")),
        })
    }
}

/// Prepends the `op` member to a serialized payload object.
fn with_op(op: &str, payload: Json) -> Json {
    let mut members = vec![("op".to_string(), Json::str(op))];
    if let Json::Obj(rest) = payload {
        members.extend(rest);
    }
    Json::Obj(members)
}

/// An optional probability member: absent is `Ok(None)`, present-but-invalid
/// (non-numeric, non-finite, outside `[0, 1]`) is a hard reject — the session core
/// clamps defensively, but a typo'd `loss` of `30` should fail loudly at the wire.
fn field_prob(json: &Json, key: &str) -> Result<Option<f64>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(value) => match value.as_f64() {
            Some(p) if p.is_finite() && (0.0..=1.0).contains(&p) => Ok(Some(p)),
            _ => Err(format!("`{key}` must be a probability in [0, 1]")),
        },
    }
}

fn field_u32(json: &Json, key: &str) -> Option<u32> {
    u32::try_from(json.get(key)?.as_u64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_round_trips_through_json() {
        let commands = [
            Command::Fault(FaultSpec::FailController(1)),
            Command::Fault(FaultSpec::ReviveController(1)),
            Command::Fault(FaultSpec::FailSwitch(9)),
            Command::Fault(FaultSpec::ReviveSwitch(9)),
            Command::Fault(FaultSpec::FailLink(3, 4)),
            Command::Fault(FaultSpec::RestoreLink(3, 4)),
            Command::Fault(FaultSpec::RemoveLink(5, 6)),
            Command::Fault(FaultSpec::AddLink(5, 6)),
            Command::Fault(FaultSpec::DegradeLink {
                a: 3,
                b: 4,
                loss: 0.3,
                burst: None,
                asymmetric: false,
            }),
            Command::Fault(FaultSpec::DegradeLink {
                a: 3,
                b: 4,
                loss: 0.0,
                burst: Some((0.15, 0.35, 1.0)),
                asymmetric: true,
            }),
            Command::Fault(FaultSpec::RestoreLinkQuality(3, 4)),
            Command::Fault(FaultSpec::Partition {
                groups: vec![vec![0, 2, 3], vec![1, 4, 5]],
            }),
            Command::Fault(FaultSpec::HealPartition),
            Command::Fault(FaultSpec::FlapLink {
                a: 2,
                b: 5,
                period_ticks: 8,
                count: 3,
            }),
            Command::Fault(FaultSpec::RollingRestart {
                interval_ticks: 20,
                down_ticks: 10,
                count: 2,
            }),
            Command::Flows(FlowsSpec {
                pairs: 200,
                duration_ticks: 30,
                rate_per_tick: Some(12.5),
                permutation: true,
                seed_salt: Some(42),
            }),
            Command::Flows(FlowsSpec {
                pairs: 10,
                duration_ticks: 5,
                rate_per_tick: None,
                permutation: false,
                seed_salt: None,
            }),
            Command::Step { ticks: 3 },
            Command::Run {
                until_s: Some(30.0),
            },
            Command::Run { until_s: None },
            Command::Pause,
            Command::Shutdown,
        ];
        for cmd in commands {
            let wire = cmd.to_json().to_string();
            let parsed = Command::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(parsed, cmd, "round-trip of {wire}");
            // The wire form itself is stable under a second encode.
            assert_eq!(parsed.to_json().to_string(), wire);
        }
    }

    #[test]
    fn malformed_commands_are_rejected_with_reasons() {
        for (src, needle) in [
            (r#"{"ticks":1}"#, "needs a string `op`"),
            (r#"{"op":"warp"}"#, "unknown command op"),
            (r#"{"op":"fault"}"#, "needs a string `kind`"),
            (r#"{"op":"fault","kind":"melt"}"#, "unknown fault kind"),
            (
                r#"{"op":"fault","kind":"fail_link","a":1}"#,
                "needs `a` and `b`",
            ),
            (r#"{"op":"flows","pairs":10}"#, "duration_ticks"),
            (
                r#"{"op":"flows","pairs":10,"duration_ticks":5,"rate_per_tick":0}"#,
                "must be positive",
            ),
            (
                r#"{"op":"flows","pairs":10,"duration_ticks":5,"matrix":"spiral"}"#,
                "unknown matrix",
            ),
            (
                r#"{"op":"fault","kind":"degrade_link","a":1,"b":2,"loss":30}"#,
                "probability in [0, 1]",
            ),
            (
                r#"{"op":"fault","kind":"degrade_link","a":1,"b":2,"burst":{"p_enter":0.1}}"#,
                "needs a probability `p_exit`",
            ),
            (
                r#"{"op":"fault","kind":"partition","groups":[[0,1,2]]}"#,
                "at least two groups",
            ),
            (
                r#"{"op":"fault","kind":"partition","groups":[[0,-1],[2]]}"#,
                "node indices",
            ),
            (
                r#"{"op":"fault","kind":"flap_link","a":1,"b":2,"period_ticks":1,"count":3}"#,
                "at least 2",
            ),
            (
                r#"{"op":"fault","kind":"rolling_restart","interval_ticks":4,"down_ticks":4,"count":1}"#,
                "[1, interval_ticks)",
            ),
        ] {
            let err = Command::from_json(&Json::parse(src).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{src}: got `{err}`");
        }
    }

    #[test]
    fn step_defaults_to_one_tick() {
        let cmd = Command::from_json(&Json::parse(r#"{"op":"step"}"#).unwrap()).unwrap();
        assert_eq!(cmd, Command::Step { ticks: 1 });
    }
}
