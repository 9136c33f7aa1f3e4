//! Typed session commands and their JSON wire form.
//!
//! Every mutation the service can perform is a [`Command`]: the transport layer
//! parses HTTP bodies into commands and enqueues them, the driver stamps each onto
//! the tick it was applied at and appends it to the command log, and replay
//! re-executes the same commands at the same ticks. Keeping the wire form total
//! (every command round-trips through [`Command::to_json`] / [`Command::from_json`])
//! is what makes a recorded session a complete, self-contained artifact.
//!
//! A fault on the wire is a scenario [`FaultEvent`] that names its victims: a
//! controller or switch id, a link's endpoints, explicit partition groups. A
//! random selector would pick other victims on replay, so it has no wire form.
//! Periods and down times count service ticks, so both directions take the
//! session's tick length. [`fault_from_json`] refuses what
//! [`FaultEvent::validate`] refuses; [`fault_to_json`] refuses what it cannot
//! write byte for byte, with an [`Unencodable`] reason.

use renaissance::scenario::{
    ControllerSelector, DegradeSpec, FaultError, FaultEvent, LinkSelector, PartitionSpec,
    SwitchSelector,
};
use sdn_metrics::json::Json;
use sdn_netsim::{BurstLoss, SimDuration};
use sdn_topology::NodeId;
use std::fmt;

/// Why a [`FaultEvent`] has no wire form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unencodable {
    /// A period, interval or down time that is not a whole number of ticks
    /// below 2³².
    Ticks,
    /// A burst process that also drops packets in its good state (`loss_good`
    /// other than zero).
    LossyGoodState,
    /// A selector other than a controller or switch id or a link's endpoints:
    /// random, by index, by failure domain, or the last degraded links.
    UnresolvedSelector,
    /// Transient state corruption.
    CorruptState,
    /// A partition into halves grown around the live controllers.
    Halves,
    /// A partition that schedules its own heal (`heal_after: Some`).
    ScheduledHeal,
    /// An event aimed at the victims of an earlier fault (`*LastFailed*`).
    LastFailed,
    /// A phase that [`FaultEvent::phases`] generates (`FlapPhase`,
    /// `ReviveControllerIndex`).
    Phase,
}

impl fmt::Display for Unencodable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unencodable::Ticks => "a duration that is not a whole number of ticks",
            Unencodable::LossyGoodState => "a burst process lossy in its good state",
            Unencodable::UnresolvedSelector => "a selector that names no concrete victim",
            Unencodable::CorruptState => "state corruption",
            Unencodable::Halves => "a partition into halves",
            Unencodable::ScheduledHeal => "a partition with a scheduled heal",
            Unencodable::LastFailed => "an event aimed at an earlier fault's victims",
            Unencodable::Phase => "a generated phase of a compound fault",
        })?;
        f.write_str(" has no wire form")
    }
}

impl std::error::Error for Unencodable {}

/// Serializes a fault to its wire object (`{"kind":...,"node":n}`,
/// `{"kind":...,"a":n,"b":m}`, or a kind-specific shape), counting durations in
/// `tick`s.
pub fn fault_to_json(event: &FaultEvent, tick: SimDuration) -> Result<Json, Unencodable> {
    let kind = |kind: &str| ("kind".to_string(), Json::str(kind));
    let node = |name: &str, id: &NodeId| Json::obj([kind(name), member("node", id.index())]);
    let link = |name: &str, (a, b): (NodeId, NodeId), rest: Vec<(String, Json)>| {
        let ends = [kind(name), member("a", a.index()), member("b", b.index())];
        Json::Obj(ends.into_iter().chain(rest).collect())
    };
    let ticks = |d: &SimDuration| {
        let tick_us = tick.as_micros().max(1);
        let whole = d.as_micros() % tick_us == 0;
        let n = u32::try_from(d.as_micros() / tick_us).ok();
        n.filter(|_| whole).ok_or(Unencodable::Ticks)
    };
    Ok(match event {
        FaultEvent::FailController(ControllerSelector::Id(id)) => node("fail_controller", id),
        FaultEvent::ReviveController(id) => node("revive_controller", id),
        FaultEvent::FailSwitch(SwitchSelector::Id(id)) => node("fail_switch", id),
        FaultEvent::ReviveSwitch(id) => node("revive_switch", id),
        FaultEvent::FailLink(selector) => link("fail_link", between(selector)?, vec![]),
        FaultEvent::RestoreLink(a, b) => link("restore_link", (*a, *b), vec![]),
        FaultEvent::RemoveLink(selector) => link("remove_link", between(selector)?, vec![]),
        FaultEvent::AddLink(a, b) => link("add_link", (*a, *b), vec![]),
        FaultEvent::DegradeLink(selector, spec) => {
            let mut rest = vec![member("loss", spec.loss)];
            if let Some(burst) = spec.burst {
                if burst.loss_good != 0.0 {
                    return Err(Unencodable::LossyGoodState);
                }
                let process = Json::obj([
                    ("p_enter", Json::num(burst.p_enter)),
                    ("p_exit", Json::num(burst.p_exit)),
                    ("loss_bad", Json::num(burst.loss_bad)),
                ]);
                rest.push(("burst".to_string(), process));
            }
            if spec.asymmetric {
                rest.push(("asymmetric".to_string(), Json::Bool(true)));
            }
            link("degrade_link", between(selector)?, rest)
        }
        FaultEvent::RestoreLinkQuality(selector) => {
            link("restore_link_quality", between(selector)?, vec![])
        }
        FaultEvent::Partition {
            heal_after: Some(_),
            ..
        } => return Err(Unencodable::ScheduledHeal),
        FaultEvent::Partition {
            groups: PartitionSpec::Groups(groups),
            heal_after: None,
        } => {
            let group = |g: &Vec<NodeId>| Json::arr(g.iter().map(|n| Json::num(n.index())));
            Json::obj([
                kind("partition"),
                ("groups".to_string(), Json::arr(groups.iter().map(group))),
            ])
        }
        FaultEvent::Partition { .. } => return Err(Unencodable::Halves),
        FaultEvent::HealPartition => Json::obj([kind("heal_partition")]),
        FaultEvent::FlapLink {
            selector,
            period,
            count,
        } => {
            let rest = vec![
                member("period_ticks", ticks(period)?),
                member("count", *count),
            ];
            link("flap_link", between(selector)?, rest)
        }
        FaultEvent::RollingControllerRestart {
            interval,
            down_for,
            count,
        } => Json::obj([
            kind("rolling_restart"),
            member("interval_ticks", ticks(interval)?),
            member("down_ticks", ticks(down_for)?),
            member("count", *count as f64),
        ]),
        FaultEvent::FailController(_) | FaultEvent::FailSwitch(_) => {
            return Err(Unencodable::UnresolvedSelector)
        }
        FaultEvent::CorruptState(_) => return Err(Unencodable::CorruptState),
        FaultEvent::RestoreLastFailedLinks
        | FaultEvent::ReviveLastFailedController
        | FaultEvent::ReviveLastFailedSwitch => return Err(Unencodable::LastFailed),
        FaultEvent::FlapPhase { .. } | FaultEvent::ReviveControllerIndex(_) => {
            return Err(Unencodable::Phase)
        }
    })
}

/// Parses a fault's wire object, counting durations in `tick`s, and refuses
/// what [`FaultEvent::validate`] refuses at that quantum. Members left out take
/// their defaults: `loss` 0, `loss_bad` 1, `asymmetric` false.
pub fn fault_from_json(json: &Json, tick: SimDuration) -> Result<FaultEvent, String> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault needs a string `kind`")?;
    let node = || {
        let id = field_u32(json, "node").map(NodeId::new);
        id.ok_or_else(|| format!("fault `{kind}` needs a `node` index"))
    };
    let link = || match (field_u32(json, "a"), field_u32(json, "b")) {
        (Some(a), Some(b)) => Ok((NodeId::new(a), NodeId::new(b))),
        _ => Err(format!("fault `{kind}` needs `a` and `b` node indices")),
    };
    let between = || link().map(|(a, b)| LinkSelector::Between(a, b));
    let count = |key: &str| {
        let n = field_u32(json, key);
        n.ok_or_else(|| format!("fault `{kind}` needs a non-negative integer `{key}`"))
    };
    let ticks = |key: &str| count(key).map(|n| tick.saturating_mul(u64::from(n)));
    let event = match kind {
        "fail_controller" => FaultEvent::FailController(ControllerSelector::Id(node()?)),
        "revive_controller" => FaultEvent::ReviveController(node()?),
        "fail_switch" => FaultEvent::FailSwitch(SwitchSelector::Id(node()?)),
        "revive_switch" => FaultEvent::ReviveSwitch(node()?),
        "fail_link" => FaultEvent::FailLink(between()?),
        "restore_link" => link().map(|(a, b)| FaultEvent::RestoreLink(a, b))?,
        "remove_link" => FaultEvent::RemoveLink(between()?),
        "add_link" => link().map(|(a, b)| FaultEvent::AddLink(a, b))?,
        "degrade_link" => {
            let selector = between()?;
            let loss = field_f64(json, "loss")?.unwrap_or(0.0);
            let burst = match json.get("burst") {
                None => None,
                Some(burst) => {
                    let required = |key: &'static str| {
                        field_f64(burst, key)?
                            .ok_or_else(|| format!("`burst` needs a probability `{key}`"))
                    };
                    Some(BurstLoss {
                        p_enter: required("p_enter")?,
                        p_exit: required("p_exit")?,
                        loss_good: 0.0,
                        loss_bad: field_f64(burst, "loss_bad")?.unwrap_or(1.0),
                    })
                }
            };
            let asymmetric = json
                .get("asymmetric")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let spec = DegradeSpec {
                loss,
                burst,
                asymmetric,
            };
            FaultEvent::DegradeLink(selector, spec)
        }
        "restore_link_quality" => FaultEvent::RestoreLinkQuality(between()?),
        "partition" => {
            let groups = json
                .get("groups")
                .and_then(Json::as_array)
                .ok_or("fault `partition` needs `groups`: an array of node-index arrays")?;
            let group = |group: &Json| {
                let members = group
                    .as_array()
                    .ok_or("each partition group must be an array of node indices")?;
                let index = |n: &Json| u32::try_from(n.as_u64()?).ok().map(NodeId::new);
                let nodes = members.iter().map(index).collect::<Option<Vec<_>>>();
                nodes.ok_or("partition group members must be node indices")
            };
            FaultEvent::Partition {
                groups: PartitionSpec::Groups(groups.iter().map(group).collect::<Result<_, _>>()?),
                heal_after: None,
            }
        }
        "heal_partition" => FaultEvent::HealPartition,
        "flap_link" => FaultEvent::FlapLink {
            selector: between()?,
            period: ticks("period_ticks")?,
            count: count("count")?,
        },
        "rolling_restart" => FaultEvent::RollingControllerRestart {
            interval: ticks("interval_ticks")?,
            down_for: ticks("down_ticks")?,
            count: count("count")? as usize,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    event.validate(tick).map_err(|e| e.to_string())?;
    Ok(event)
}

/// The concrete endpoints of a link selector that has a wire form.
fn between(selector: &LinkSelector) -> Result<(NodeId, NodeId), Unencodable> {
    match *selector {
        LinkSelector::Between(a, b) => Ok((a, b)),
        _ => Err(Unencodable::UnresolvedSelector),
    }
}

/// The most pairs one `/flows` attachment may sample. The engine holds 16 B per flow,
/// so the cap bounds one attachment at 256 MB.
const MAX_FLOW_PAIRS: u32 = 1 << 24;

/// The longest Poisson arrival window, `pairs / rate_per_tick`, one attachment may
/// span. The engine's epoch table holds 4 B per tick of the window.
const MAX_POISSON_HORIZON_TICKS: f64 = (1u32 << 20) as f64;

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
        if pairs > MAX_FLOW_PAIRS {
            return Err(format!("`pairs` must be at most {MAX_FLOW_PAIRS}"));
        }
        let rate_per_tick = json.get("rate_per_tick").and_then(Json::as_f64);
        if let Some(rate) = rate_per_tick {
            if !rate.is_finite() || rate <= 0.0 {
                return Err("`rate_per_tick` must be positive".to_string());
            }
            if f64::from(pairs) / rate > MAX_POISSON_HORIZON_TICKS {
                return Err(format!(
                    "`pairs / rate_per_tick` must be at most {MAX_POISSON_HORIZON_TICKS} ticks"
                ));
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
    /// Inject one fault; the session accepts only faults with a wire form.
    Fault(FaultEvent),
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
    /// Serializes to the wire object (`{"op":...,...}`), counting a fault's
    /// durations in `tick`s.
    pub fn to_json(&self, tick: SimDuration) -> Result<Json, Unencodable> {
        Ok(match self {
            Command::Fault(event) => with_op("fault", fault_to_json(event, tick)?),
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
        })
    }

    /// Parses the wire object, counting a fault's durations in `tick`s.
    pub fn from_json(json: &Json, tick: SimDuration) -> Result<Command, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("command needs a string `op`")?;
        Ok(match op {
            "fault" => Command::Fault(fault_from_json(json, tick)?),
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

/// One numeric object member.
fn member(key: &str, value: impl Into<f64>) -> (String, Json) {
    (key.to_string(), Json::num(value))
}

/// An optional probability member: absent is `Ok(None)`, present but not a number
/// is a hard reject. Its range is [`FaultEvent::validate`]'s to check.
fn field_f64(json: &Json, key: &'static str) -> Result<Option<f64>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| FaultError::NotAProbability(key).to_string()),
    }
}

fn field_u32(json: &Json, key: &str) -> Option<u32> {
    u32::try_from(json.get(key)?.as_u64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaissance::CorruptionPlan;

    /// The tick every test here counts in.
    const TICK: SimDuration = SimDuration::from_millis(500);

    fn between(a: u32, b: u32) -> LinkSelector {
        LinkSelector::Between(NodeId::new(a), NodeId::new(b))
    }

    fn ticks(n: u64) -> SimDuration {
        TICK.saturating_mul(n)
    }

    fn parse(src: &str) -> Result<Command, String> {
        Command::from_json(&Json::parse(src).unwrap(), TICK)
    }

    #[test]
    fn every_command_round_trips_through_json() {
        let id = NodeId::new;
        let commands = [
            Command::Fault(FaultEvent::FailController(ControllerSelector::Id(id(1)))),
            Command::Fault(FaultEvent::ReviveController(id(1))),
            Command::Fault(FaultEvent::FailSwitch(SwitchSelector::Id(id(9)))),
            Command::Fault(FaultEvent::ReviveSwitch(id(9))),
            Command::Fault(FaultEvent::FailLink(between(3, 4))),
            Command::Fault(FaultEvent::RestoreLink(id(3), id(4))),
            Command::Fault(FaultEvent::RemoveLink(between(5, 6))),
            Command::Fault(FaultEvent::AddLink(id(5), id(6))),
            Command::Fault(FaultEvent::DegradeLink(
                between(3, 4),
                DegradeSpec::flat(0.3),
            )),
            Command::Fault(FaultEvent::DegradeLink(between(3, 4), DegradeSpec::gray())),
            Command::Fault(FaultEvent::RestoreLinkQuality(between(3, 4))),
            Command::Fault(FaultEvent::Partition {
                groups: PartitionSpec::Groups(vec![
                    vec![id(0), id(2), id(3)],
                    vec![id(1), id(4), id(5)],
                ]),
                heal_after: None,
            }),
            Command::Fault(FaultEvent::HealPartition),
            Command::Fault(FaultEvent::FlapLink {
                selector: between(2, 5),
                period: ticks(8),
                count: 3,
            }),
            Command::Fault(FaultEvent::RollingControllerRestart {
                interval: ticks(20),
                down_for: ticks(10),
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
            let wire = cmd.to_json(TICK).unwrap().to_string();
            let parsed = parse(&wire).unwrap();
            assert_eq!(parsed, cmd, "round-trip of {wire}");
            // The wire form itself is stable under a second encode.
            assert_eq!(parsed.to_json(TICK).unwrap().to_string(), wire);
        }
    }

    #[test]
    fn wire_objects_keep_their_bytes() {
        // Every fault object the service wrote before faults were `FaultEvent`s,
        // as recorded logs hold them, with defaults left out as clients send them.
        for wire in [
            r#"{"op":"fault","kind":"fail_controller","node":1}"#,
            r#"{"op":"fault","kind":"revive_controller","node":1}"#,
            r#"{"op":"fault","kind":"fail_switch","node":9}"#,
            r#"{"op":"fault","kind":"revive_switch","node":9}"#,
            r#"{"op":"fault","kind":"fail_link","a":3,"b":4}"#,
            r#"{"op":"fault","kind":"restore_link","a":3,"b":4}"#,
            r#"{"op":"fault","kind":"remove_link","a":5,"b":6}"#,
            r#"{"op":"fault","kind":"add_link","a":5,"b":6}"#,
            r#"{"op":"fault","kind":"degrade_link","a":3,"b":4,"loss":0.3}"#,
            r#"{"op":"fault","kind":"degrade_link","a":3,"b":4,"loss":0,"burst":{"p_enter":0.15,"p_exit":0.35,"loss_bad":1},"asymmetric":true}"#,
            r#"{"op":"fault","kind":"restore_link_quality","a":3,"b":4}"#,
            r#"{"op":"fault","kind":"partition","groups":[[0,2,3],[1,4,5]]}"#,
            r#"{"op":"fault","kind":"heal_partition"}"#,
            r#"{"op":"fault","kind":"flap_link","a":2,"b":5,"period_ticks":8,"count":3}"#,
            r#"{"op":"fault","kind":"rolling_restart","interval_ticks":20,"down_ticks":10,"count":2}"#,
        ] {
            let cmd = parse(wire).unwrap();
            assert_eq!(cmd.to_json(TICK).unwrap().to_string(), wire);
        }
        // A client that leaves `loss` out and orders members freely sends the same
        // gray link the log then writes in canonical form.
        let sparse = parse(
            r#"{"op":"fault","kind":"degrade_link","a":3,"b":4,"asymmetric":true,"burst":{"p_enter":0.15,"p_exit":0.35,"loss_bad":1.0}}"#,
        );
        assert_eq!(
            sparse,
            Ok(Command::Fault(FaultEvent::DegradeLink(
                between(3, 4),
                DegradeSpec::gray()
            )))
        );
    }

    #[test]
    fn faults_without_a_wire_form_are_refused_with_reasons() {
        let lossy_good = DegradeSpec {
            burst: Some(BurstLoss {
                p_enter: 0.15,
                p_exit: 0.35,
                loss_good: 0.1,
                loss_bad: 1.0,
            }),
            ..DegradeSpec::gray()
        };
        let groups = PartitionSpec::Groups(vec![vec![NodeId::new(2)], vec![NodeId::new(7)]]);
        for (event, reason) in [
            (
                FaultEvent::FlapLink {
                    selector: between(3, 4),
                    period: SimDuration::from_millis(1_250),
                    count: 2,
                },
                Unencodable::Ticks,
            ),
            (
                FaultEvent::RollingControllerRestart {
                    interval: ticks(6),
                    down_for: SimDuration::from_millis(1_600),
                    count: 1,
                },
                Unencodable::Ticks,
            ),
            (
                FaultEvent::DegradeLink(between(3, 4), lossy_good),
                Unencodable::LossyGoodState,
            ),
            (
                FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
                Unencodable::UnresolvedSelector,
            ),
            (
                FaultEvent::FailController(ControllerSelector::Index(0)),
                Unencodable::UnresolvedSelector,
            ),
            (
                FaultEvent::FailSwitch(SwitchSelector::Random),
                Unencodable::UnresolvedSelector,
            ),
            (
                FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 1 }),
                Unencodable::UnresolvedSelector,
            ),
            (
                FaultEvent::RestoreLinkQuality(LinkSelector::LastDegraded),
                Unencodable::UnresolvedSelector,
            ),
            (
                FaultEvent::CorruptState(CorruptionPlan::default()),
                Unencodable::CorruptState,
            ),
            (
                FaultEvent::Partition {
                    groups: PartitionSpec::Halves,
                    heal_after: None,
                },
                Unencodable::Halves,
            ),
            (
                FaultEvent::Partition {
                    groups,
                    heal_after: Some(ticks(4)),
                },
                Unencodable::ScheduledHeal,
            ),
            (FaultEvent::RestoreLastFailedLinks, Unencodable::LastFailed),
            (
                FaultEvent::ReviveLastFailedController,
                Unencodable::LastFailed,
            ),
            (FaultEvent::ReviveLastFailedSwitch, Unencodable::LastFailed),
            (
                FaultEvent::FlapPhase {
                    flap: 0,
                    selector: between(3, 4),
                    down: true,
                },
                Unencodable::Phase,
            ),
            (FaultEvent::ReviveControllerIndex(0), Unencodable::Phase),
        ] {
            assert_eq!(fault_to_json(&event, TICK), Err(reason), "{event:?}");
            assert_eq!(Command::Fault(event).to_json(TICK), Err(reason));
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
                r#"{"op":"flows","pairs":16777217,"duration_ticks":5}"#,
                "`pairs` must be at most 16777216",
            ),
            (
                r#"{"op":"flows","pairs":1,"duration_ticks":1,"rate_per_tick":1e-12}"#,
                "must be at most 1048576 ticks",
            ),
            (
                r#"{"op":"fault","kind":"degrade_link","a":1,"b":2,"loss":30}"#,
                "probability in [0, 1]",
            ),
            (
                r#"{"op":"fault","kind":"degrade_link","a":1,"b":2,"loss":"high"}"#,
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
                "half-period of at least 0.500s",
            ),
            (
                r#"{"op":"fault","kind":"flap_link","a":1,"b":2,"period_ticks":4,"count":0}"#,
                "positive count",
            ),
            (
                r#"{"op":"fault","kind":"rolling_restart","interval_ticks":4,"down_ticks":4,"count":1}"#,
                "[0.500s, `interval`)",
            ),
            (
                r#"{"op":"fault","kind":"rolling_restart","interval_ticks":4,"down_ticks":0,"count":1}"#,
                "[0.500s, `interval`)",
            ),
            (
                r#"{"op":"fault","kind":"add_link","a":3,"b":3}"#,
                "self-loop",
            ),
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.contains(needle), "{src}: got `{err}`");
        }
    }

    #[test]
    fn flow_limits_admit_their_bounds() {
        let spec =
            parse(r#"{"op":"flows","pairs":16777216,"duration_ticks":5,"rate_per_tick":16}"#);
        assert!(
            matches!(spec, Ok(Command::Flows(f)) if f.pairs == 1 << 24),
            "{spec:?}"
        );
    }

    #[test]
    fn step_defaults_to_one_tick() {
        assert_eq!(parse(r#"{"op":"step"}"#), Ok(Command::Step { ticks: 1 }));
    }
}
