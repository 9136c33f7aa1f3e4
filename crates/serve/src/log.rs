//! The replayable command log: a JSON-lines record of one session.
//!
//! Three line kinds, in order:
//!
//! ```text
//! {"kind":"header","v":1,"config":{...}}          // how the session was booted
//! {"kind":"command","tick":N,"cmd":{"op":...}}    // one per command, in order
//! {"kind":"final","tick":N,"report":{...}}        // last tick + the live report
//! ```
//!
//! Replay rebuilds the session from the header, steps to each entry's tick before
//! applying its command, steps to the final tick, and recomputes the report.
//! Because the session core is wall-clock-free, the recomputed report is
//! byte-identical to the recorded one — [`CommandLog::verify`] enforces exactly
//! that, and `tests/binaries.rs` runs `sdn-serve replay` on a real recorded session.

use crate::command::Command;
use crate::session::{Session, SessionConfig};
use sdn_metrics::json::Json;

/// A complete recorded session: boot config, stamped commands, final tick, and the
/// final report the live session produced.
#[derive(Clone, Debug)]
pub struct CommandLog {
    /// The session's boot configuration (the log header).
    pub config: SessionConfig,
    /// Commands in application order, each stamped with the tick it applied at.
    pub entries: Vec<(u64, Command)>,
    /// The tick the session ended on.
    pub final_tick: u64,
    /// The final report the live session produced (the replay oracle).
    pub report: Json,
}

impl CommandLog {
    /// An empty log for a session booted from `config`.
    pub fn new(config: SessionConfig) -> Self {
        CommandLog {
            config,
            entries: Vec::new(),
            final_tick: 0,
            report: Json::Null,
        }
    }

    /// Appends one stamped command.
    pub fn push(&mut self, tick: u64, cmd: Command) {
        self.entries.push((tick, cmd));
    }

    /// Seals the log with the live session's end state.
    pub fn finalize(&mut self, final_tick: u64, report: Json) {
        self.final_tick = final_tick;
        self.report = report;
    }

    /// Serializes to JSON lines (trailing newline included).
    ///
    /// # Panics
    ///
    /// Panics on a fault entry with no wire form, which only a hand-pushed entry
    /// can be: a session refuses such faults.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &Json::obj([
                ("kind", Json::str("header")),
                ("v", Json::num(1.0)),
                ("config", self.config.to_json()),
            ])
            .to_string(),
        );
        out.push('\n');
        for (tick, cmd) in &self.entries {
            let wire = cmd
                .to_json(self.config.tick())
                .unwrap_or_else(|e| panic!("command log entry at tick {tick}: {e}"));
            out.push_str(
                &Json::obj([
                    ("kind", Json::str("command")),
                    ("tick", Json::num(*tick as f64)),
                    ("cmd", wire),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        out.push_str(
            &Json::obj([
                ("kind", Json::str("final")),
                ("tick", Json::num(self.final_tick as f64)),
                ("report", self.report.clone()),
            ])
            .to_string(),
        );
        out.push('\n');
        out
    }

    /// Parses a serialized log, validating line order and tick monotonicity.
    pub fn parse(text: &str) -> Result<CommandLog, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty command log")?;
        let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
        if header.get("kind").and_then(Json::as_str) != Some("header") {
            return Err("first line is not a header".to_string());
        }
        let config =
            SessionConfig::from_json(header.get("config").ok_or("header has no `config`")?)
                .map_err(|e| format!("header: {e}"))?;
        let mut log = CommandLog::new(config);
        let mut sealed = false;
        let mut last_tick = 0u64;
        for (i, line) in lines.enumerate() {
            if sealed {
                return Err(format!("line {}: data after the final record", i + 2));
            }
            let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
            let tick = json
                .get("tick")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: missing `tick`", i + 2))?;
            if tick < last_tick {
                return Err(format!(
                    "line {}: tick {tick} goes backwards (after {last_tick})",
                    i + 2
                ));
            }
            last_tick = tick;
            match json.get("kind").and_then(Json::as_str) {
                Some("command") => {
                    let cmd = Command::from_json(
                        json.get("cmd")
                            .ok_or_else(|| format!("line {}: missing `cmd`", i + 2))?,
                        log.config.tick(),
                    )
                    .map_err(|e| format!("line {}: {e}", i + 2))?;
                    log.push(tick, cmd);
                }
                Some("final") => {
                    let report = json.get("report").cloned().unwrap_or(Json::Null);
                    log.finalize(tick, report);
                    sealed = true;
                }
                other => {
                    return Err(format!("line {}: unexpected kind {other:?}", i + 2));
                }
            }
        }
        if !sealed {
            return Err("command log has no final record".to_string());
        }
        Ok(log)
    }

    /// Re-executes the recorded session single-threaded and returns the recomputed
    /// final report.
    pub fn replay(&self) -> Json {
        let mut session = Session::new(self.config.clone());
        for (tick, cmd) in &self.entries {
            while session.tick() < *tick {
                session.step();
            }
            session.apply(cmd);
        }
        while session.tick() < self.final_tick {
            session.step();
        }
        session.final_report()
    }

    /// Replays and compares against the recorded report, byte for byte. Returns the
    /// recomputed report on success; on divergence, an error carrying both.
    pub fn verify(&self) -> Result<Json, String> {
        let replayed = self.replay();
        let want = self.report.to_string();
        let got = replayed.to_string();
        if want == got {
            Ok(replayed)
        } else {
            Err(format!(
                "replay diverged from the recorded report\n  recorded: {want}\n  replayed: {got}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::FlowsSpec;
    use renaissance::scenario::{DegradeSpec, FaultEvent, LinkSelector, PartitionSpec};
    use sdn_netsim::SimDuration;
    use sdn_topology::NodeId;

    fn tiny() -> SessionConfig {
        SessionConfig {
            topology: "grid(2,3)".to_string(),
            controllers: 2,
            seed: 13,
            tick_millis: 500,
            ring_capacity: 32,
        }
    }

    /// Drives a session the way the live driver does, recording as it goes.
    fn record_live() -> (Json, CommandLog) {
        let mut session = Session::new(tiny());
        let mut log = CommandLog::new(tiny());
        let drive = |session: &mut Session, log: &mut CommandLog, cmd: Command, steps: u64| {
            log.push(session.tick(), cmd.clone());
            session.apply(&cmd);
            for _ in 0..steps {
                session.step();
            }
        };
        let fault = |event| Command::Fault(event);
        let link = LinkSelector::Between(NodeId::new(3), NodeId::new(4));
        let ticks = |n: u64| SimDuration::from_millis(500 * n);
        drive(&mut session, &mut log, Command::Run { until_s: None }, 25);
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::FailLink(link)),
            10,
        );
        drive(
            &mut session,
            &mut log,
            Command::Flows(FlowsSpec {
                pairs: 8,
                duration_ticks: 4,
                rate_per_tick: Some(2.0),
                permutation: false,
                seed_salt: None,
            }),
            6,
        );
        // One of each gray-failure kind: a recorded session must replay them all
        // bit-identically, including the deferred flap and restart phases.
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::DegradeLink(link, DegradeSpec::gray())),
            8,
        );
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::RestoreLinkQuality(link)),
            4,
        );
        // grid(2,3) with 2 controllers: rows are {2,3,4} and {5,6,7}; splitting
        // along the rows keeps a controller on each side.
        let rows = [[0, 2, 3, 4], [1, 5, 6, 7]].map(|row| row.map(NodeId::new).to_vec());
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::Partition {
                groups: PartitionSpec::Groups(rows.to_vec()),
                heal_after: None,
            }),
            6,
        );
        drive(&mut session, &mut log, fault(FaultEvent::HealPartition), 6);
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::FlapLink {
                selector: link,
                period: ticks(4),
                count: 2,
            }),
            12,
        );
        drive(
            &mut session,
            &mut log,
            fault(FaultEvent::RollingControllerRestart {
                interval: ticks(6),
                down_for: ticks(3),
                count: 2,
            }),
            16,
        );
        drive(&mut session, &mut log, Command::Pause, 0);
        drive(&mut session, &mut log, Command::Shutdown, 0);
        let report = session.final_report();
        log.finalize(session.tick(), report.clone());
        (report, log)
    }

    #[test]
    fn replay_reproduces_the_live_report_bit_identically() {
        let (report, log) = record_live();
        assert_eq!(log.replay().to_string(), report.to_string());
        log.verify().unwrap();
    }

    #[test]
    fn logs_survive_a_serialization_round_trip() {
        let (_, log) = record_live();
        let text = log.to_jsonl();
        let parsed = CommandLog::parse(&text).unwrap();
        assert_eq!(parsed.to_jsonl(), text);
        parsed.verify().unwrap();
    }

    #[test]
    fn parse_rejects_malformed_logs() {
        let (_, log) = record_live();
        let good = log.to_jsonl();
        for (mangle, needle) in [
            ("".to_string(), "empty"),
            ("{\"kind\":\"command\"}\n".to_string(), "not a header"),
            (good.lines().next().unwrap().to_string() + "\n", "no final"),
            (
                good.clone() + "{\"kind\":\"command\",\"tick\":0,\"cmd\":{\"op\":\"pause\"}}\n",
                "after the final",
            ),
            // A header that would panic `Session::new` or silently truncate is refused
            // at parse time, before replay boots anything.
            (
                good.replacen("grid(2,3)", "arpanet(3)", 1),
                "unknown topology `arpanet(3)`",
            ),
            // ...including a known generator with a parameter outside its range.
            (
                good.replacen("grid(2,3)", "fat_tree(3)", 1),
                "header: unknown topology `fat_tree(3)`",
            ),
            (
                good.replacen("\"controllers\":2", "\"controllers\":2.5", 1),
                "non-negative integer `controllers`",
            ),
            (
                good.replacen("\"seed\":13", "\"seed\":-13", 1),
                "non-negative integer `seed`",
            ),
        ] {
            let err = CommandLog::parse(&mangle).unwrap_err();
            assert!(err.contains(needle), "wanted `{needle}`, got `{err}`");
        }
    }
}
