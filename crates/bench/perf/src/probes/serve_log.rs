//! `serve.log`: serializing and parsing the recorded command log. (Re-executing it
//! is timed end to end as the session's replay.)

use super::secs_per_call;
use sdn_serve::CommandLog;

/// Milliseconds per `CommandLog::to_jsonl`.
pub fn to_jsonl_ms(log: &CommandLog) -> f64 {
    secs_per_call(|| log.to_jsonl()) * 1e3
}

/// Milliseconds per `CommandLog::parse` of the serialized log.
pub fn parse_ms(jsonl: &str) -> f64 {
    secs_per_call(|| CommandLog::parse(jsonl).map(|log| log.entries.len())) * 1e3
}
