//! The sink abstraction metric observations flow through.

use crate::digest::Digest;
use crate::json;
use crate::key::MetricKey;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// A destination for metric observations.
///
/// Every observation is a `(scope, key, value)` triple: the *scope* names the
/// experiment cell the value belongs to (a network, a network/configuration string,
/// ...), the [`MetricKey`] names *what* was measured, and the value is one sample.
/// Experiment code records samples as they are produced; what happens to them —
/// in-memory digesting, streaming to a file — is the sink's business, so scale
/// campaigns no longer have to buffer every sample to report statistics.
pub trait Recorder {
    /// Records one observation of `key` within `scope`.
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64);

    /// Flushes any buffered output. A no-op for in-memory sinks.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory sink aggregating every observation into a [`Digest`] per
/// `(scope, key)` — the recorder behind every printed results table.
///
/// # Example
///
/// ```
/// use sdn_metrics::{MemorySink, MetricKey, Recorder};
///
/// let mut sink = MemorySink::default();
/// sink.record("B4", &MetricKey::RECOVERY_TIME, 2.5);
/// sink.record("B4", &MetricKey::RECOVERY_TIME, 3.5);
/// assert_eq!(sink.digest("B4", &MetricKey::RECOVERY_TIME).unwrap().mean(), 3.0);
/// assert!(sink.digest("Clos", &MetricKey::RECOVERY_TIME).is_none());
/// ```
#[derive(Debug, Default)]
pub struct MemorySink {
    series: BTreeMap<String, BTreeMap<MetricKey, Digest>>,
}

impl MemorySink {
    /// The digest of one `(scope, key)` series, if anything was recorded for it.
    pub fn digest(&self, scope: &str, key: &MetricKey) -> Option<&Digest> {
        self.series.get(scope).and_then(|metrics| metrics.get(key))
    }

    /// Iterates over every `(scope, key, digest)` series in scope/key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricKey, &Digest)> + '_ {
        self.series.iter().flat_map(|(scope, metrics)| {
            metrics
                .iter()
                .map(move |(key, digest)| (scope.as_str(), key, digest))
        })
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

impl Recorder for MemorySink {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
        self.series
            .entry(scope.to_string())
            .or_default()
            .entry(key.clone())
            .or_default()
            .record(value);
    }
}

/// One observation rendered as the JSON object both line-oriented sinks emit
/// (no trailing newline).
pub(crate) fn observation_json(scope: &str, key: &MetricKey, value: f64) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"scope\":\"");
    json::escape(scope, &mut line);
    line.push_str("\",\"metric\":\"");
    json::escape(&key.path(), &mut line);
    line.push_str("\",\"unit\":\"");
    json::escape(key.unit().symbol(), &mut line);
    line.push_str("\",\"value\":");
    if value.is_finite() {
        line.push_str(&format!("{value}"));
    } else {
        line.push_str("null");
    }
    line.push('}');
    line
}

/// A streaming sink writing one JSON object per observation, one per line
/// ([JSON lines](https://jsonlines.org/)): nothing is buffered beyond the writer, so
/// arbitrarily long campaigns stream in constant memory.
///
/// # Example
///
/// ```
/// use sdn_metrics::{JsonLinesSink, MetricKey, Recorder};
///
/// let mut buf = Vec::new();
/// JsonLinesSink::new(&mut buf).record("B4", &MetricKey::BOOTSTRAP_TIME, 1.5);
/// assert_eq!(
///     String::from_utf8(buf).unwrap(),
///     "{\"scope\":\"B4\",\"metric\":\"scenario/bootstrap_s\",\"unit\":\"s\",\"value\":1.5}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    /// First write failure, surfaced by the next [`flush`](Recorder::flush):
    /// `record` itself stays infallible so the hot path never unwinds mid-run.
    deferred: Option<io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out,
            deferred: None,
        }
    }
}

impl<W: Write> Recorder for JsonLinesSink<W> {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
        let mut line = observation_json(scope, key, value);
        line.push('\n');
        if self.deferred.is_none() {
            self.deferred = self.out.write_all(line.as_bytes()).err();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.deferred.take() {
            Some(err) => Err(err),
            None => self.out.flush(),
        }
    }
}

/// Quotes a CSV field when it contains a separator, quote, or newline (RFC 4180).
/// Public so artifact emitters outside this crate quote fields the same way.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A streaming sink writing one CSV row per observation, with a header row on the
/// first record.
///
/// # Example
///
/// ```
/// use sdn_metrics::{CsvSink, MetricKey, Recorder};
///
/// let mut buf = Vec::new();
/// CsvSink::new(&mut buf).record("B4", &MetricKey::BOOTSTRAP_TIME, 1.5);
/// assert_eq!(
///     String::from_utf8(buf).unwrap(),
///     "scope,metric,unit,value\nB4,scenario/bootstrap_s,s,1.5\n"
/// );
/// ```
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
    /// First write failure, surfaced by the next [`flush`](Recorder::flush), same
    /// contract as [`JsonLinesSink`].
    deferred: Option<io::Error>,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            wrote_header: false,
            deferred: None,
        }
    }
}

impl<W: Write> Recorder for CsvSink<W> {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
        let mut row = String::with_capacity(64);
        if !self.wrote_header {
            row.push_str("scope,metric,unit,value\n");
            self.wrote_header = true;
        }
        row.push_str(&csv_field(scope));
        row.push(',');
        row.push_str(&csv_field(&key.path()));
        row.push(',');
        row.push_str(&csv_field(key.unit().symbol()));
        row.push(',');
        row.push_str(&format!("{value}\n"));
        if self.deferred.is_none() {
            self.deferred = self.out.write_all(row.as_bytes()).err();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.deferred.take() {
            Some(err) => Err(err),
            None => self.out.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Namespace, Unit};

    #[test]
    fn memory_sink_digests_per_scope_and_key() {
        let mut sink = MemorySink::default();
        sink.record("B4", &MetricKey::BOOTSTRAP_TIME, 1.0);
        sink.record("B4", &MetricKey::BOOTSTRAP_TIME, 3.0);
        sink.record("B4", &MetricKey::RECOVERY_TIME, 9.0);
        sink.record("Clos", &MetricKey::BOOTSTRAP_TIME, 7.0);
        assert_eq!(
            sink.digest("B4", &MetricKey::BOOTSTRAP_TIME)
                .unwrap()
                .mean(),
            2.0
        );
        assert_eq!(
            sink.digest("Clos", &MetricKey::BOOTSTRAP_TIME)
                .unwrap()
                .len(),
            1
        );
        let collected: Vec<(String, String)> = sink
            .iter()
            .map(|(scope, key, _)| (scope.to_string(), key.path()))
            .collect();
        assert_eq!(
            collected,
            vec![
                ("B4".into(), "scenario/bootstrap_s".into()),
                ("B4".into(), "scenario/recovery_s".into()),
                ("Clos".into(), "scenario/bootstrap_s".into()),
            ]
        );
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn json_lines_escapes_scopes() {
        let mut buf = Vec::new();
        let mut sink = JsonLinesSink::new(&mut buf);
        let key = MetricKey::custom(Namespace::Bench, "x");
        sink.record("say \"hi\"\n", &key, 2.0);
        sink.flush().unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"scope\":\"say \\\"hi\\\"\\n\",\"metric\":\"bench/x\",\"unit\":\"count\",\"value\":2}\n"
        );
    }

    #[test]
    fn csv_quotes_fields_and_writes_header_once() {
        let mut buf = Vec::new();
        let mut sink = CsvSink::new(&mut buf);
        let key = MetricKey::named(Namespace::Bench, "x", Unit::Seconds);
        sink.record("a,b", &key, 1.0);
        sink.record("plain", &key, 2.5);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "scope,metric,unit,value\n\"a,b\",bench/x,s,1\nplain,bench/x,s,2.5\n"
        );
    }
}
