//! The recorder pipeline every experiment binary emits its results through.
//!
//! A [`MetricPipeline`] always contains an in-memory digest sink (the data behind the
//! printed tables) and, when the shared `--out`/`--format` flags are given, a
//! streaming file sink (JSON-lines or CSV) receiving every individual sample as it is
//! produced — so machine-readable artifacts of arbitrarily long campaigns never
//! require buffering the sample stream.

use crate::cli::{die, CliArgs};
use sdn_metrics::{CsvSink, JsonLinesSink, MemorySink, MetricKey, Recorder};
use std::fs::File;
use std::io::BufWriter;

/// The file format of a streaming metrics sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// One JSON object per observation, one per line.
    JsonLines,
    /// RFC 4180 CSV with a header row.
    Csv,
}

impl OutputFormat {
    /// Parses the `--format` value (`json` or `csv`), exiting with an error on
    /// anything else — consistent with the CLI's fail-loud convention.
    pub fn from_args(args: &CliArgs) -> OutputFormat {
        match args.value("--format") {
            None | Some("json") | Some("jsonl") => OutputFormat::JsonLines,
            Some("csv") => OutputFormat::Csv,
            Some(other) => die(&format!(
                "invalid value '{other}' for --format (expected json or csv)"
            )),
        }
    }
}

/// An in-memory digest store plus an optional streaming file sink, driven by the
/// shared `--out PATH` / `--format json|csv` flags.
pub struct MetricPipeline {
    memory: MemorySink,
    file: Option<(Box<dyn Recorder>, String)>,
}

impl MetricPipeline {
    /// A pipeline honouring the parsed `--out`/`--format` flags. Without `--out`, the
    /// pipeline only aggregates in memory.
    pub fn from_args(args: &CliArgs) -> MetricPipeline {
        let format = OutputFormat::from_args(args);
        let file = args.value("--out").map(|path| {
            let writer = BufWriter::new(
                File::create(path).unwrap_or_else(|e| die(&format!("cannot create {path}: {e}"))),
            );
            let sink: Box<dyn Recorder> = match format {
                OutputFormat::JsonLines => Box::new(JsonLinesSink::new(writer)),
                OutputFormat::Csv => Box::new(CsvSink::new(writer)),
            };
            (sink, path.to_string())
        });
        MetricPipeline {
            memory: MemorySink::default(),
            file,
        }
    }

    /// A memory-only pipeline (used by tests and by binaries with their own artifact
    /// format).
    pub fn in_memory() -> MetricPipeline {
        MetricPipeline {
            memory: MemorySink::default(),
            file: None,
        }
    }

    /// The digests aggregated so far.
    pub fn memory(&self) -> &MemorySink {
        &self.memory
    }

    /// Flushes the file sink (if any) and reports where the records went.
    pub fn finish(mut self) {
        if let Some((mut sink, path)) = self.file.take() {
            if let Err(e) = sink.flush() {
                eprintln!("error: flushing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metric records written to {path}");
        }
    }
}

impl Recorder for MetricPipeline {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
        self.memory.record(scope, key, value);
        if let Some((sink, _)) = &mut self.file {
            sink.record(scope, key, value);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some((sink, _)) = &mut self.file {
            sink.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_only_pipeline_aggregates() {
        let mut pipeline = MetricPipeline::in_memory();
        pipeline.record("B4", &MetricKey::BOOTSTRAP_TIME, 2.0);
        pipeline.record("B4", &MetricKey::BOOTSTRAP_TIME, 4.0);
        assert_eq!(
            pipeline
                .memory()
                .digest("B4", &MetricKey::BOOTSTRAP_TIME)
                .unwrap()
                .mean(),
            3.0
        );
        pipeline.finish();
    }

    #[test]
    fn file_sink_streams_records() {
        let path = std::env::temp_dir().join("renaissance_pipeline_test.jsonl");
        let path_str = path.to_str().unwrap();
        let mut pipeline = MetricPipeline {
            memory: MemorySink::default(),
            file: Some((
                Box::new(JsonLinesSink::new(BufWriter::new(
                    File::create(&path).unwrap(),
                ))),
                path_str.to_string(),
            )),
        };
        pipeline.record("B4", &MetricKey::RECOVERY_TIME, 1.5);
        pipeline.finish();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content,
            "{\"scope\":\"B4\",\"metric\":\"scenario/recovery_s\",\"unit\":\"s\",\"value\":1.5}\n"
        );
        let _ = std::fs::remove_file(&path);
    }
}
