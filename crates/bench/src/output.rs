//! The shared `--out`/`--format` flags as a [`Recorder`].
//!
//! [`OutSink`] streams every individual sample to a JSON-lines or CSV file as it is
//! produced, so the machine-readable record of an arbitrarily long run is never
//! buffered.

use crate::cli::{die, CliArgs};
use sdn_metrics::{CsvSink, JsonLinesSink, MetricKey, Recorder};
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

/// The streaming file sink behind the shared `--out PATH` / `--format json|csv` flags.
/// Without `--out` it records nothing.
pub struct OutSink {
    file: Option<(Box<dyn Recorder>, String)>,
}

impl OutSink {
    /// A sink honouring the parsed `--out`/`--format` flags; creates the file.
    pub fn from_args(args: &CliArgs) -> OutSink {
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
        OutSink { file }
    }

    /// Flushes the file (if any) and reports where the records went.
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

impl Recorder for OutSink {
    fn record(&mut self, scope: &str, key: &MetricKey, value: f64) {
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
    fn file_sink_streams_records() {
        let path = std::env::temp_dir().join("renaissance_pipeline_test.jsonl");
        let path_str = path.to_str().unwrap();
        let mut sink = OutSink {
            file: Some((
                Box::new(JsonLinesSink::new(BufWriter::new(
                    File::create(&path).unwrap(),
                ))),
                path_str.to_string(),
            )),
        };
        sink.record("B4", &MetricKey::RECOVERY_TIME, 1.5);
        sink.finish();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content,
            "{\"scope\":\"B4\",\"metric\":\"scenario/recovery_s\",\"unit\":\"s\",\"value\":1.5}\n"
        );
        let _ = std::fs::remove_file(&path);
    }
}
