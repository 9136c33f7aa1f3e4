//! Span recording for the traced run. Spans are opened and closed from the
//! benchmark's own files, around calls into each layer's public functions; nothing
//! inside the product is instrumented. They stay in memory and are written out as
//! `trace.json` when the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `run` is shared by every span of one seeded run (or one
/// session); `parent` is `None` only for that run's root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// The in-memory span recorder. A disabled tracer reads no clock and records
/// nothing, so the same driver code serves as its own untraced reference.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. Opening one with nothing open
    /// starts a new run.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.stack.is_empty() {
            self.run += 1;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run: self.run,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (and, defensively, anything opened after it and left open).
    pub fn exit(&mut self, open: Open) {
        let Open(Some(id)) = open else {
            return;
        };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many spans, their total duration, and their total *self*
    /// time — duration minus the part covered by child spans.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for span in &self.spans {
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += span.duration_ns();
            total.self_ns += span
                .duration_ns()
                .saturating_sub(child_ns[span.id as usize]);
        }
        totals
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Checks the span tree is well formed: nothing left open, every span has a
    /// recorded parent of the same run or is a run root, and children lie inside
    /// their parent.
    pub fn check(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans were never closed", self.stack.len()));
        }
        for span in &self.spans {
            if span.end_ns < span.start_ns {
                return Err(format!("span {} ends before it starts", span.id));
            }
            let Some(parent) = span.parent else {
                continue;
            };
            let Some(parent) = self.spans.get(parent as usize) else {
                return Err(format!("span {} names a missing parent", span.id));
            };
            if parent.run != span.run {
                return Err(format!("span {} crosses runs", span.id));
            }
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) lies outside its parent {} ({})",
                    span.id, span.name, parent.id, parent.name
                ));
            }
        }
        Ok(())
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":{},\"spans\":[", json::quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.run,
                json::quote(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("run");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", || ());
        t.exit(root);
        let second = t.enter("run");
        t.exit(second);
        t.check().unwrap();
        let totals = t.totals();
        assert_eq!(totals["run"].count, 2);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(
            totals["run"].self_ns,
            totals["run"].total_ns - totals["child"].total_ns
        );
        assert!(totals["child"].total_ns >= 2_000_000);
        // Two roots mean two runs; children carry their root's run id.
        let runs: Vec<u32> = t.spans().iter().map(|s| s.run).collect();
        assert_eq!(runs, [1, 1, 1, 2]);
        let doc = json::parse(&t.to_json("w")).unwrap();
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_array()).unwrap().len(),
            4
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("run");
        assert_eq!(t.span("child", || 7), 7);
        t.exit(open);
        assert!(t.spans().is_empty());
        t.check().unwrap();
    }

    #[test]
    fn check_rejects_an_unclosed_span() {
        let mut t = Tracer::new(true);
        let _open = t.enter("run");
        assert!(t.check().is_err());
    }
}
