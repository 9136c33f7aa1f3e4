//! Resolved findings, waiver records, and the machine-readable JSON report.
//!
//! The JSON emitter is hand-rolled in the same offline idiom as `bench::report`:
//! no dependencies, stable key order, and every string escaped, so the `--json`
//! output of a failing run can be read by other tools without re-running this one.

use crate::rules::Severity;

/// One resolved finding (a rule that fired, after waiver matching).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`crate::rules::RULES`] or a `waiver-*` meta rule).
    pub rule: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-oriented explanation.
    pub message: String,
    /// True when a justified waiver suppresses this finding.
    pub waived: bool,
    /// The waiver's justification, when waived.
    pub waiver_reason: Option<String>,
}

/// One waiver encountered during the scan, with its audit state.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Repo-relative file path.
    pub file: String,
    /// Line the waiver comment starts on.
    pub line: u32,
    /// Rule ids the waiver names.
    pub rules: Vec<String>,
    /// The written justification.
    pub reason: String,
    /// True when the waiver suppressed at least one finding.
    pub used: bool,
}

/// The whole-run report.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived or not, in scan order.
    pub findings: Vec<Finding>,
    /// Every waiver encountered.
    pub waivers: Vec<WaiverRecord>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not suppressed by a justified waiver. Any of these fails the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Count of unwaived findings.
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Count of findings suppressed by justified waivers.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// Serializes the report as a single JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"tool\": \"sdn-stancheck\",\n");
        out.push_str(&format!(
            "  \"version\": {},\n",
            json_str(env!("CARGO_PKG_VERSION"))
        ));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"summary\": {{\"unwaived\": {}, \"waived\": {}, \"waivers\": {}}},\n",
            self.unwaived_count(),
            self.waived_count(),
            self.waivers.len()
        ));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \
                 \"message\": {}, \"waived\": {}{}}}",
                json_str(&f.rule),
                json_str(f.severity.label()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                f.waived,
                match &f.waiver_reason {
                    Some(reason) => format!(", \"waiver_reason\": {}", json_str(reason)),
                    None => String::new(),
                }
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let rules = w
                .rules
                .iter()
                .map(|r| json_str(r))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rules\": [{}], \"reason\": {}, \
                 \"used\": {}}}",
                json_str(&w.file),
                w.line,
                rules,
                json_str(&w.reason),
                w.used
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (with the surrounding quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_str("ctrl\u{1}"), "\"ctrl\\u0001\"");
    }

    #[test]
    fn report_json_shape() {
        let report = Report {
            findings: vec![Finding {
                rule: "hash-collections".to_string(),
                severity: Severity::Error,
                file: "crates/core/src/lib.rs".to_string(),
                line: 7,
                message: "bad \"thing\"".to_string(),
                waived: false,
                waiver_reason: None,
            }],
            waivers: vec![WaiverRecord {
                file: "crates/core/src/a.rs".to_string(),
                line: 3,
                rules: vec!["wall-clock".to_string()],
                reason: "why".to_string(),
                used: true,
            }],
            files_scanned: 2,
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"unwaived\": 1"));
        assert!(json.contains("\"rule\": \"hash-collections\""));
        assert!(json.contains("\"message\": \"bad \\\"thing\\\"\""));
        assert!(json.contains("\"used\": true"));
    }
}
