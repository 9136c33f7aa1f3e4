//! Ties the passes together: lex → test mask → rules → waiver resolution.
//!
//! Waiver semantics enforced here:
//! - a waiver suppresses a matching-rule finding on its own line(s) or the line
//!   immediately after — *only* if it carries a non-empty justification;
//! - a waiver with no justification is a `waiver-missing-justification` finding and
//!   suppresses nothing;
//! - a waiver naming an unknown rule is a `waiver-unknown-rule` finding;
//! - a justified waiver that suppresses nothing is a `waiver-unused` finding, so
//!   stale waivers are flushed out when the hazard they covered is fixed — except a
//!   `test-only-api` waiver when the cross-file pass did not run (a scan of explicit
//!   paths), which cannot know whether it is stale;
//! - malformed `stancheck:` comments are `waiver-syntax` findings.
//!
//! None of the `waiver-*` meta findings can themselves be waived: the waiver channel
//! must stay auditable.

use crate::lexer::Comment;
use crate::report::{Finding, WaiverRecord};
use crate::rules::{rule_by_id, FileContext, FileKind, RawFinding, Severity};
use crate::waiver::parse_waivers;

/// Matches one file's raw findings against its waivers. `file` is the repo-relative
/// path used in reports; `cross_file` says whether the `test-only-api` pass ran, so
/// whether its waivers can be judged unused.
pub fn resolve(
    file: &str,
    raw: Vec<RawFinding>,
    comments: &[Comment<'_>],
    cross_file: bool,
) -> (Vec<Finding>, Vec<WaiverRecord>) {
    let (waivers, syntax_errors) = parse_waivers(comments);

    let mut used = vec![false; waivers.len()];
    let mut findings = Vec::new();

    for finding in raw {
        let matched = waivers.iter().enumerate().find(|(_, w)| {
            !w.reason.is_empty()
                && w.rules.iter().any(|r| r == finding.rule.id)
                && finding.line >= w.line
                && finding.line <= w.covers_through
        });
        match matched {
            Some((wi, w)) => {
                used[wi] = true;
                findings.push(Finding {
                    rule: finding.rule.id.to_string(),
                    severity: finding.rule.severity,
                    file: file.to_string(),
                    line: finding.line,
                    message: finding.message,
                    waived: true,
                    waiver_reason: Some(w.reason.clone()),
                });
            }
            None => findings.push(Finding {
                rule: finding.rule.id.to_string(),
                severity: finding.rule.severity,
                file: file.to_string(),
                line: finding.line,
                message: finding.message,
                waived: false,
                waiver_reason: None,
            }),
        }
    }

    for err in &syntax_errors {
        findings.push(meta(file, "waiver-syntax", err.line, err.message.clone()));
    }
    for (wi, w) in waivers.iter().enumerate() {
        for rule in &w.rules {
            if rule_by_id(rule).is_none() {
                findings.push(meta(
                    file,
                    "waiver-unknown-rule",
                    w.line,
                    format!("waiver names unknown rule `{rule}`"),
                ));
            }
        }
        if w.reason.is_empty() {
            findings.push(meta(
                file,
                "waiver-missing-justification",
                w.line,
                "waiver has no written justification; append `— <reason>`".to_string(),
            ));
        } else if !used[wi]
            && w.rules.iter().all(|r| rule_by_id(r).is_some())
            && (cross_file || !w.rules.iter().any(|r| r == "test-only-api"))
        {
            findings.push(meta(
                file,
                "waiver-unused",
                w.line,
                format!(
                    "waiver for `{}` suppresses nothing; remove it",
                    w.rules.join(", ")
                ),
            ));
        }
    }

    let records = waivers
        .iter()
        .zip(&used)
        .map(|(w, &u)| WaiverRecord {
            file: file.to_string(),
            line: w.line,
            rules: w.rules.clone(),
            reason: w.reason.clone(),
            used: u,
        })
        .collect();
    (findings, records)
}

fn meta(file: &str, rule: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        severity: Severity::Error,
        file: file.to_string(),
        line,
        message,
        waived: false,
        waiver_reason: None,
    }
}

/// Parses a fixture directive:
/// `// stancheck-fixture: crate=<name> kind=<label> [module=<name>]`.
///
/// Fixture files live outside any crate's source tree, so their path says nothing
/// about how rules should apply; the directive pins the simulated context. The
/// optional `module=` pin exists for module-scoped rules (serve's transport-only
/// wall-clock allowance) and defaults to `lib`. Returns `None` when the source has
/// no directive (normal files).
pub fn fixture_directive(src: &str) -> Option<FileContext> {
    let marker = "stancheck-fixture:";
    let at = src.find(marker)?;
    let line = src[at + marker.len()..].lines().next()?;
    let mut crate_name = None;
    let mut kind = None;
    let mut module = "lib".to_string();
    for part in line.split_whitespace() {
        if let Some(v) = part.strip_prefix("crate=") {
            crate_name = Some(v.to_string());
        } else if let Some(v) = part.strip_prefix("kind=") {
            kind = FileKind::from_label(v);
        } else if let Some(v) = part.strip_prefix("module=") {
            module = v.to_string();
        }
    }
    Some(FileContext {
        crate_name: crate_name?,
        kind: kind?,
        module,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::scan;
    use crate::scope::test_mask;

    /// One file through the per-file rules and waiver resolution.
    fn analyze_source(
        file: &str,
        src: &str,
        ctx: &FileContext,
    ) -> (Vec<Finding>, Vec<WaiverRecord>) {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let raw = scan(&lexed.tokens, &mask, ctx);
        resolve(file, raw, &lexed.comments, false)
    }

    fn lib_ctx(name: &str) -> FileContext {
        FileContext {
            crate_name: name.to_string(),
            kind: FileKind::Lib,
            module: "lib".to_string(),
        }
    }

    #[test]
    fn justified_waiver_suppresses_and_is_recorded() {
        let src = "// stancheck: allow(hash-collections) — replayed in sorted order\n\
                   use std::collections::HashMap;\n";
        let (findings, waivers) = analyze_source("f.rs", src, &lib_ctx("core"));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
        assert_eq!(
            findings[0].waiver_reason.as_deref(),
            Some("replayed in sorted order")
        );
        assert_eq!(waivers.len(), 1);
        assert!(waivers[0].used);
    }

    #[test]
    fn unjustified_waiver_suppresses_nothing() {
        let src = "// stancheck: allow(hash-collections)\nuse std::collections::HashMap;\n";
        let (findings, _) = analyze_source("f.rs", src, &lib_ctx("core"));
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"hash-collections"));
        assert!(rules.contains(&"waiver-missing-justification"));
        assert!(findings.iter().all(|f| !f.waived));
    }

    #[test]
    fn unused_and_unknown_waivers_are_flagged() {
        let src = "// stancheck: allow(wall-clock) — stale\nfn ok() {}\n\
                   // stancheck: allow(no-such-rule) — eh\nfn also_ok() {}\n";
        let (findings, _) = analyze_source("f.rs", src, &lib_ctx("core"));
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"waiver-unused"));
        assert!(rules.contains(&"waiver-unknown-rule"));
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "use std::collections::HashMap; // stancheck: allow(hash-collections) — scratch map, drained sorted\n";
        let (findings, _) = analyze_source("f.rs", src, &lib_ctx("netsim"));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "// stancheck: allow(wall-clock) — wrong rule\nuse std::collections::HashMap;\n";
        let (findings, _) = analyze_source("f.rs", src, &lib_ctx("core"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "hash-collections" && !f.waived));
    }

    #[test]
    fn fixture_directive_parses() {
        let ctx = fixture_directive("// stancheck-fixture: crate=core kind=lib\nfn x() {}")
            .expect("directive");
        assert_eq!(ctx.crate_name, "core");
        assert_eq!(ctx.kind, FileKind::Lib);
        assert_eq!(ctx.module, "lib");
        assert!(fixture_directive("fn x() {}").is_none());

        let ctx = fixture_directive(
            "// stancheck-fixture: crate=serve kind=lib module=transport\nfn x() {}",
        )
        .expect("directive");
        assert_eq!(ctx.crate_name, "serve");
        assert_eq!(ctx.module, "transport");
    }
}
