// stancheck-fixture: crate=core kind=lib
//! The `test-only-api` pair: `caller.rs` is this library's only production caller,
//! so a public item it does not name is flagged.

/// Called from `caller.rs`: not flagged.
pub fn used_by_caller() -> u32 {
    1
}

/// Called only by this file's own test: flagged.
pub fn used_only_by_tests() -> u32 {
    2
}

/// Named by nobody: flagged.
pub(crate) const NAMED_BY_NOBODY: u32 = 3;

/// Named only in this doc comment, `NamedInDocs`, and in the string `describe`
/// returns: flagged, because the lexer never counts literals or comments.
pub struct NamedInDocs;

/// Called from `caller.rs`: not flagged.
pub fn describe() -> &'static str {
    "NamedInDocs"
}

/// Called only by the test below, and waived: suppressed and recorded.
// stancheck: allow(test-only-api) — reference implementation a test compares against
pub fn reference() -> u32 {
    4
}

/// Called from `caller.rs`, so its waiver suppresses nothing: `waiver-unused`.
// stancheck: allow(test-only-api) — transient-fault hook for Theorem 2 experiments
pub fn hook() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tests_call_these() {
        assert_eq!(used_only_by_tests() + reference(), 6);
    }
}
