//! Test-scope detection over the token stream.
//!
//! Library rules (like `unwrap-expect`) must not fire inside `#[cfg(test)]` modules or
//! `#[test]` functions: test code is allowed to panic and to be sloppy about clocks.
//! This pass walks the token stream once and produces a parallel boolean mask —
//! `mask[i]` is true when token `i` lives inside a test-only scope.
//!
//! The detection is a heuristic over tokens, not a full parse: an attribute that
//! mentions `test` (and does not mention `not`, so `#[cfg(not(test))]` stays
//! production code) arms a pending flag; the next `{` opens a test scope that covers
//! everything to the matching `}`. The item header between the attribute and that
//! `{` (`pub(crate) fn helper()`) is test-only too. A `;` before any `{` disarms the
//! flag, so `#[cfg(test)] use foo;` masks that item and not the rest of the file.

use crate::lexer::Token;

/// Computes the test mask for `tokens`: `true` = inside `#[test]`/`#[cfg(test)]`.
pub fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Brace depths at which a test scope was opened.
    let mut test_scopes: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut pending = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let in_test = !test_scopes.is_empty();
        let text = tokens[i].text;
        match text {
            "#" => {
                // Attribute: `#` `[` ... `]` (or `#![...]`). Scan its tokens for
                // `test` without `not`.
                let mut j = i + 1;
                if matches!(tokens.get(j), Some(t) if t.text == "!") {
                    j += 1;
                }
                if matches!(tokens.get(j), Some(t) if t.text == "[") {
                    let mut bracket_depth = 1usize;
                    let mut k = j + 1;
                    let mut saw_test = false;
                    let mut saw_not = false;
                    while k < tokens.len() && bracket_depth > 0 {
                        match tokens[k].text {
                            "[" => bracket_depth += 1,
                            "]" => bracket_depth -= 1,
                            "test" | "doctest" => saw_test = true,
                            "not" => saw_not = true,
                            _ => {}
                        }
                        k += 1;
                    }
                    if saw_test && !saw_not {
                        pending = true;
                    }
                    for slot in mask.iter_mut().take(k).skip(i) {
                        *slot = in_test;
                    }
                    i = k;
                    continue;
                }
            }
            "{" => {
                if pending {
                    test_scopes.push(depth);
                    pending = false;
                    // The brace itself belongs to the test scope it opens.
                    mask[i] = true;
                    depth += 1;
                    i += 1;
                    continue;
                }
                depth += 1;
            }
            "}" => {
                mask[i] = in_test;
                depth = depth.saturating_sub(1);
                if test_scopes.last() == Some(&depth) {
                    test_scopes.pop();
                }
                i += 1;
                continue;
            }
            ";" if pending => {
                // An item ended without a body: the armed attribute applied to a
                // braceless item (`use`, `type`, ...), not to a scope.
                pending = false;
                mask[i] = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        mask[i] = in_test || pending;
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn masked_idents(src: &str) -> Vec<(String, bool)> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.kind == crate::lexer::TokenKind::Ident)
            .map(|(t, m)| (t.text.to_string(), *m))
            .collect()
    }

    fn is_test(src: &str, ident: &str) -> bool {
        masked_idents(src)
            .into_iter()
            .find(|(t, _)| t == ident)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("ident {ident} not found"))
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = r#"
            fn production() { real() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() { helper() }
            }
            fn also_production() { real2() }
        "#;
        assert!(!is_test(src, "real"));
        assert!(is_test(src, "helper"));
        assert!(!is_test(src, "real2"));
    }

    #[test]
    fn test_fn_without_module_is_masked() {
        let src = r#"
            #[test]
            fn lone() { probe() }
            fn after() { live() }
        "#;
        assert!(is_test(src, "probe"));
        assert!(!is_test(src, "live"));
    }

    #[test]
    fn cfg_not_test_stays_production() {
        let src = r#"
            #[cfg(not(test))]
            fn guard() { live_path() }
        "#;
        assert!(!is_test(src, "live_path"));
    }

    #[test]
    fn braceless_item_disarms_the_flag() {
        let src = r#"
            #[cfg(test)]
            use std::collections::BTreeMap;
            fn production() { real() }
        "#;
        assert!(is_test(src, "BTreeMap"));
        assert!(!is_test(src, "real"));
    }

    #[test]
    fn a_test_gated_item_header_is_masked() {
        let src = r#"
            #[cfg(test)]
            pub(crate) fn reference(x: Input) -> Output { body() }
            pub fn live() {}
        "#;
        assert!(is_test(src, "reference"));
        assert!(is_test(src, "Input"));
        assert!(!is_test(src, "live"));
    }

    #[test]
    fn nested_braces_stay_in_scope() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper() { if cond() { inner() } }
            }
            fn out() { free() }
        "#;
        assert!(is_test(src, "inner"));
        assert!(!is_test(src, "free"));
    }
}
