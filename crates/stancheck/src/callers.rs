//! The cross-file `test-only-api` pass: public items that no production code names.
//!
//! Every other rule reads one file's tokens; this one needs all of them. It runs over
//! the token streams and test masks the per-file pass already built, and only when
//! the file set is a whole workspace: on a single file, every helper that only its
//! own test calls would be flagged.
//!
//! A *candidate* is a `pub` or `pub(crate)` `fn`, `const`, `static`, `struct`,
//! `enum`, `type` or `trait` in library code, outside any test scope and outside the
//! benchmark package (`perf`). Trait-impl methods cannot carry `pub`, so they are
//! never candidates. A *caller* is any identifier token with the candidate's name,
//! other than a candidate's own definition, in production code: the item's own file
//! (so a type named in a public signature has its caller), other library files,
//! binaries, examples and build scripts. Integration tests and `#[cfg(test)]` /
//! `#[test]` scopes are not callers, except under `crates/bench/perf`, where every
//! token counts: that package is frozen and must keep compiling. Matching is by
//! name, so a collision can hide a dead item, but every finding is real.

use crate::lexer::{Token, TokenKind};
use crate::rules::{finding, FileContext, FileKind, RawFinding};
use std::collections::BTreeSet;

/// One file as the per-file pass left it.
pub struct Scanned<'a> {
    /// The file's crate, kind and module.
    pub ctx: &'a FileContext,
    /// Its code tokens.
    pub tokens: &'a [Token<'a>],
    /// Its test mask (see [`crate::scope::test_mask`]).
    pub mask: &'a [bool],
}

/// A public item definition: the line of its `pub` and the index of its name token.
struct Item {
    line: u32,
    name: usize,
}

/// Runs the pass over a whole workspace; returns each file's findings, in file order.
pub fn test_only_api(files: &[Scanned<'_>]) -> Vec<Vec<RawFinding>> {
    let items: Vec<Vec<Item>> = files
        .iter()
        .map(|f| {
            let library = f.ctx.kind == FileKind::Lib && f.ctx.crate_name != "perf";
            if library {
                public_items(f.tokens, f.mask)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for (file, items) in files.iter().zip(&items) {
        let frozen = file.ctx.crate_name == "perf";
        let production = !matches!(file.ctx.kind, FileKind::Test | FileKind::Bench);
        let mut definitions = items.iter().map(|item| item.name).peekable();
        for (i, token) in file.tokens.iter().enumerate() {
            if definitions.next_if_eq(&i).is_some() {
                continue;
            }
            if token.kind == TokenKind::Ident && (frozen || production && !file.mask[i]) {
                called.insert(token.text);
            }
        }
    }
    files
        .iter()
        .zip(&items)
        .map(|(file, items)| {
            items
                .iter()
                .filter(|item| !called.contains(file.tokens[item.name].text))
                .map(|item| {
                    finding(
                        "test-only-api",
                        item.line,
                        format!(
                            "public `{}` is named by no production code, only by tests, \
                             docs or nothing; delete it, or waive it with the reason it stays",
                            file.tokens[item.name].text
                        ),
                    )
                })
                .collect()
        })
        .collect()
}

/// The `pub` / `pub(crate)` item definitions outside test scopes, in token order.
fn public_items(tokens: &[Token<'_>], mask: &[bool]) -> Vec<Item> {
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text);
    let mut items = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if token.text != "pub" || mask[i] {
            continue;
        }
        let mut j = i + 1;
        if text(j) == "(" {
            if text(j + 1) != "crate" || text(j + 2) != ")" {
                continue;
            }
            j += 3;
        }
        // `const fn`, `async fn`, `unsafe fn`, `extern "C" fn` (the lexer drops the
        // string): qualifiers in front of `fn`, where `const` alone starts a constant.
        while matches!(text(j), "const" | "async" | "unsafe" | "extern")
            && matches!(text(j + 1), "fn" | "async" | "unsafe" | "extern")
        {
            j += 1;
        }
        let is_item = matches!(
            text(j),
            "fn" | "const" | "static" | "struct" | "enum" | "type" | "trait"
        );
        // `pub static mut NAME`.
        let name = if text(j + 1) == "mut" { j + 2 } else { j + 1 };
        let named = tokens
            .get(name)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "_");
        if is_item && named {
            items.push(Item {
                line: token.line,
                name,
            });
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn names(src: &str) -> Vec<String> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        public_items(&lexed.tokens, &mask)
            .iter()
            .map(|item| lexed.tokens[item.name].text.to_string())
            .collect()
    }

    #[test]
    fn public_items_are_the_seven_kinds_outside_tests() {
        let src = r#"
            pub fn a() {}
            pub(crate) const fn b() {}
            pub const C: u8 = 1;
            pub static D: u8 = 2;
            pub struct E { pub field: u8 }
            pub enum F {}
            pub type G = u8;
            pub trait H {}
            pub async unsafe fn i() {}
            pub extern "C" fn j() {}
            pub(super) fn not_k() {}
            pub mod not_l {}
            pub use not_m::x;
            pub const _: () = ();
            #[cfg(test)]
            mod tests { pub fn not_n() {} }
        "#;
        assert_eq!(
            names(src),
            ["a", "b", "C", "D", "E", "F", "G", "H", "i", "j"]
        );
    }

    #[test]
    fn only_production_tokens_call() {
        let ctx = |kind, crate_name: &str| FileContext {
            crate_name: crate_name.to_string(),
            kind,
            module: "lib".to_string(),
        };
        let lib = lex("pub fn used() {}\npub fn tested() {}\npub fn frozen() {}\npub fn own() {}\nfn f() { own() }\n#[cfg(test)]\nmod t { fn x() { tested() } }");
        let bin = lex("fn main() { used() }");
        let test = lex("fn t() { tested() }");
        let perf = lex("#[cfg(test)]\nmod t { fn x() { frozen() } }");
        let contexts = [
            ctx(FileKind::Lib, "core"),
            ctx(FileKind::Bin, "core"),
            ctx(FileKind::Test, "core"),
            ctx(FileKind::Lib, "perf"),
        ];
        let lexed = [&lib, &bin, &test, &perf];
        let masks: Vec<Vec<bool>> = lexed.iter().map(|l| test_mask(&l.tokens)).collect();
        let files: Vec<Scanned<'_>> = lexed
            .iter()
            .zip(&contexts)
            .zip(&masks)
            .map(|((l, ctx), mask)| Scanned {
                ctx,
                tokens: &l.tokens,
                mask,
            })
            .collect();
        let found = test_only_api(&files);
        let lines: Vec<u32> = found[0].iter().map(|f| f.line).collect();
        assert_eq!(lines, [2], "only `tested` lacks a production caller");
        assert!(found[1..].iter().all(Vec::is_empty));
    }
}
