//! A dependency-free JSON value with an emitter *and* a parser: the one JSON
//! implementation of the workspace, shared by the benchmark artifacts
//! (`BENCH_scale*.json` and the tests that read them back), the `sdn-serve` wire
//! format and command log, and [`JsonLinesSink`](crate::JsonLinesSink).

use crate::digest::Digest;
use std::fmt::Write as _;

/// A JSON value, built by hand so benchmark artifacts need no external dependency.
///
/// Serialization follows RFC 8259: strings are escaped, object member order is
/// preserved (insertion order — the emitter never reorders keys), and non-finite
/// numbers (which JSON cannot represent) become `null`.
///
/// # Example
///
/// ```
/// use sdn_metrics::json::Json;
/// let doc = Json::obj([
///     ("name", Json::str("scale")),
///     ("runs", Json::num(3.0)),
///     ("ok", Json::Bool(true)),
///     ("samples", Json::arr([Json::num(1.5), Json::num(2.0)])),
/// ]);
/// assert_eq!(
///     doc.to_string(),
///     r#"{"name":"scale","runs":3,"ok":true,"samples":[1.5,2]}"#
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// An array from any iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, preserving their order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serializes the summary statistics of a [`Digest`] the way every benchmark
    /// artifact records measurements: count, mean, stddev, min/max, and the
    /// p50/p90/p99 quantiles.
    pub fn samples(samples: &Digest) -> Json {
        let quantiles = samples.quantiles(&[0.5, 0.9, 0.99]);
        Json::obj([
            ("n", Json::num(samples.len() as f64)),
            ("mean", Json::num(samples.mean())),
            ("stddev", Json::num(samples.stddev())),
            ("min", Json::num(samples.min())),
            ("p50", Json::num(quantiles[0])),
            ("p90", Json::num(quantiles[1])),
            ("p99", Json::num(quantiles[2])),
            ("max", Json::num(samples.max())),
        ])
    }

    /// The member of an object with the given key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a count, if this is a non-negative whole number (`as_f64`
    /// alone would let `2.5` or `-1` through to an `as u64` cast).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.trunc() == *n)
            .map(|n| n as u64)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (RFC 8259) — the inverse of the emitter, used to read
    /// committed benchmark artifacts back in tests and `sdn-serve`'s request bodies and
    /// log lines. Input nested deeper than [`MAX_DEPTH`] is an
    /// error, not a stack overflow.
    ///
    /// # Example
    ///
    /// ```
    /// use sdn_metrics::json::Json;
    /// let doc = Json::parse(r#"{"a":[1,true,"x\n"],"b":null}"#).unwrap();
    /// assert_eq!(doc.get("a").unwrap().as_array().unwrap()[0].as_f64(), Some(1.0));
    /// assert_eq!(doc.to_string(), "{\"a\":[1,true,\"x\\n\"],\"b\":null}");
    /// ```
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    escape(s, out);
    out.push('"');
}

/// Appends `s` escaped for embedding in a JSON string (quotes not included).
pub(crate) fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// How deeply arrays and objects may nest in a document [`Json::parse`] accepts. The
/// parser recurses once per level and its input can come from the network, so the
/// bound is what keeps a body of `[[[[…` from overflowing the stack; the artifacts and
/// wire types nest fewer than ten levels.
pub const MAX_DEPTH: usize = 64;

/// Recursive-descent JSON parser over raw bytes (inputs are our own ASCII-heavy
/// artifacts; string content is still handled as UTF-8).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, refusing to go deeper than [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or escape in one slice.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1; // consume the backslash
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our emitter; map
                            // lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shapes() {
        let doc = Json::obj([
            ("plain", Json::str("a")),
            ("quoted", Json::str("say \"hi\"\n\tdone\\")),
            ("control", Json::str("\u{1}")),
            ("null", Json::Null),
            ("flag", Json::Bool(false)),
            ("int", Json::num(42.0)),
            ("float", Json::num(1.25)),
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::Num(f64::INFINITY)),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"plain":"a","quoted":"say \"hi\"\n\tdone\\","control":"\u0001","null":null,"flag":false,"int":42,"float":1.25,"nan":null,"inf":null,"empty_arr":[],"empty_obj":{}}"#
        );
    }

    #[test]
    fn json_samples_summary() {
        let mut m = Digest::default();
        m.record(1.0);
        m.record(3.0);
        let json = Json::samples(&m).to_string();
        assert_eq!(
            json,
            r#"{"n":2,"mean":2,"stddev":1.4142135623730951,"min":1,"p50":1,"p90":3,"p99":3,"max":3}"#
        );
    }

    #[test]
    fn json_parse_round_trips_the_emitter() {
        let doc = Json::obj([
            ("plain", Json::str("a")),
            ("quoted", Json::str("say \"hi\"\n\tdone\\")),
            ("control", Json::str("\u{1}")),
            ("unicode", Json::str("père")),
            ("null", Json::Null),
            ("flag", Json::Bool(false)),
            ("int", Json::num(42.0)),
            ("neg", Json::num(-1.25e-3)),
            ("arr", Json::arr([Json::num(1.0), Json::Bool(true)])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Whitespace tolerance.
        let spaced = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(spaced.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1}x"#).is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse(r#""bad \q escape""#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01a").is_err());
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // The hostile shape: a request-sized body of nothing but openers, arrays or
        // objects, must come back as an error instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(60_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(10_000)).is_err());
    }

    #[test]
    fn json_accessors() {
        let doc = Json::parse(r#"{"s":"x","n":2.5,"a":[]}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(2.5));
        assert!(doc.get("a").unwrap().as_array().unwrap().is_empty());
        assert!(doc.get("missing").is_none());
        assert!(doc.get("s").unwrap().as_f64().is_none());
        assert_eq!(Json::num(7.0).as_u64(), Some(7));
        for not_a_count in [Json::num(2.5), Json::num(-1.0), Json::Num(f64::INFINITY)] {
            assert_eq!(not_a_count.as_u64(), None, "{not_a_count}");
        }
        assert!(Json::Null.get("x").is_none());
    }
}
