//! JSON reading and writing, without any external dependency: the one
//! place that knows JSON syntax. Every artifact the workspace emits (run
//! manifests, store records, Perfetto traces, the daemon's wire lines,
//! the `CHECK-FAIL` and `LITMUS-FAIL` lines) is written with [`object`],
//! and read back with [`Json::parse`].
//!
//! **Writing** streams into a `String`: [`object`] opens an object and
//! hands the closure an [`Obj`], whose [`field`](Obj::field),
//! [`object`](Obj::object) and [`array`](Obj::array) calls place every
//! key, colon and comma, so nesting follows the call structure. Values
//! implement [`Value`]: strings are escaped by [`push_escaped`],
//! integers are written as their exact decimal text, `f64` in Rust's
//! shortest round-trip `{}` form ([`Fixed`] gives a set number of
//! decimals), slices as arrays, and `None` and non-finite numbers as
//! `null`. The output is compact: no whitespace anywhere.
//!
//! **Reading** is a plain recursive-descent parser over the JSON grammar
//! (RFC 8259): objects, arrays, strings with the standard escape set
//! (surrogate pairs included), numbers parsed as `f64`, and the three
//! literals. Object keys keep insertion order (stored as a `Vec` of
//! pairs), which is what the golden tests want when asserting on emitted
//! artifacts.
//!
//! The number rule follows from the two halves: integers go out exact but
//! come back as `f64`, so a value above 2^53 does not survive a round
//! trip. Writers that need bit-exact numbers back (the result store)
//! carry them as strings.
//!
//! # Examples
//!
//! ```
//! use commsense_machine::json::{self, Fixed, Json};
//!
//! let mut out = String::new();
//! json::object(&mut out, |o| {
//!     o.field("schema", 1u32)
//!         .field("tags", ["a", "b"].as_slice())
//!         .field("ratio", Fixed(2.0 / 3.0, 3))
//!         .field("slope", None::<f64>)
//!         .object("ok", |o| {
//!             o.field("verified", true);
//!         });
//! });
//! assert_eq!(
//!     out,
//!     r#"{"schema":1,"tags":["a","b"],"ratio":0.667,"slope":null,"ok":{"verified":true}}"#
//! );
//!
//! let v = Json::parse(&out).unwrap();
//! assert_eq!(v.get("schema").and_then(Json::as_f64), Some(1.0));
//! assert_eq!(v.get("tags").and_then(Json::as_arr).map(Vec::len), Some(2));
//! assert_eq!(v.get("ok").and_then(|o| o.get("verified")), Some(&Json::Bool(true)));
//! ```

use std::fmt::Write as _;

/// Writes one JSON object to `out`: `{`, whatever `fill` adds through the
/// [`Obj`], then `}`.
pub fn object(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    fill(&mut Obj { out, first: true });
    out.push('}');
}

fn array(out: &mut String, fill: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    fill(&mut Arr { out, first: true });
    out.push(']');
}

/// An object being written by [`object`]; each call adds one member.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        push_escaped(self.out, key);
        self.out.push(':');
    }

    /// Adds `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Adds `"key":{…}`, filled by `fill`.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key);
        object(self.out, fill);
        self
    }

    /// Adds `"key":[…]`, filled by `fill`.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.key(key);
        array(self.out, fill);
        self
    }
}

/// An array being written by [`Obj::array`]; each call adds one element.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    fn sep(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
    }

    /// Adds one element.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        self.sep();
        value.write_json(self.out);
        self
    }

    /// Adds one object element, filled by `fill`.
    pub fn object(&mut self, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.sep();
        object(self.out, fill);
        self
    }
}

/// A value the writer can place after a key or in an array.
pub trait Value {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_value!(u32, u64, usize);

impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// An `f64` written with a fixed number of decimals (`Fixed(x, 4)` is
/// `{x:.4}`); non-finite values are `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value> Value for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters (`\n`, `\r`, `\t`, otherwise
/// `\u00XX`); everything else, non-ASCII text included, is copied as is.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Escaped bytes are ASCII, so `i` is always a char boundary.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep the order they appeared in the text.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document. Trailing non-whitespace input is an
    /// error, as is any grammar violation; the message includes the byte
    /// offset where parsing stopped. Malformed input always yields `Err`,
    /// never a panic: container nesting is capped (so adversarially deep
    /// input cannot overflow the recursion stack) and duplicate object
    /// keys are rejected (our own writers never emit them, so one
    /// silently shadowing another in a manifest would hide corruption).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. This is a recursive-
/// descent parser, so unbounded nesting in malformed (or adversarial)
/// input would overflow the call stack and abort the process; validation
/// must fail with an error instead. 128 is far beyond anything our own
/// artifacts produce.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| k == &key) {
                return Err(format!("duplicate key {key:?} at byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A string literal. Each run of bytes up to the next `"` or `\` is
    /// copied in one piece: the input is a `&str` and both delimiters are
    /// ASCII, so every run is whole UTF-8.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let end = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| start + n);
            out.push_str(&self.text[start..end]);
            self.pos = end;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                None => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// The escape after a `\`, decoded onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let esc = self
            .peek()
            .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = self.hex4()?;
                // A high surrogate followed by a low-surrogate escape is
                // one astral character; any other surrogate is lone and
                // decodes to U+FFFD.
                let mut c = char::from_u32(code);
                if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    let high = self.pos;
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        c = char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00));
                    } else {
                        self.pos = high;
                    }
                }
                out.push(c.unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        }
        Ok(())
    }

    /// The four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, false], "c": null}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.as_obj().unwrap()[0].0, "a");
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn truncated_documents_error_cleanly() {
        // Every prefix of a valid manifest-shaped document must produce an
        // error (not a panic): validation sees torn files after crashes.
        let doc = r#"{"schema_version": 1, "runs": [{"mech": "sm", "cycles": 123}], "ok": true}"#;
        for cut in 1..doc.len() {
            if doc.is_char_boundary(cut) {
                assert!(Json::parse(&doc[..cut]).is_err(), "prefix of {cut} bytes");
            }
        }
    }

    #[test]
    fn bad_escapes_are_errors() {
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape letter");
        assert!(Json::parse(r#""\u12"#).is_err(), "truncated \\u escape");
        assert!(Json::parse(r#""\u12zx""#).is_err(), "non-hex \\u escape");
        assert!(Json::parse("\"\\").is_err(), "escape at end of input");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(s(r#""a\uD834\uDD1Eb""#), "a\u{1d11e}b");
        // A high surrogate not followed by a low one, and a low one on
        // its own, each decode to U+FFFD without eating what follows.
        assert_eq!(s(r#""\ud800""#), "\u{fffd}");
        assert_eq!(s(r#""\ud800\u0041x""#), "\u{fffd}Ax");
        assert_eq!(s(r#""\ud800\ud800""#), "\u{fffd}\u{fffd}");
        assert_eq!(s(r#""\ude00""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert!(
            Json::parse(r#""\ud83d\u12""#).is_err(),
            "truncated low half"
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        // Same key at different depths is fine.
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn deep_nesting_is_capped_not_fatal() {
        // Far past any real artifact: must error, not overflow the stack.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}1{}", open.repeat(4096), close.repeat(4096));
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // Within the cap still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\n\u{1}\u{1f}é\u{7f}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\\u001fé\u{7f}\"");
    }

    fn written(fill: impl FnOnce(&mut Obj<'_>)) -> String {
        let mut out = String::new();
        object(&mut out, fill);
        out
    }

    #[test]
    fn writer_places_commas_nesting_and_nulls() {
        assert_eq!(written(|_| {}), "{}");
        let text = written(|o| {
            o.field("s", "x")
                .field("u", u64::MAX)
                .field("none", None::<&str>)
                .array("empty", |_| {})
                .array("mixed", |a| {
                    a.item(1u32).item(Some(2usize)).object(|o| {
                        o.field("k", false);
                    });
                })
                .object("o", |o| {
                    o.field("list", [0.5, 2.0].as_slice());
                });
        });
        assert_eq!(
            text,
            r#"{"s":"x","u":18446744073709551615,"none":null,"empty":[],"mixed":[1,2,{"k":false}],"o":{"list":[0.5,2]}}"#
        );
    }

    #[test]
    fn floats_are_shortest_round_trip_or_fixed_and_never_nan() {
        let x = |v: f64| {
            written(|o| {
                o.field("x", v);
            })
        };
        let fixed = |v: f64, decimals| {
            written(|o| {
                o.field("x", Fixed(v, decimals));
            })
        };
        assert_eq!(x(0.1 + 0.2), r#"{"x":0.30000000000000004}"#);
        assert_eq!(x(1e-7), r#"{"x":0.0000001}"#);
        assert_eq!(x(-0.0), r#"{"x":-0}"#);
        assert_eq!(x(1e21), r#"{"x":1000000000000000000000}"#);
        assert_eq!(fixed(2.0 / 3.0, 4), r#"{"x":0.6667}"#);
        assert_eq!(fixed(1.0, 3), r#"{"x":1.000}"#);
        assert_eq!(fixed(-0.00049, 3), r#"{"x":-0.000}"#);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(x(bad), r#"{"x":null}"#);
            assert_eq!(fixed(bad, 3), r#"{"x":null}"#);
            let some = written(|o| {
                o.field("x", Some(bad));
            });
            assert_eq!(some, r#"{"x":null}"#);
        }
    }

    /// A run of plain ASCII, long enough to span several copies.
    const RUN: &str = "the quick brown fox jumps over the lazy dog 0123456789 THE LAZY DOG";

    /// Text pieces the round-trip property draws strings from, each with a
    /// second JSON spelling: plain ASCII and long runs of it, everything
    /// the writer escapes, and non-ASCII text up to astral characters. The
    /// second spelling uses what the writer never emits: `\/`, `\b`, `\f`,
    /// `\u` escapes of any character, surrogate pairs, and a lone high
    /// surrogate (which reads back as U+FFFD).
    const PIECES: &[(&str, &str)] = &[
        ("a", "\\u0061"),
        ("Z", "Z"),
        ("0", "0"),
        (" ", " "),
        ("/", "\\/"),
        ("\"", "\\u0022"),
        ("\\", "\\u005C"),
        ("\n", "\\u000a"),
        ("\r", "\\r"),
        ("\t", "\\t"),
        ("\u{0}", "\\u0000"),
        ("\u{8}", "\\b"),
        ("\u{c}", "\\f"),
        ("\u{1f}", "\\u001F"),
        ("\u{7f}", "\u{7f}"),
        ("é", "\\u00e9"),
        ("→", "\\u2192"),
        ("世", "世"),
        ("😀", "\\ud83d\\ude00"),
        ("𝄞", "\\uD834\\uDD1E"),
        ("\u{fffd}", "\\ud800"),
        (RUN, RUN),
    ];

    /// The text `picks` selects, and its second JSON spelling (without
    /// the quotes).
    fn text(picks: &[u32]) -> (String, String) {
        let (mut plain, mut alt) = (String::new(), String::new());
        for &i in picks {
            let (p, a) = PIECES[i as usize % PIECES.len()];
            plain.push_str(p);
            alt.push_str(a);
        }
        (plain, alt)
    }

    /// A value written verbatim: JSON text spelled by hand.
    struct Raw(String);

    impl Value for Raw {
        fn write_json(&self, out: &mut String) {
            out.push_str(&self.0);
        }
    }

    proptest! {
        #[test]
        fn parse_reads_back_what_the_writer_wrote(
            key in collection::vec(any::<u32>(), 0..24),
            tags in collection::vec(collection::vec(any::<u32>(), 0..16), 0..4),
            n in any::<u64>(),
            bits in any::<u64>(),
            flag in any::<bool>(),
        ) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            let n = n % ((1 << 53) + 1);
            // Every other key is plain ASCII without a `k` prefix, so
            // this one never duplicates them.
            let (key, alt) = text(&key);
            let key = format!("k{key}");
            let tags: Vec<String> = tags.iter().map(|t| text(t).0).collect();
            let out = written(|o| {
                o.field(&key, &key)
                    .field("alt", Raw(format!("\"k{alt}\"")))
                    .field("n", n)
                    .field("x", x)
                    .field("flag", flag)
                    .field("none", None::<u64>)
                    .object("inner", |o| {
                        o.field("tags", tags.as_slice()).array("objects", |a| {
                            for t in &tags {
                                a.object(|o| {
                                    o.field("tag", t).field("n", n);
                                });
                            }
                        });
                    });
            });
            let v = Json::parse(&out).map_err(TestCaseError::fail)?;
            prop_assert_eq!(v.get(&key).and_then(Json::as_str), Some(key.as_str()));
            prop_assert_eq!(v.get("alt").and_then(Json::as_str), Some(key.as_str()));
            prop_assert_eq!(v.get("n").and_then(Json::as_u64), Some(n));
            prop_assert_eq!(v.get("x").and_then(Json::as_f64).map(f64::to_bits), Some(bits));
            prop_assert_eq!(v.get("flag").and_then(Json::as_bool), Some(flag));
            prop_assert_eq!(v.get("none"), Some(&Json::Null));
            let inner = v.get("inner").unwrap();
            let back: Vec<&str> = inner
                .get("tags")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_str)
                .collect();
            prop_assert_eq!(back, tags.iter().map(String::as_str).collect::<Vec<_>>());
            let objects = inner.get("objects").and_then(Json::as_arr).unwrap();
            prop_assert_eq!(objects.len(), tags.len());
            for (o, t) in objects.iter().zip(&tags) {
                prop_assert_eq!(o.get("tag").and_then(Json::as_str), Some(t.as_str()));
                prop_assert_eq!(o.get("n").and_then(Json::as_u64), Some(n));
            }
        }
    }

    #[test]
    fn escaping_roundtrips() {
        let mut out = String::new();
        push_escaped(&mut out, "tab\t\"quote\"\u{1}");
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("tab\t\"quote\"\u{1}"));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse(r#""héllo → 世界""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
    }
}
