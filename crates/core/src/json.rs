//! A minimal JSON reader and writer helper, enough to validate the
//! artifacts this crate emits (run manifests, Perfetto traces) without any
//! external dependency.
//!
//! The parser is a plain recursive-descent implementation over the JSON
//! grammar (RFC 8259): objects, arrays, strings with the standard escape
//! set, numbers parsed as `f64`, and the three literals. Object keys keep
//! insertion order (stored as a `Vec` of pairs), which is what the golden
//! tests want when asserting on emitted artifacts.
//!
//! # Examples
//!
//! ```
//! use commsense_core::json::Json;
//!
//! let v = Json::parse(r#"{"schema": 1, "tags": ["a", "b"], "ok": true}"#).unwrap();
//! assert_eq!(v.get("schema").and_then(Json::as_f64), Some(1.0));
//! assert_eq!(v.get("tags").and_then(Json::as_arr).map(Vec::len), Some(2));
//! assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
//! ```

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

/// Defined in `commsense_machine` so `SimError::raise` can use it too.
pub use commsense_machine::push_escaped;

/// Maximum container nesting the parser accepts. This is a recursive-
/// descent parser, so unbounded nesting in malformed (or adversarial)
/// input would overflow the call stack and abort the process; validation
/// must fail with an error instead. 128 is far beyond anything our own
/// artifacts produce.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // artifacts; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Lone surrogates decode to U+FFFD rather than erroring.
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
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
