//! The workspace's one JSON layer (the environment has no serde): a
//! [`Json`] value tree, a compact writer, and a strict parser.
//!
//! Every exporter writes through [`Json::render`]: the engine's
//! run-metrics export, the figure binaries, sweep checkpoints, and the
//! serve daemon's responses. The chrome://tracing writer streams its
//! events instead, through the same string and number writers. Every
//! reader goes through [`parse`] and the [`Json::get`] / `as_*`
//! accessors.
//!
//! The parser is deliberately stricter than RFC 8259 allows a reader to
//! be, because every deviation it tolerates becomes a request the serve
//! daemon's coalescing layer must canonicalize:
//!
//! * duplicate object keys are rejected (they make "identical request"
//!   ambiguous),
//! * non-finite numbers are rejected with a dedicated code — `1e999`
//!   overflows to `inf`, which the writer would silently render as
//!   `null`,
//! * nesting deeper than [`MAX_DEPTH`] is rejected (stack safety on a
//!   network-facing input),
//! * trailing bytes after the document are rejected.
//!
//! Numbers parse to [`Json::UInt`] when they are plain non-negative
//! integers in `u64` range and to [`Json::Float`] otherwise, matching the
//! writer's split. A finite `f64` renders as Rust's shortest round-trip
//! decimal, so render → parse → [`Json::as_f64`] is bit-exact.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (rendered without a fraction).
    UInt(u64),
    /// Floating-point number; non-finite values render as `null`.
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor preserving pair order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience array constructor.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// The value under `key` when this is an object, else `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a [`Json::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a number. Accepts [`Json::UInt`] too: an
    /// integer-valued float renders without a fraction and parses back as
    /// one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value of a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a JSON number; non-finite values render as `null`.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// `doc["key"]` is [`Json::get`] with a `null` fallback, so lookups chain
/// (`doc["result"]["cache"]["hits"].as_u64()`).
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Maximum nesting depth accepted from the wire.
pub const MAX_DEPTH: usize = 16;

/// Why a frame failed to parse. `code` is one of the stable
/// machine-readable codes the daemon puts in error responses:
/// `bad_json` for grammar violations, `non_finite` for numbers that
/// overflow `f64` or use a non-finite spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Stable machine-readable code (`bad_json` or `non_finite`).
    pub code: &'static str,
    /// Byte offset of the offending token.
    pub offset: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl ParseError {
    fn new(code: &'static str, offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            code,
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one complete JSON document from `bytes`.
///
/// # Errors
/// [`ParseError`] on invalid UTF-8, grammar violations, duplicate keys,
/// non-finite numbers, excessive nesting, or trailing bytes.
pub fn parse(bytes: &[u8]) -> Result<Json, ParseError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ParseError::new("bad_json", e.valid_up_to(), "frame is not valid UTF-8"))?;
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::new(
            "bad_json",
            p.pos,
            "trailing bytes after the JSON document",
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(
                "bad_json",
                self.pos,
                format!("expected '{}'", byte as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(ParseError::new(
                "bad_json",
                self.pos,
                format!("expected '{word}'"),
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth >= MAX_DEPTH {
            return Err(ParseError::new(
                "bad_json",
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(ParseError::new(
                "bad_json",
                self.pos,
                format!("unexpected byte 0x{c:02x}"),
            )),
            None => Err(ParseError::new(
                "bad_json",
                self.pos,
                "unexpected end of document",
            )),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(ParseError::new(
                    "bad_json",
                    key_offset,
                    format!("duplicate object key \"{key}\""),
                ));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => {
                    return Err(ParseError::new(
                        "bad_json",
                        self.pos,
                        "expected ',' or '}' in object",
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => {
                    return Err(ParseError::new(
                        "bad_json",
                        self.pos,
                        "expected ',' or ']' in array",
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(ParseError::new("bad_json", self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape_offset = self.pos;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(ParseError::new(
                                            "bad_json",
                                            escape_offset,
                                            "unpaired surrogate escape",
                                        ));
                                    }
                                    let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                None
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(ParseError::new(
                                        "bad_json",
                                        escape_offset,
                                        "invalid \\u escape",
                                    ))
                                }
                            }
                            continue;
                        }
                        _ => {
                            return Err(ParseError::new(
                                "bad_json",
                                escape_offset,
                                "invalid escape sequence",
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(ParseError::new(
                        "bad_json",
                        self.pos,
                        "unescaped control character in string",
                    ))
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar (input is validated).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).expect("validated UTF-8");
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => {
                    return Err(ParseError::new(
                        "bad_json",
                        self.pos,
                        "invalid hex digit in \\u escape",
                    ))
                }
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit run (no leading 0s).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(ParseError::new("bad_json", start, "invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::new("bad_json", start, "invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::new("bad_json", start, "invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral && !negative {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| ParseError::new("bad_json", start, "invalid number"))?;
        if !v.is_finite() {
            return Err(ParseError::new(
                "non_finite",
                start,
                format!("number '{text}' is not a finite f64"),
            ));
        }
        Ok(Json::Float(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj([
            ("name", Json::from("fig4")),
            ("cells", Json::from(12usize)),
            ("rate", Json::from(0.5f64)),
            ("ok", Json::from(true)),
            ("tags", Json::arr([Json::from("a"), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fig4","cells":12,"rate":0.5,"ok":true,"tags":["a",null]}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn accessors_read_parsed_documents() {
        let doc = parse(br#"{"a":{"n":3,"x":2.5,"s":"hi","b":true},"f":4.0}"#).expect("parses");
        assert_eq!(doc["a"]["n"].as_u64(), Some(3));
        assert_eq!(doc["a"]["n"].as_f64(), Some(3.0));
        assert_eq!(doc["a"]["x"].as_f64(), Some(2.5));
        assert_eq!(doc["a"]["x"].as_u64(), None);
        assert_eq!(doc["a"]["s"].as_str(), Some("hi"));
        assert_eq!(doc["a"]["b"].as_bool(), Some(true));
        assert_eq!(doc["f"].as_f64(), Some(4.0));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc["missing"]["deeper"], Json::Null);
        assert_eq!(Json::UInt(1).get("a"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    fn round_trips_the_writer_output() {
        let doc = Json::obj([
            ("name", Json::from("fig4")),
            ("cells", Json::from(12usize)),
            ("rate", Json::from(0.5f64)),
            ("ok", Json::from(true)),
            ("tags", Json::arr([Json::from("a"), Json::Null])),
            ("big", Json::from(u64::MAX)),
        ]);
        assert_eq!(parse(doc.render().as_bytes()).expect("parses"), doc);
    }

    #[test]
    fn splits_uint_and_float_like_the_writer() {
        assert_eq!(parse(b"7").unwrap(), Json::UInt(7));
        assert_eq!(parse(b"0").unwrap(), Json::UInt(0));
        assert_eq!(parse(b"-7").unwrap(), Json::Float(-7.0));
        assert_eq!(parse(b"7.5").unwrap(), Json::Float(7.5));
        assert_eq!(parse(b"1e3").unwrap(), Json::Float(1000.0));
        // Integers beyond u64 degrade to floats instead of erroring.
        assert_eq!(
            parse(b"18446744073709551616").unwrap(),
            Json::Float(18446744073709551616.0)
        );
    }

    #[test]
    fn rejects_non_finite_numbers_with_dedicated_code() {
        for doc in ["1e999", "-1e999", "1.8e308"] {
            let err = parse(doc.as_bytes()).expect_err(doc);
            assert_eq!(err.code, "non_finite", "{doc}");
        }
        // Non-finite spellings are not JSON at all.
        for doc in ["NaN", "Infinity", "-Infinity"] {
            let err = parse(doc.as_bytes()).expect_err(doc);
            assert_eq!(err.code, "bad_json", "{doc}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_and_trailing_bytes() {
        assert_eq!(parse(br#"{"a":1,"a":2}"#).unwrap_err().code, "bad_json");
        assert!(parse(br#"{"a":1,"a":2}"#)
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse(b"1 2").unwrap_err().message.contains("trailing"));
        assert!(parse(b"{\"a\":1}x").is_err());
    }

    #[test]
    fn rejects_grammar_violations() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "'single'",
            "{,}",
            "[1,]",
            "{\"a\":1,}",
        ] {
            assert!(parse(doc.as_bytes()).is_err(), "must reject {doc:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep_ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(deep_ok.as_bytes()).is_ok());
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(too_deep.as_bytes()).is_err());
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse(br#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap(),
            Json::Str("a\"b\\c\ndA\u{1F600}".to_string())
        );
        assert!(parse("\"π→∞\"".as_bytes()).is_ok());
        assert!(parse(b"\"raw\ncontrol\"").is_err());
    }
}

#[cfg(test)]
mod fuzz {
    //! Property fuzzing: the parser must return `Err`, never panic, on
    //! arbitrary bytes, and parsing must be idempotent on its own output.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Bytes biased toward JSON-ish structure: raw bytes interleaved
    /// with JSON punctuation and digits, so the fuzz reaches deep into
    /// the grammar instead of failing at byte 0 every time.
    fn jsonish() -> impl Strategy<Value = Vec<u8>> {
        vec((any::<u8>(), 0..4usize), 0..64).prop_map(|pairs| {
            let glyphs: &[u8] = b"{}[]\",:0123456789.eE+-truefalsnl \t\n";
            pairs
                .into_iter()
                .map(|(raw, pick)| match pick {
                    0 => raw,
                    _ => glyphs[raw as usize % glyphs.len()],
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in jsonish()) {
            // Any outcome is fine; reaching this line on every input is
            // the property (no panic, no abort, no hang).
            let _ = parse(&bytes);
        }

        #[test]
        fn parse_is_idempotent_on_accepted_documents(bytes in jsonish()) {
            if let Ok(doc) = parse(&bytes) {
                let rendered = doc.render();
                let again = parse(rendered.as_bytes())
                    .expect("the writer's output always re-parses");
                prop_assert_eq!(
                    again.render(),
                    rendered,
                    "render → parse → render is a fixed point"
                );
            }
        }
    }
}
