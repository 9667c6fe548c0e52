//! A minimal, zero-dependency JSON value with an emitter and a parser.
//!
//! The observability layer ([`crate::trace`], run reports) emits JSON for
//! external tools (Perfetto, CI gates, plotting scripts). The repo's policy
//! is to keep the engine dependency-free, so this module hand-rolls the
//! little JSON that is needed instead of pulling in serde:
//!
//! * **Objects preserve insertion order** (they are association lists, not
//!   hash maps), so emitted documents are deterministic and diffable.
//! * **Non-finite floats render as `null`** — JSON has no NaN/Infinity, and
//!   `null` is what browsers' `JSON.stringify` does. The parser therefore
//!   round-trips every *finite* float exactly (Rust's `{}` formatting of
//!   `f64` is shortest-round-trip), while NaN/±Inf degrade to [`Json::Null`].
//! * The parser exists so tests and the `experiments` binary can validate
//!   what was emitted; it accepts standard JSON (with `\uXXXX` escapes and
//!   surrogate pairs) and rejects everything else with a byte offset.

use std::fmt;

/// Recursion limit for the parser (and the depth of emitted documents is far
/// below it): protects against pathological inputs in tests/CI.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the rendering of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. JSON has one number type; integers round-trip exactly up
    /// to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered association list (insertion order is
    /// preserved when rendering).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value (convenience constructor).
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// A number from anything convertible to `f64`. Values above 2^53 (never
    /// produced by this repo's counters) lose precision, as in any JSON.
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// A number from a `usize` counter.
    #[expect(
        clippy::cast_precision_loss,
        reason = "documented above: JSON numbers are f64, counters beyond 2^53 round"
    )]
    pub fn num_usize(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// A number from a `u64` counter. Identifiers rendered through this must
    /// be kept at or below 2^53 by the caller (the serving layer refuses
    /// larger ranking ids): above it the value rounds to a neighbour.
    #[expect(
        clippy::cast_precision_loss,
        reason = "documented above: JSON numbers are f64, counters beyond 2^53 round"
    )]
    pub fn num_u64(n: u64) -> Self {
        Json::Num(n as f64)
    }

    /// An empty object to be filled with [`Json::push`].
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object; no-op on non-objects (callers build
    /// objects with [`Json::obj`], this keeps the builder infallible).
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value));
        } else {
            debug_assert!(false, "Json::push on a non-object");
        }
    }

    /// Builder-style [`Json::push`].
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.push(key, value);
        self
    }

    /// Looks up a field of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_precision_loss,
                clippy::cast_sign_loss,
                reason = "2^53 is exactly representable; the guard makes the f64 → u64 cast exact"
            )]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if the value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out);
        out
    }

    /// Renders into an existing buffer.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
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

    /// Parses JSON text into a value.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the top-level value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    if n.is_finite() {
        // Rust's `{}` for f64 is the shortest representation that parses
        // back to the same bits — exactly what a round-tripping emitter
        // needs — and it never produces exponent syntax JSON would reject.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Infinity; degrade like `JSON.stringify`.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write into a String is infallible"
                )]
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            // Non-ASCII passes through as UTF-8 (valid JSON).
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Consume one UTF-8 scalar. Only the scalar's own bytes
                    // are validated — re-validating the whole remaining
                    // input here would make string parsing quadratic.
                    let len = match b {
                        0x20..=0x7f => 1,
                        0xc2..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf4 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let end = self.pos + len;
                    let scalar = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|slice| std::str::from_utf8(slice).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(scalar);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::num(1.5).render(), "1.5");
        assert_eq!(Json::num_usize(42).render(), "42");
        assert_eq!(Json::str("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn object_order_is_preserved() {
        let obj = Json::obj()
            .with("z", Json::num_usize(1))
            .with("a", Json::num_usize(2));
        assert_eq!(obj.render(), "{\"z\":1,\"a\":2}");
        assert_eq!(obj.get("a"), Some(&Json::Num(2.0)));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn parses_what_it_renders() {
        let doc = Json::obj()
            .with("name", Json::str("cl-p/join — θ"))
            .with("values", Json::Arr(vec![Json::num(0.25), Json::Null]))
            .with("ok", Json::Bool(false));
        let text = doc.render();
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn parses_standard_escapes_and_surrogates() {
        assert_eq!(
            Json::parse("\"\\u00e9\\uD83D\\uDE00\\t\""),
            Ok(Json::Str("é😀\t".to_string()))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"\\x\"").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn accepts_exponents_and_negatives() {
        assert_eq!(Json::parse("-2.5e3"), Ok(Json::Num(-2500.0)));
        assert_eq!(Json::parse("1E-2"), Ok(Json::Num(0.01)));
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(Json::num_u64(7).as_u64(), Some(7));
        assert_eq!(Json::num(1.5).as_u64(), None);
        assert_eq!(Json::num(-1.0).as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..(MAX_DEPTH + 8) {
            text.push('[');
        }
        assert!(Json::parse(&text).is_err());
    }
}
