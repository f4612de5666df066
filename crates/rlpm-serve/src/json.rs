//! Minimal hand-rolled JSON value, parser, and renderer.
//!
//! The build environment is offline, so the server cannot pull in a JSON
//! dependency; this module implements exactly the subset the wire protocol
//! needs, and also writes the indented `BENCH_*.json` files
//! ([`Value::render_pretty`]). Two deliberate simplifications versus a
//! general-purpose library:
//!
//! * Objects preserve insertion order in a `Vec<(String, Value)>` so rendered
//!   responses are deterministic and diff-friendly in transcripts.
//! * Numbers are stored as `f64`. Integers are exact up to 2^53, far beyond
//!   any seed, lane count, or duration the protocol carries; [`Value::as_u64`]
//!   refuses values with a fractional part or outside that range.
//!
//! Parsing is recursive descent over bytes with a hard depth limit
//! ([`MAX_DEPTH`]) so a hostile deeply-nested line cannot overflow the stack.

use std::fmt;

/// Maximum nesting depth the parser accepts before returning
/// [`ParseError::TooDeep`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (see module docs for integer-exactness limits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value (convenience for response construction).
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a number value from an unsigned integer.
    pub fn num_u64(n: u64) -> Value {
        Value::Num(n as f64)
    }

    /// Borrows the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as an exact unsigned integer.
    ///
    /// `None` unless this is a number with no fractional part inside
    /// `0..=2^53` (the f64 exact-integer range).
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// Returns the boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows the elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up `key` in an object (first match wins); `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Renders this value as compact single-line JSON.
    ///
    /// Whole finite numbers render without a decimal point; non-finite
    /// numbers (which valid JSON cannot carry) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders this value as indented JSON for files people read: one
    /// member per line, two spaces per nesting level, `"key": value`,
    /// and `[]`/`{}` for empty containers. Scalars render as in
    /// [`Value::render`]; there is no trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// The one renderer: compact when `indent` is `None`, else indented
    /// with this value at nesting level `indent`.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) if n.is_finite() => {
                // Rust's shortest-roundtrip Display prints whole f64s
                // without a trailing ".0", which is exactly JSON's shape.
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                render_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Value::Obj(members) => render_members(
                out,
                indent,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Renders a container's members between its brackets, keyed for an
/// object: `,`-separated on one line, or each on its own line one level
/// deeper than the container's `indent`.
fn render_members<'a>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(open);
    let empty = members.len() == 0;
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            render_string(key, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
        }
        value.render_into(out, indent.map(|level| level + 1));
    }
    if let (Some(level), false) = (indent, empty) {
        newline(out, level);
    }
    out.push(close);
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a line failed to parse; carries the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An unexpected byte (or end of input) at the given offset.
    Unexpected(usize),
    /// A malformed number at the given offset.
    BadNumber(usize),
    /// A malformed string escape or raw control byte at the given offset.
    BadString(usize),
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep(usize),
    /// Valid JSON value followed by trailing garbage at the given offset.
    Trailing(usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Unexpected(at) => write!(f, "unexpected input at byte {at}"),
            ParseError::BadNumber(at) => write!(f, "malformed number at byte {at}"),
            ParseError::BadString(at) => write!(f, "malformed string at byte {at}"),
            ParseError::TooDeep(at) => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
            ParseError::Trailing(at) => write!(f, "trailing data after value at byte {at}"),
        }
    }
}

/// Parses one complete JSON value from `input`.
///
/// The whole input must be consumed (modulo surrounding whitespace);
/// anything left over is a [`ParseError::Trailing`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(ParseError::Trailing(p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, rest: &[u8], value: Value) -> Result<Value, ParseError> {
        for want in rest {
            if self.bump() != Some(*want) {
                return Err(ParseError::Unexpected(self.pos.saturating_sub(1)));
            }
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::TooDeep(self.pos));
        }
        match self.peek() {
            Some(b'n') => {
                self.pos += 1;
                self.expect_literal(b"ull", Value::Null)
            }
            Some(b't') => {
                self.pos += 1;
                self.expect_literal(b"rue", Value::Bool(true))
            }
            Some(b'f') => {
                self.pos += 1;
                self.expect_literal(b"alse", Value::Bool(false))
            }
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Value::Str)
            }
            Some(b'[') => {
                self.pos += 1;
                self.array(depth)
            }
            Some(b'{') => {
                self.pos += 1;
                self.object(depth)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(ParseError::Unexpected(self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(ParseError::Unexpected(self.pos));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if !self.eat(b'"') {
                return Err(ParseError::Unexpected(self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(ParseError::Unexpected(self.pos));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return Err(ParseError::Unexpected(self.pos));
            }
        }
    }

    /// Parses the body of a string; the opening quote is already consumed.
    fn string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            let at = self.pos;
            match self.bump() {
                None => return Err(ParseError::BadString(at)),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let esc_at = self.pos;
                    match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let c = self.unicode_escape(esc_at)?;
                            out.push(c);
                        }
                        _ => return Err(ParseError::BadString(esc_at)),
                    }
                }
                Some(b) if b < 0x20 => return Err(ParseError::BadString(at)),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str, so the bytes
                    // are valid — re-decode the sequence starting here.
                    let c = self.utf8_tail(first, at)?;
                    out.push(c);
                }
            }
        }
    }

    /// Decodes `\uXXXX`, pairing surrogates into one scalar.
    fn unicode_escape(&mut self, esc_at: usize) -> Result<char, ParseError> {
        let hi = self.hex4(esc_at)?;
        if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(ParseError::BadString(esc_at));
            }
            let lo = self.hex4(esc_at)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(ParseError::BadString(esc_at));
            }
            let scalar = 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(scalar).ok_or(ParseError::BadString(esc_at))
        } else if (0xDC00..=0xDFFF).contains(&hi) {
            Err(ParseError::BadString(esc_at))
        } else {
            char::from_u32(hi).ok_or(ParseError::BadString(esc_at))
        }
    }

    fn hex4(&mut self, esc_at: usize) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(ParseError::BadString(esc_at)),
            };
            v = (v << 4) | digit;
        }
        Ok(v)
    }

    /// Re-decodes a multi-byte UTF-8 sequence whose first byte was already
    /// consumed. Input came from a `&str`, so this cannot fail in practice;
    /// the error path keeps the function total.
    fn utf8_tail(&mut self, first: u8, at: usize) -> Result<char, ParseError> {
        let extra = match first {
            0xC0..=0xDF => 1,
            0xE0..=0xEF => 2,
            0xF0..=0xF7 => 3,
            _ => return Err(ParseError::BadString(at)),
        };
        let end = self.pos.saturating_add(extra);
        let slice = self
            .bytes
            .get(at..end.min(self.bytes.len()))
            .ok_or(ParseError::BadString(at))?;
        let s = std::str::from_utf8(slice).map_err(|_| ParseError::BadString(at))?;
        let c = s.chars().next().ok_or(ParseError::BadString(at))?;
        self.pos = end;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
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
        let slice = self
            .bytes
            .get(start..self.pos)
            .ok_or(ParseError::BadNumber(start))?;
        let text = std::str::from_utf8(slice).map_err(|_| ParseError::BadNumber(start))?;
        let n: f64 = text.parse().map_err(|_| ParseError::BadNumber(start))?;
        if !n.is_finite() {
            return Err(ParseError::BadNumber(start));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        match parse(text) {
            Ok(v) => v.render(),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-3.5"), "-3.5");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_preserve_order() {
        let text = "{\"b\":1,\"a\":[2,{\"c\":null}],\"d\":\"x\"}";
        assert_eq!(roundtrip(text), text);
    }

    #[test]
    fn render_pretty_indents_two_spaces_a_level() {
        let v = parse("{\"b\":1,\"a\":[2,{\"c\":null}],\"e\":[],\"o\":{},\"d\":\"x\"}").unwrap();
        let expected = r#"{
  "b": 1,
  "a": [
    2,
    {
      "c": null
    }
  ],
  "e": [],
  "o": {},
  "d": "x"
}"#;
        assert_eq!(v.render_pretty(), expected);
        assert_eq!(Value::num_u64(7).render_pretty(), "7");
    }

    #[test]
    fn whitespace_is_tolerated() {
        assert_eq!(roundtrip(" { \"k\" : [ 1 , 2 ] } "), "{\"k\":[1,2]}");
    }

    #[test]
    fn string_escapes_decode_and_reencode() {
        assert_eq!(roundtrip("\"a\\u0041\\n\\t\\\\\""), "\"aA\\n\\t\\\\\"");
        // Surrogate pair for U+1F600.
        let parsed = parse("\"\\ud83d\\ude00\"");
        assert_eq!(parsed, Ok(Value::Str("\u{1F600}".to_string())));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(roundtrip("\"caf\u{e9}\""), "\"caf\u{e9}\"");
    }

    #[test]
    fn control_bytes_are_escaped_on_render() {
        let v = Value::str("a\u{01}b");
        assert_eq!(v.render(), "\"a\\u0001b\"");
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(parse(""), Err(ParseError::Unexpected(0))));
        assert!(matches!(parse("{"), Err(ParseError::Unexpected(_))));
        assert!(matches!(parse("[1,]"), Err(ParseError::Unexpected(_))));
        assert!(matches!(parse("nul"), Err(ParseError::Unexpected(_))));
        assert!(matches!(parse("\"ab"), Err(ParseError::BadString(_))));
        assert!(matches!(parse("\"\\q\""), Err(ParseError::BadString(_))));
        assert!(matches!(
            parse("\"\\ud83d\""),
            Err(ParseError::BadString(_))
        ));
        assert!(matches!(parse("1 2"), Err(ParseError::Trailing(_))));
        assert!(matches!(parse("{\"a\":1} x"), Err(ParseError::Trailing(_))));
        assert!(matches!(parse("1e999"), Err(ParseError::BadNumber(_))));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(matches!(parse(&deep), Err(ParseError::TooDeep(_))));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integer_exactness_gate() {
        assert_eq!(
            parse("9007199254740992").ok().and_then(|v| v.as_u64()),
            Some(1 << 53)
        );
        assert_eq!(parse("1.5").ok().and_then(|v| v.as_u64()), None);
        assert_eq!(parse("-1").ok().and_then(|v| v.as_u64()), None);
    }

    #[test]
    fn get_walks_objects() {
        let v = match parse("{\"a\":{\"b\":7}}") {
            Ok(v) => v,
            Err(e) => panic!("parse failed: {e}"),
        };
        let inner = v.get("a").and_then(|a| a.get("b")).and_then(Value::as_u64);
        assert_eq!(inner, Some(7));
        assert!(v.get("missing").is_none());
    }
}
