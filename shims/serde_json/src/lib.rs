//! Offline stand-in for `serde_json`.
//!
//! Works against the shim `serde`'s [`Value`] tree: serialization renders
//! the tree as JSON text, deserialization parses JSON text into a tree and
//! hands it to `Deserialize::from_value`. Covers the subset this workspace
//! uses: `to_string`, `to_string_pretty`, `to_writer`, `from_str`,
//! `from_reader`, and the `Value` type itself.

use serde::{Deserialize, Serialize};

pub use serde::Value;

/// Error produced while rendering or parsing JSON.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error(e.to_string())
    }
}

/// `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------- writing

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialize `value` as compact JSON into `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = x.to_string();
        out.push_str(&s);
        // Keep floats recognisable as floats on re-parse.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // Real serde_json emits null for non-finite floats.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

/// Deserialize a value of type `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value_complete(s)?;
    Ok(T::from_value(&value)?)
}

/// Deserialize a value of type `T` from an IO reader.
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

/// Deepest nesting of arrays and objects the parser accepts: the real
/// `serde_json`'s default recursion limit. The parser recurses once per
/// level, so without a cap one line of `[`s overflows the stack.
const MAX_DEPTH: usize = 128;

fn parse_value_complete(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(Error::new(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char,
                self.pos - 1,
                got as char
            ))),
            None => Err(Error::new(format!(
                "expected `{}`, got end of input",
                b as char
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid JSON at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of JSON input")),
        }
    }

    /// Run `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Seq(items)),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Map(entries)),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated string in JSON input")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(Error::new("invalid surrogate pair in JSON string"));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| Error::new("invalid unicode escape"))?
                        } else {
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid unicode escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(Error::new("invalid escape in JSON string")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input came from a &str, so the
                    // sequence is valid; re-decode it.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(Error::new("truncated UTF-8 in JSON string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in JSON string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| Error::new("truncated \\u escape in JSON string"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape in JSON string"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number in JSON input"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}` in JSON input")))
        } else if text.starts_with('-') {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("integer `{text}` out of range")))
        } else {
            text.parse::<u128>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("integer `{text}` out of range")))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(7)),
            (
                "b".into(),
                Value::Seq(vec![Value::Int(-3), Value::Float(1.5)]),
            ),
            ("c".into(), Value::Str("x \"y\"\nz".into())),
            ("d".into(), Value::Null),
            ("e".into(), Value::Bool(true)),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Float(2.0));
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the cap, unbalanced, and through objects too: an
        // error, never a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(20_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(20_000)).is_err());
        assert!(from_str::<Value>(&nest(100_000)).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
    }
}
