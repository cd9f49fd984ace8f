//! Offline stand-in for `serde_json`: serializes the workspace serde shim's
//! [`Value`] tree to JSON text and parses JSON text back.
//!
//! Covers the API this workspace uses — [`to_string`], [`to_string_pretty`],
//! [`from_str`] — with standard JSON syntax (string escapes, exponents,
//! `null`/`true`/`false`). Non-string map keys arrive here already encoded
//! as `[key, value]` pair arrays by the serde shim, so everything printed is
//! valid JSON.
//!
//! Parsing is linear in the input: every JSON reader in the tree (serve
//! request and reply lines, `MANIFEST.json`, the watch state) comes
//! through [`from_str`], and `tests/json_codec.rs` at the repository root
//! holds it to that.

pub use serde::Value;

use serde::{DeError, Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Serialization/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Compact JSON encoding.
///
/// # Errors
/// Never fails for tree-shaped values; `Result` kept for API parity.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Pretty-printed JSON encoding (two-space indent).
///
/// # Errors
/// Never fails for tree-shaped values; `Result` kept for API parity.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type.
///
/// # Errors
/// On malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_root(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
/// On malformed JSON.
pub fn value_from_str(text: &str) -> Result<Value, Error> {
    parse_value_root(text)
}

// ---------------------------------------------------------------- writing

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => push_fmt(out, format_args!("{n}")),
        Value::I64(n) => push_fmt(out, format_args!("{n}")),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(out, items.iter(), indent, depth, '[', ']', |o, x, d| {
            write_value(o, x, indent, d);
        }),
        Value::Map(entries) => write_seq(
            out,
            entries.iter(),
            indent,
            depth,
            '{',
            '}',
            |o, (k, x), d| {
                write_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, x, indent, d);
            },
        ),
    }
}

fn write_seq<I, F>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(&mut String, I::Item, usize),
{
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            push_indent(out, step * (depth + 1));
        }
        write_item(out, item, depth + 1);
    }
    if !empty {
        if let Some(step) = indent {
            push_indent(out, step * depth);
        }
    }
    out.push(close);
}

/// Formats straight into `out`, with no intermediate `String`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    // Writing into a `String` cannot fail.
    let _ = out.write_fmt(args);
}

/// A newline and `width` spaces of indent.
fn push_indent(out: &mut String, width: usize) {
    push_fmt(out, format_args!("\n{:width$}", ""));
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Keep integral floats readable and round-trippable.
            push_fmt(out, format_args!("{f:.1}"));
        } else {
            push_fmt(out, format_args!("{f}"));
        }
    } else {
        // JSON has no Infinity/NaN; match serde_json's strictness loosely
        // by emitting null.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_root(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Take the whole run up to the next `"` or `\` in one
                    // step. Both delimiters are ASCII, so a run cut from a
                    // &str is whole UTF-8, and validating just the run keeps
                    // the parse linear in the input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| Error::new("bad UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value_tree() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("exchange \"A\"\n".into())),
            ("count".into(), Value::U64(42)),
            ("scale".into(), Value::F64(0.25)),
            ("neg".into(), Value::I64(-3)),
            (
                "items".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let compact = to_string(&v).unwrap();
        assert_eq!(value_from_str(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(value_from_str(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  "));
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(u32, f64)> = vec![(1, 0.5), (2, 1.0)];
        let text = to_string_pretty(&pairs).unwrap();
        let back: Vec<(u32, f64)> = from_str(&text).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn errors_are_reported() {
        assert!(value_from_str("{").is_err());
        assert!(value_from_str("[1,]").is_err());
        assert!(value_from_str("12 34").is_err());
        assert!(from_str::<u32>("\"hi\"").is_err());
    }
}
