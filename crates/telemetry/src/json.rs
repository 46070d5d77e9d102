//! A minimal JSON document model, writer, and parser.
//!
//! The trace format in [`crate::trace`] is JSON Lines; the workspace
//! is offline-only (no serde), so this module hand-rolls the small
//! JSON subset the trace needs. Two deliberate extensions for `f64`
//! fidelity: non-finite numbers are written as the strings `"NaN"`,
//! `"inf"`, and `"-inf"`, and [`Json::as_f64`] reads them back —
//! finite values round-trip exactly because Rust's `Display` for
//! `f64` emits the shortest decimal form that parses to the same bits.

use ppep_types::{Error, Result};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when `self` is not an object or
    /// the key is absent.
    pub fn get(&self, key: &str) -> Result<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::InvalidInput(format!("trace json: missing key `{key}`"))),
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) | Json::Arr(_) => Err(
                Error::InvalidInput(format!("trace json: `{key}` lookup on a non-object")),
            ),
        }
    }

    /// The value as an `f64`, accepting the `"NaN"`/`"inf"`/`"-inf"`
    /// string spellings of non-finite numbers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for any other shape.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a type-check accessor: every other Json shape is the same type error"
    )]
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected number, got {other:?}"
            ))),
        }
    }

    /// The value as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-numbers, negatives, and
    /// non-integers.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a type-check accessor: every other Json shape is the same type error"
    )]
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => Ok(*v as u64),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected unsigned integer, got {other:?}"
            ))),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-integers.
    pub fn as_usize(&self) -> Result<usize> {
        usize::try_from(self.as_u64()?)
            .map_err(|_| Error::InvalidInput("trace json: integer out of usize range".into()))
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-booleans.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a type-check accessor: every other Json shape is the same type error"
    )]
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected bool, got {other:?}"
            ))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-strings.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a type-check accessor: every other Json shape is the same type error"
    )]
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected string, got {other:?}"
            ))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-arrays.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a type-check accessor: every other Json shape is the same type error"
    )]
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected array, got {other:?}"
            ))),
        }
    }

    /// Parses one JSON document (with nothing but whitespace after it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on malformed input.
    pub fn parse(src: &str) -> Result<Json> {
        let mut cur = Cursor {
            bytes: src.as_bytes(),
            pos: 0,
        };
        cur.skip_ws();
        let value = cur.value()?;
        cur.skip_ws();
        if cur.peek().is_some() {
            return Err(Error::InvalidInput(format!(
                "trace json: trailing bytes at offset {}",
                cur.pos
            )));
        }
        Ok(value)
    }
}

/// Appends `v` to `out` as a JSON token: the shortest exact decimal
/// for finite values, the quoted `"NaN"`/`"inf"`/`"-inf"` spellings
/// otherwise.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String is infallible"
)]
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String is infallible"
)]
pub fn push_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
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

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
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

    fn eat(&mut self, want: u8) -> Result<()> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            other => Err(Error::InvalidInput(format!(
                "trace json: expected `{}` at offset {}, got {other:?}",
                want as char,
                self.pos.saturating_sub(1),
            ))),
        }
    }

    fn eat_keyword(&mut self, rest: &str) -> Result<()> {
        for want in rest.bytes() {
            self.eat(want)?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::InvalidInput(format!(
                "trace json: unexpected {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                other => {
                    return Err(Error::InvalidInput(format!(
                        "trace json: expected `,` or `}}` in object, got {other:?}"
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                other => {
                    return Err(Error::InvalidInput(format!(
                        "trace json: expected `,` or `]` in array, got {other:?}"
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let digit = match self.bump() {
                                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                                other => {
                                    return Err(Error::InvalidInput(format!(
                                        "trace json: bad \\u escape digit {other:?}"
                                    )))
                                }
                            };
                            code = code * 16 + digit;
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => {
                                return Err(Error::InvalidInput(format!(
                                    "trace json: \\u{code:04x} is not a scalar value \
                                     (surrogate pairs are not supported)"
                                )))
                            }
                        }
                    }
                    other => {
                        return Err(Error::InvalidInput(format!(
                            "trace json: bad escape {other:?}"
                        )))
                    }
                },
                Some(byte) => {
                    // Re-assemble UTF-8 multibyte sequences by leaning
                    // on the source being a valid &str: collect the
                    // continuation bytes and decode the chunk.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let start = self.pos - 1;
                        while matches!(self.peek(), Some(b) if b & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        let chunk = self.bytes.get(start..self.pos).unwrap_or(&[]);
                        match std::str::from_utf8(chunk) {
                            Ok(s) => out.push_str(s),
                            Err(_) => {
                                return Err(Error::InvalidInput(
                                    "trace json: invalid UTF-8 in string".into(),
                                ))
                            }
                        }
                    }
                }
                None => {
                    return Err(Error::InvalidInput(
                        "trace json: unterminated string".into(),
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let chunk = self.bytes.get(start..self.pos).unwrap_or(&[]);
        std::str::from_utf8(chunk)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| {
                Error::InvalidInput(format!("trace json: malformed number at offset {start}"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, -2.5, "x"], "b": {"c": true, "d": null}, "e": false}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("b").unwrap().get("d").unwrap(), &Json::Null);
        assert!(!v.get("e").unwrap().as_bool().unwrap());
        assert!(v.get("missing").is_err());
    }

    #[test]
    fn f64_round_trips_exactly_including_nonfinite() {
        for v in [
            0.0,
            -0.0,
            0.1,
            2.0 / 3.0,
            1.4e9,
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert!(
                back == v || (back.is_nan() && v.is_nan()),
                "{v} -> {s} -> {back}"
            );
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        for s in ["plain", "with \"quotes\"", "tab\there", "new\nline", "μW·s"] {
            let mut out = String::new();
            push_str(&mut out, s);
            assert_eq!(Json::parse(&out).unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn malformed_documents_error() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "tru", "1.2.3", "[] []"] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn integer_accessors_validate() {
        assert_eq!(Json::parse("42").unwrap().as_u64().unwrap(), 42);
        assert!(Json::parse("-1").unwrap().as_u64().is_err());
        assert!(Json::parse("1.5").unwrap().as_u64().is_err());
        assert_eq!(Json::parse("7").unwrap().as_usize().unwrap(), 7);
    }
}
