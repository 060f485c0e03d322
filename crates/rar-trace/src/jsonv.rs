//! The workspace's one JSON reader and one JSON string escaper.
//!
//! The workspace deliberately carries no external dependencies, so every
//! JSON document it reads back — disk-cache entries, the campaign and
//! queue journals, job specs and status documents, run manifests, and
//! the Chrome traces the tests check — goes through [`parse`], and every
//! string it writes into JSON goes through [`escape`].
//!
//! [`parse`] accepts exactly RFC 8259 JSON in one pass and builds a
//! [`Value`] tree that borrows numbers and escape-free strings from the
//! input, so looking up a member never rescans text. Object keys must be
//! unique: a duplicate is an error, which the disk cache's strict decode
//! relies on. Nesting is capped at [`MAX_DEPTH`] so hostile input cannot
//! exhaust the stack. Every failure is a typed [`Error`] carrying the byte
//! offset where reading stopped; the reader never panics.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Objects up to this many members find a duplicate key by comparing
/// each new key with the earlier ones; larger objects sort their keys
/// once, so a hostile request body cannot make the check quadratic.
const LINEAR_KEY_CHECK: usize = 64;

/// A parsed JSON value, borrowing from the input text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its exact source token; the `as_*` accessors
    /// parse it on demand.
    Number(&'a str),
    /// A string with its escapes decoded (borrowed when it has none).
    String(Cow<'a, str>),
    /// An array's elements in source order.
    Array(Vec<Value<'a>>),
    /// An object's members in source order; keys are unique.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The member `key` of an object: `None` when absent or when `self`
    /// is not an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The decoded contents of a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A number whose exact token is a `u64` (no fraction, exponent or
    /// sign).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// A number whose exact token is an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// A number whose exact token is a `u128`.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        self.number()
    }

    /// Any number, as the nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Number(token) => token.parse().ok(),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start a value.
    UnexpectedByte(u8),
    /// A misspelled `true`, `false` or `null`.
    BadLiteral,
    /// A malformed number.
    BadNumber,
    /// An unknown escape sequence in a string.
    BadEscape,
    /// A `\u` escape without four hex digits.
    BadUnicodeEscape,
    /// An unescaped control character inside a string.
    ControlChar,
    /// An object member that does not start with a string key.
    ExpectedKey,
    /// A key not followed by `:`.
    ExpectedColon,
    /// An object member not followed by `,` or `}`.
    ExpectedCommaOrBrace,
    /// An array element not followed by `,` or `]`.
    ExpectedCommaOrBracket,
    /// A key that already occurred in the same object (reported at the
    /// repeated key, or at the end of an object with more than 64
    /// members).
    DuplicateKey,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Anything but whitespace after the document.
    TrailingData,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::UnexpectedEnd => f.write_str("unexpected end of input"),
            ErrorKind::UnexpectedByte(b) => write!(f, "unexpected byte {b:#04x}"),
            ErrorKind::BadLiteral => f.write_str("bad literal"),
            ErrorKind::BadNumber => f.write_str("bad number"),
            ErrorKind::BadEscape => f.write_str("bad escape"),
            ErrorKind::BadUnicodeEscape => f.write_str("bad \\u escape"),
            ErrorKind::ControlChar => f.write_str("raw control character in string"),
            ErrorKind::ExpectedKey => f.write_str("expected object key"),
            ErrorKind::ExpectedColon => f.write_str("expected ':'"),
            ErrorKind::ExpectedCommaOrBrace => f.write_str("expected ',' or '}'"),
            ErrorKind::ExpectedCommaOrBracket => f.write_str("expected ',' or ']'"),
            ErrorKind::DuplicateKey => f.write_str("duplicate object key"),
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            ErrorKind::TrailingData => f.write_str("trailing data"),
        }
    }
}

/// A [`parse`] failure: what went wrong, and the byte offset where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub kind: ErrorKind,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parses `input` as a single JSON document.
///
/// # Errors
///
/// The first defect found, with its byte offset.
pub fn parse(input: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
        members: Vec::new(),
        items: Vec::new(),
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.error(ErrorKind::TrailingData));
    }
    Ok(value)
}

/// Validates that `input` is a single well-formed JSON document.
///
/// # Errors
///
/// The [`parse`] error, rendered with its byte offset.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(drop).map_err(|e| e.to_string())
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short forms, and
/// every other control character becomes `\u00XX`. Borrows `s` when it
/// needs no escaping.
#[must_use]
pub fn escape(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    // Members and elements of the containers being read, innermost last.
    // Each finished container moves its tail into an exactly sized `Vec`,
    // so no container regrows while it is read.
    members: Vec<(Cow<'a, str>, Value<'a>)>,
    items: Vec<Value<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, kind: ErrorKind) -> Error {
        Error {
            offset: self.pos,
            kind,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Value<'a>, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(ErrorKind::UnexpectedByte(b))),
            None => Err(self.error(ErrorKind::UnexpectedEnd)),
        }
    }

    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value<'a>, Error>,
    ) -> Result<Value<'a>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(ErrorKind::TooDeep));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(ErrorKind::BadLiteral))
        }
    }

    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error(ErrorKind::BadNumber)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error(ErrorKind::BadNumber));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error(ErrorKind::BadNumber));
            }
        }
        Ok(Value::Number(&self.text[start..self.pos]))
    }

    fn object(&mut self) -> Result<Value<'a>, Error> {
        self.pos += 1; // '{'
        let base = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Vec::new()));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error(ErrorKind::ExpectedKey));
            }
            let key_at = self.pos;
            let key = self.string()?;
            let earlier = &self.members[base..];
            if earlier.len() < LINEAR_KEY_CHECK && earlier.iter().any(|(k, _)| *k == key) {
                return Err(Error {
                    offset: key_at,
                    kind: ErrorKind::DuplicateKey,
                });
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error(ErrorKind::ExpectedColon));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error(ErrorKind::ExpectedCommaOrBrace)),
            }
        }
        let members = self.members.split_off(base);
        if members.len() > LINEAR_KEY_CHECK {
            let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
            keys.sort_unstable();
            if keys.windows(2).any(|pair| pair[0] == pair[1]) {
                return Err(self.error(ErrorKind::DuplicateKey));
            }
        }
        Ok(Value::Object(members))
    }

    fn array(&mut self) -> Result<Value<'a>, Error> {
        self.pos += 1; // '['
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        loop {
            self.skip_ws();
            let value = self.value()?;
            self.items.push(value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(self.items.split_off(base)));
                }
                _ => return Err(self.error(ErrorKind::ExpectedCommaOrBracket)),
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.pos += 1; // opening quote
        let mut decoded: Option<String> = None;
        let mut run = self.pos; // start of the current escape-free run
        loop {
            match self.peek() {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = decoded.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    self.unescape(s)?;
                    run = self.pos;
                }
                Some(0x00..=0x1f) => return Err(self.error(ErrorKind::ControlChar)),
                Some(_) => self.pos += 1,
                None => return Err(self.error(ErrorKind::UnexpectedEnd)),
            }
        }
    }

    /// Decodes the escape after a backslash into `out`. A `\u` escape
    /// that is not a valid scalar value or surrogate pair decodes to
    /// U+FFFD, as RFC 8259 leaves lone surrogates to the reader.
    fn unescape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                let mut c = char::from_u32(unit);
                if (0xD800..0xDC00).contains(&unit) && self.text[self.pos..].starts_with("\\u") {
                    let resume = self.pos;
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        c = char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00));
                    } else {
                        self.pos = resume;
                    }
                }
                out.push(c.unwrap_or('\u{FFFD}'));
                return Ok(());
            }
            _ => return Err(self.error(ErrorKind::BadEscape)),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error(ErrorKind::BadUnicodeEscape))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e+3",
            "\"a \\\"quoted\\\" string\\u00e9\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"dur\":1}]}",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("rejected {doc:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "truefalse",
            "[1] []",
            "{\"a\":1,\"a\":2}",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"raw\ttab\"",
        ] {
            assert!(validate(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn errors_are_typed_with_their_offset() {
        for (doc, offset, kind) in [
            ("", 0, ErrorKind::UnexpectedEnd),
            ("[1,]", 3, ErrorKind::UnexpectedByte(b']')),
            ("{\"a\" 1}", 5, ErrorKind::ExpectedColon),
            ("{\"a\":1 \"b\":2}", 7, ErrorKind::ExpectedCommaOrBrace),
            ("nul", 0, ErrorKind::BadLiteral),
            ("-x", 1, ErrorKind::BadNumber),
            (
                "{\"k\": 1, \"j\": 2, \"k\": 3}",
                17,
                ErrorKind::DuplicateKey,
            ),
            ("{\"k\":1} x", 8, ErrorKind::TrailingData),
        ] {
            assert_eq!(parse(doc), Err(Error { offset, kind }), "{doc:?}");
        }
        // Past the linear check, a duplicate is found by sorting, at the
        // end of the object.
        let members: Vec<String> = (0..=LINEAR_KEY_CHECK)
            .map(|i| format!("\"k{i}\": {i}"))
            .collect();
        let big = format!("{{{}, \"k3\": 0}}", members.join(", "));
        assert_eq!(
            parse(&big),
            Err(Error {
                offset: big.len(),
                kind: ErrorKind::DuplicateKey
            })
        );
        let unique = format!("{{{}}}", members.join(", "));
        assert!(parse(&unique).is_ok());
    }

    #[test]
    fn members_are_looked_up_at_the_top_level_only() {
        let doc = parse(
            "{\"note\": \"\\\"id\\\": 9, }\", \"inner\": {\"id\": 7}, \"id\": 3, \
             \"list\": [1, \"two\"], \"ok\": true}",
        )
        .expect("parse");
        assert_eq!(doc.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(
            doc.get("note").and_then(Value::as_str),
            Some("\"id\": 9, }")
        );
        assert_eq!(
            doc.get("inner").and_then(|v| v.get("id")),
            Some(&Value::Number("7"))
        );
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        let list = doc.get("list").and_then(Value::as_array).expect("list");
        assert_eq!(list[1].as_str(), Some("two"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(list[0].get("id"), None, "non-objects have no members");
    }

    #[test]
    fn number_accessors_parse_the_exact_token() {
        fn n(token: &str) -> Value<'_> {
            parse(token).expect(token)
        }
        assert_eq!(n("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(n("18446744073709551616").as_u64(), None);
        assert_eq!(n("18446744073709551616").as_u128(), Some(1 << 64));
        assert_eq!(n("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!(n("-1").as_u64(), None);
        assert_eq!(n("1.0").as_u64(), None);
        assert_eq!(n("1e3").as_u64(), None);
        assert_eq!(n("1e3").as_f64(), Some(1000.0));
        assert_eq!(n("-0.25").as_f64(), Some(-0.25));
        assert_eq!(n("\"7\"").as_u64(), None, "strings are not numbers");
    }

    #[test]
    fn strings_decode_and_borrow_when_they_can() {
        let v = parse("[\"plain\", \"a\\\"b\\\\c\\/\\b\\f\\n\\r\\t\", \"\\u00e9\\ud83d\\ude00\", \"\\ud800x\"]")
            .expect("parse");
        let items = v.as_array().expect("array");
        assert!(matches!(items[0], Value::String(Cow::Borrowed("plain"))));
        assert_eq!(items[1].as_str(), Some("a\"b\\c/\u{8}\u{c}\n\r\t"));
        assert_eq!(items[2].as_str(), Some("é😀"));
        assert_eq!(items[3].as_str(), Some("\u{FFFD}x"), "lone surrogate");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        assert!(matches!(escape("plain"), Cow::Borrowed("plain")));
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\t\u{1}"), "line\\nbreak\\t\\u0001");
        let all: String = (0u8..0x80).map(char::from).chain("é😀".chars()).collect();
        let doc = format!("\"{}\"", escape(&all));
        assert_eq!(parse(&doc).expect("parse").as_str(), Some(all.as_str()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert_eq!(
            parse(&deep),
            Err(Error {
                offset: MAX_DEPTH,
                kind: ErrorKind::TooDeep
            })
        );
    }
}
