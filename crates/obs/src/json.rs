//! JSON for the workspace: a serde-driven compact writer (trace lines,
//! the run manifest, served bodies, bench snapshots, the numbers in
//! `xmodel sweep` files) and a small recursive-descent parser (traces,
//! request bodies, snapshots) that needs no deserializer framework.

use serde::ser::{self, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialize any `Serialize` value to compact JSON.
///
/// The writer itself cannot fail (it appends to a `String`), but a
/// custom `Serialize` impl may report an error through `ser::Error`;
/// that degrades to `"null"` rather than panicking — the trace layer
/// must never take down an instrumented process.
pub fn to_string<T: Serialize>(value: &T) -> String {
    try_to_string(value).unwrap_or_else(|_| "null".to_string())
}

/// Serialize to compact JSON, surfacing any error a custom `Serialize`
/// impl reports instead of swallowing it.
pub fn try_to_string<T: Serialize>(value: &T) -> Result<String, Infallible> {
    let mut out = String::new();
    value.serialize(Writer { out: &mut out })?;
    Ok(out)
}

/// Escape and append a JSON string literal.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as this writer writes every JSON number: Rust's shortest
/// round-tripping `{v}` when finite, `null` otherwise. For hand-laid
/// JSON, such as `xmodel sweep`'s rows, that must match
/// [`to_string`]'s numbers byte for byte without a `String` per number.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/Inf; null keeps the line parseable.
        out.push_str("null");
    }
}

/// Error type for the writer; never actually produced.
#[derive(Debug)]
pub struct Infallible(String);

impl std::fmt::Display for Infallible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Infallible {}

impl ser::Error for Infallible {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Infallible(msg.to_string())
    }
}

struct Writer<'a> {
    out: &'a mut String,
}

/// Shared state for every compound (seq/map/struct) serializer.
pub struct Compound<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl Compound<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }
}

impl<'a> ser::Serializer for Writer<'a> {
    type Ok = ();
    type Error = Infallible;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Infallible> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), Infallible> {
        self.serialize_i64(v as i64)
    }

    fn serialize_i16(self, v: i16) -> Result<(), Infallible> {
        self.serialize_i64(v as i64)
    }

    fn serialize_i32(self, v: i32) -> Result<(), Infallible> {
        self.serialize_i64(v as i64)
    }

    fn serialize_i64(self, v: i64) -> Result<(), Infallible> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), Infallible> {
        self.serialize_u64(v as u64)
    }

    fn serialize_u16(self, v: u16) -> Result<(), Infallible> {
        self.serialize_u64(v as u64)
    }

    fn serialize_u32(self, v: u32) -> Result<(), Infallible> {
        self.serialize_u64(v as u64)
    }

    fn serialize_u64(self, v: u64) -> Result<(), Infallible> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), Infallible> {
        write_f64(self.out, v as f64);
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Infallible> {
        write_f64(self.out, v);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), Infallible> {
        write_escaped(self.out, &v.to_string());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Infallible> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), Infallible> {
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for b in v {
            ser::SerializeSeq::serialize_element(&mut seq, b)?;
        }
        ser::SerializeSeq::end(seq)
    }

    fn serialize_none(self) -> Result<(), Infallible> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Infallible> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), Infallible> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Infallible> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), Infallible> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Infallible> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Infallible> {
        self.out.push('{');
        write_escaped(self.out, variant);
        self.out.push(':');
        value.serialize(Writer { out: self.out })?;
        self.out.push('}');
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Infallible> {
        self.out.push('[');
        Ok(Compound {
            out: self.out,
            first: true,
            close: ']',
        })
    }

    fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, Infallible> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, Infallible> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, Infallible> {
        self.out.push('{');
        write_escaped(self.out, variant);
        self.out.push(':');
        self.serialize_seq(Some(len))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Infallible> {
        self.out.push('{');
        Ok(Compound {
            out: self.out,
            first: true,
            close: '}',
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<Compound<'a>, Infallible> {
        self.serialize_map(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, Infallible> {
        self.out.push('{');
        write_escaped(self.out, variant);
        self.out.push(':');
        self.serialize_map(Some(len))
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Infallible> {
        self.sep();
        value.serialize(Writer { out: self.out })
    }

    fn end(self) -> Result<(), Infallible> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Infallible> {
        ser::SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), Infallible> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Infallible> {
        ser::SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), Infallible> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Infallible> {
        ser::SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), Infallible> {
        self.out.push(self.close);
        self.out.push('}');
        Ok(())
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Infallible> {
        self.sep();
        // Keys must be strings in JSON; serialize then re-wrap non-strings.
        let mut raw = String::new();
        key.serialize(Writer { out: &mut raw })?;
        if raw.starts_with('"') {
            self.out.push_str(&raw);
        } else {
            write_escaped(self.out, &raw);
        }
        self.out.push(':');
        Ok(())
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Infallible> {
        value.serialize(Writer { out: self.out })
    }

    fn end(self) -> Result<(), Infallible> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Infallible> {
        self.sep();
        write_escaped(self.out, key);
        self.out.push(':');
        value.serialize(Writer { out: self.out })
    }

    fn end(self) -> Result<(), Infallible> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = Infallible;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Infallible> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }

    fn end(self) -> Result<(), Infallible> {
        self.out.push(self.close);
        self.out.push('}');
        Ok(())
    }
}

/// A parsed JSON value, as read back by `trace-report`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as f64; trace values fit exactly)
    Number(f64),
    /// String
    Str(String),
    /// Array
    Array(Vec<JsonValue>),
    /// Object, in key order
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric content truncated to u64.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|f| f as u64)
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a body of a few thousand `[` bytes
/// overflows the stack and takes the whole process down; the deepest
/// document the workspace writes nests three levels.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing whitespace is allowed. Nesting
/// deeper than [`MAX_DEPTH`] is an error naming the byte offset.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            c as char,
            pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences intact).
                // `pos` only ever advances by whole chars, so it sits on
                // a char boundary of the already-valid input.
                let c = text
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        map.insert(key, parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Point {
        x: f64,
        y: f64,
        label: String,
    }

    #[derive(Serialize)]
    enum Shape {
        Unit,
        Newtype(f64),
        Tuple(i32, i32),
        Struct { w: u32 },
    }

    #[test]
    fn scalars() {
        assert_eq!(to_string(&42i32), "42");
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&2.5f64), "2.5");
        assert_eq!(to_string(&"hi"), "\"hi\"");
        assert_eq!(to_string(&Option::<i32>::None), "null");
        assert_eq!(to_string(&Some(7)), "7");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(to_string(&"a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string(&'\u{1}'), "\"\\u0001\"");
    }

    #[test]
    fn structs_and_vecs() {
        let p = Point {
            x: 1.0,
            y: -0.5,
            label: "σ'".into(),
        };
        assert_eq!(to_string(&p), "{\"x\":1,\"y\":-0.5,\"label\":\"σ'\"}");
        assert_eq!(to_string(&vec![1, 2, 3]), "[1,2,3]");
        assert_eq!(to_string(&(1, "a")), "[1,\"a\"]");
    }

    #[test]
    fn enums() {
        assert_eq!(to_string(&Shape::Unit), "\"Unit\"");
        assert_eq!(to_string(&Shape::Newtype(2.0)), "{\"Newtype\":2}");
        assert_eq!(to_string(&Shape::Tuple(1, 2)), "{\"Tuple\":[1,2]}");
        assert_eq!(to_string(&Shape::Struct { w: 9 }), "{\"Struct\":{\"w\":9}}");
    }

    #[test]
    fn maps_with_non_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(1u32, "one");
        m.insert(2u32, "two");
        assert_eq!(to_string(&m), "{\"1\":\"one\",\"2\":\"two\"}");
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("100,000 levels must be refused");
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("{{\"a\":{at_cap}}}");
        assert!(parse(&past_cap).is_err());
    }

    #[test]
    fn long_strings_round_trip() {
        // A quarter MiB of ASCII, multibyte scalars and escapes. Each
        // character must cost O(1): re-validating the rest of the input
        // per character is quadratic, seconds at this size.
        let unit = "ab\"c\\d\ne\tf/é€😀\u{1}";
        let s = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(s.len() >= 256 * 1024);
        let doc = format!("{{\"body\": {}}}", to_string(&s));
        let parsed = parse(&doc).expect("document parses");
        assert_eq!(
            parsed.get("body").and_then(JsonValue::as_str),
            Some(s.as_str())
        );
    }
}
