//! A minimal JSON document builder.
//!
//! The workspace has no serialization dependency, and the snapshot schema is
//! small and stable, so we build documents from an explicit tree. The only
//! invariants that matter: strings are escaped, non-finite floats are clamped
//! to `0` (JSON has no NaN/Inf), and object keys keep insertion order so the
//! emitted artifacts diff cleanly across runs.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Render the tree as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(f) => {
                let f = if f.is_finite() { *f } else { 0.0 };
                let _ = write!(out, "{f}");
            }
            Json::Str(s) => escape_into(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parse a JSON document (the inverse of [`Json::render`], accepting
    /// anything standard). Built for reading artifacts back — a metrics
    /// snapshot in the tests, a Chrome trace export in the benchmark's span
    /// attribution — so it favours clear errors
    /// over speed.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match; our documents never repeat
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric variant as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// A non-negative integer variant as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs don't appear in our artifacts;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte-level continuation handling is safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
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
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Escape `s` as a JSON string literal (including the surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj(vec![
            ("name", "he said \"hi\"\n".into()),
            ("count", 3u64.into()),
            ("ratio", 0.5.into()),
            ("flags", Json::Arr(vec![true.into(), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"he said \"hi\"\n","count":3,"ratio":0.5,"flags":[true,null]}"#
        );
    }

    #[test]
    fn clamps_non_finite_floats() {
        assert_eq!(Json::F64(f64::NAN).render(), "0");
        assert_eq!(Json::F64(f64::INFINITY).render(), "0");
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(Json::Str("\u{1}".to_string()).render(), "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj(vec![
            ("name", "he said \"hi\"\n".into()),
            ("count", 3u64.into()),
            ("neg", Json::I64(-7)),
            ("ratio", 0.5.into()),
            ("flags", Json::Arr(vec![true.into(), Json::Null])),
            ("nested", Json::obj(vec![("k", "v".into())])),
        ]);
        let parsed = Json::parse(&doc.render()).expect("parse back");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = parsed.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(25.0));
        assert_eq!(arr[2].as_str(), Some("A\t"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = Json::parse(r#"{"meta":{"cores":4},"cells":[{"p99":12.5}]}"#).unwrap();
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("cores"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells[0].get("p99").unwrap().as_f64(), Some(12.5));
        assert_eq!(doc.get("absent"), None);
    }
}
