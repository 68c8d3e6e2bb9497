//! Minimal hand-rolled JSON: an escaper for rendering and a strict
//! recursive-descent parser for schema validation in tests.
//!
//! The workspace bans external dependencies, so the `uwb-telemetry-v3`
//! documents are rendered by hand and validated with this parser. The
//! parser is deliberately strict: no `NaN`/`Infinity` tokens, no trailing
//! commas, no comments — if a renderer leaks a non-finite float the schema
//! test fails to parse.

/// Renders `s` as a JSON string literal **including** the surrounding
/// quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; always finite — the grammar has no
    /// `NaN`/`Infinity` tokens).
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' at end of input", b as char)),
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
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape in string".to_string()),
                },
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control character 0x{b:02x} in string at byte {}",
                        self.pos - 1
                    ))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: find the full sequence.
                    let start = self.pos - 1;
                    let len = if b >= 0xf0 {
                        4
                    } else if b >= 0xe0 {
                        3
                    } else {
                        2
                    };
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8 in string".to_string());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Consumes one or more digits; errors (naming `part`) if there are none.
    fn digits(&mut self, part: &str) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit in {part} at byte {start}"));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — the JSON
    /// number grammar: no leading zeros, and at least one digit after the
    /// sign, the point and the exponent marker.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("leading zero in number at byte {start}"));
            }
        } else {
            self.digits("the integer part")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("the fraction")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("the exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{text}' at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(out)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if out.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key \"{key}\" at byte {key_at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(out)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("abc"), "\"abc\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("a\nb"), "\"a\\nb\"");
        assert_eq!(escape("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn parse_roundtrips_basic_document() {
        let doc = r#"{"name":"rake","calls":12,"arr":[1,2.5,-3e2],"ok":true,"n":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("rake"));
        assert_eq!(v.get("calls").unwrap().as_num(), Some(12.0));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_num(), Some(-300.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap(), &Json::Null);
    }

    #[test]
    fn parse_escaped_strings() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
        // Round-trip through escape().
        let s = "weird \"chars\"\n\ttab \\ slash";
        assert_eq!(parse(&escape(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn parse_rejects_nan_inf_and_garbage() {
        assert!(parse("NaN").is_err());
        assert!(parse("Infinity").is_err());
        assert!(parse("-Infinity").is_err());
        assert!(parse("{\"a\":NaN}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1,2],").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\"").is_err());
    }

    #[test]
    fn numbers_and_strings_follow_the_json_grammar() {
        let accepted: [(&str, Json); 11] = [
            ("0", Json::Num(0.0)),
            ("-0", Json::Num(-0.0)),
            ("0.5", Json::Num(0.5)),
            ("-0.5", Json::Num(-0.5)),
            ("10", Json::Num(10.0)),
            ("1e3", Json::Num(1000.0)),
            ("1E+3", Json::Num(1000.0)),
            ("1.5e-2", Json::Num(0.015)),
            ("-12.25E2", Json::Num(-1225.0)),
            ("0e0", Json::Num(0.0)),
            ("\"a\\nb\"", Json::Str("a\nb".to_string())),
        ];
        for (doc, want) in accepted {
            assert_eq!(parse(doc), Ok(want), "{doc:?} must parse");
        }
        let rejected = [
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            ".5",
            "-",
            "1e",
            "1e+",
            "1.e3",
            "[01]",
            "{\"a\":1.}",
            "\"a\nb\"",
            "\"\t\"",
            "\"\u{1}\"",
            "\"\u{1f}\"",
        ];
        for doc in rejected {
            assert!(
                parse(doc).is_err(),
                "{doc:?} must be rejected, got {:?}",
                parse(doc)
            );
        }
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse(r#"{"a":{"b":1,"b":2}}"#).is_err());
        // Same key at different nesting depths is fine.
        assert!(parse(r#"{"a":{"a":1},"b":[{"a":2},{"a":3}]}"#).is_ok());
    }

    #[test]
    fn parse_unicode_passthrough() {
        let v = parse("\"π ≈ 3.14159\"").unwrap();
        assert_eq!(v.as_str(), Some("π ≈ 3.14159"));
    }
}
