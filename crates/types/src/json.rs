//! Dependency-free JSON serialization for configs, stats, and reports.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so the workspace
//! carries its own small JSON layer: a [`JsonValue`] tree, a recursive-descent
//! parser, a compact and a pretty writer, and the [`ToJson`]/[`FromJson`]
//! traits every serializable type implements. The [`json_struct!`](crate::json_struct) and
//! [`json_unit_enum!`](crate::json_unit_enum) macros generate the mechanical
//! field-by-field impls, mirroring what `#[derive(Serialize, Deserialize)]`
//! used to produce — same field names, so previously emitted JSON artifacts
//! stay readable.

use crate::PpfError;
use std::fmt;
use std::path::Path;

/// Errors from parsing or decoding JSON; the payload describes the problem.
pub type JsonError = String;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as u64 if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            JsonValue::Int(v) if v >= 0 => Some(v as u64),
            JsonValue::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as i64 if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::UInt(v) if v <= i64::MAX as u64 => Some(v as i64),
            JsonValue::Int(v) => Some(v),
            JsonValue::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// Numeric value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::UInt(v) => Some(v as f64),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a JSON document. Rejects trailing non-whitespace.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Render with two-space indentation and newlines.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    // Keep floats recognisable as floats on re-parse.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        item.write(out, Some(level + 1));
                    } else {
                        item.write(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        write_escaped(out, k);
                        out.push_str(": ");
                        v.write(out, Some(level + 1));
                    } else {
                        write_escaped(out, k);
                        out.push(':');
                        v.write(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(JsonValue::Bool(true))
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our payloads;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
            .map_err(|_| "invalid number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("invalid number '{text}'"))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(JsonValue::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(JsonValue::Int(i))
        } else {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("invalid number '{text}'"))
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Types that can render themselves as JSON.
pub trait ToJson {
    /// Convert to a JSON tree.
    fn to_json(&self) -> JsonValue;

    /// Compact single-line JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Indented multi-line JSON text.
    fn to_json_pretty(&self) -> String {
        self.to_json().pretty()
    }
}

/// Types that can reconstruct themselves from JSON.
pub trait FromJson: Sized {
    /// Decode from a JSON tree.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError>;

    /// Parse and decode in one step.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&JsonValue::parse(s)?)
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
                let raw = v.as_u64().ok_or_else(|| format!(
                    "expected unsigned integer, got {v}"
                ))?;
                <$ty>::try_from(raw).map_err(|_| format!(
                    "integer {raw} out of range for {}", stringify!($ty)
                ))
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                let v = *self as i64;
                if v >= 0 {
                    JsonValue::UInt(v as u64)
                } else {
                    JsonValue::Int(v)
                }
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
                let raw = v.as_i64().ok_or_else(|| format!(
                    "expected integer, got {v}"
                ))?;
                <$ty>::try_from(raw).map_err(|_| format!(
                    "integer {raw} out of range for {}", stringify!($ty)
                ))
            }
        }
    )+};
}
impl_json_int!(i8, i16, i32, i64);

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| format!("expected number, got {v}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(format!("expected array, got {other}")),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Default + Copy, const N: usize> FromJson for [T; N] {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Array(items) => {
                if items.len() != N {
                    return Err(format!("expected array of length {N}, got {}", items.len()));
                }
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_json(item)?;
                }
                Ok(out)
            }
            other => Err(format!("expected array, got {other}")),
        }
    }
}

/// Replace the file at `path` with `text` atomically: the text goes to a
/// sibling named after the file plus `.tmp`, which is then renamed into
/// place, so neither a reader nor a crash mid-write leaves a torn file.
/// Every document, cell file and JSONL stream the harness writes goes
/// through here. An error names `path`.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), PpfError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| PpfError::io(e.to_string()).context(format!("writing {}", path.display())))
}

/// Generate [`ToJson`]/[`FromJson`] for a struct with named public fields.
/// Field names become JSON keys, matching serde's derive output.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(
                        v.get(stringify!($field)).ok_or_else(|| format!(
                            "missing field `{}` in {}",
                            stringify!($field),
                            stringify!($ty)
                        ))?,
                    )?),+
                })
            }
        }
    };
}

/// Generate [`ToJson`]/[`FromJson`] for a fieldless enum, encoding variants
/// as their name strings (serde's default unit-variant encoding).
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Str(
                    match self {
                        $($ty::$variant => stringify!($variant)),+
                    }
                    .to_string(),
                )
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    Some(other) => Err(format!(
                        "unknown {} variant `{other}`",
                        stringify!($ty)
                    )),
                    None => Err(format!(
                        "expected string for {}, got {v}",
                        stringify!($ty)
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_the_file_and_names_the_path_on_error() {
        let dir = std::env::temp_dir().join(format!("ppf-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, "old").unwrap();
        write_atomic(&path, "new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert!(!dir.join("doc.json.tmp").exists(), "no temp file left");
        let missing = dir.join("absent").join("doc.json");
        let err = write_atomic(&missing, "x").unwrap_err();
        assert!(
            err.to_string().contains(&missing.display().to_string()),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" 42 ").unwrap(), JsonValue::UInt(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(
            JsonValue::parse("\"hi\\nthere\"").unwrap(),
            JsonValue::Str("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        match v.get("a").unwrap() {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b").unwrap().as_bool(), Some(false));
            }
            other => panic!("expected array, got {other}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("{\"a\": 1,}").is_err());
        assert!(JsonValue::parse("[1, 2] trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn compact_round_trips() {
        let src = r#"{"name":"mcf","counts":[1,2,3],"rate":0.25,"flag":true,"opt":null}"#;
        let v = JsonValue::parse(src).unwrap();
        let re = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn pretty_round_trips_and_indents() {
        let v = JsonValue::parse(r#"{"a": {"b": [1, 2]}}"#).unwrap();
        let pretty = v.pretty();
        assert!(pretty.contains("\n  \"a\""));
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn float_output_stays_a_float() {
        let s = JsonValue::Float(3.0).to_string();
        assert_eq!(s, "3.0");
        assert_eq!(JsonValue::parse(&s).unwrap(), JsonValue::Float(3.0));
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} done";
        let json = nasty.to_json().to_string();
        let back = String::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, nasty);
    }

    #[test]
    fn primitive_decode_errors_are_typed() {
        assert!(u8::from_json(&JsonValue::UInt(300)).is_err());
        assert!(u64::from_json(&JsonValue::Str("x".into())).is_err());
        assert!(bool::from_json(&JsonValue::UInt(1)).is_err());
        assert!(<[u64; 4]>::from_json(&JsonValue::Array(vec![JsonValue::UInt(1)])).is_err());
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(None::<f64>.to_json(), JsonValue::Null);
        assert_eq!(Some(1.5f64).to_json(), JsonValue::Float(1.5));
        assert_eq!(Option::<f64>::from_json(&JsonValue::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_json(&JsonValue::Float(0.5)).unwrap(),
            Some(0.5)
        );
    }
}
