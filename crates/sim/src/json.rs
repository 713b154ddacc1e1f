//! A small, dependency-free JSON layer.
//!
//! The workspace serializes configs, fault plans, and experiment
//! manifests. Rather than pulling a serialization framework into an
//! offline-built tree, this module provides a [`Json`] value type, an
//! RFC 8259 parser and printer, and [`ToJson`]/[`FromJson`] traits with a
//! [`crate::json_fields!`] macro for the common named-field-struct case.
//!
//! Numbers are carried as `f64`; integers above 2^53 round-trip through a
//! decimal string instead so no value is silently corrupted.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// An error produced while parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Prefixes the error with decoding context (a field or type name).
    pub fn context(self, ctx: &str) -> Self {
        JsonError {
            msg: format!("{ctx}: {}", self.msg),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes the value under `key` in an object, with the key as error
    /// context. This is the workhorse of [`crate::json_fields!`].
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))?;
        T::from_json(v).map_err(|e| e.context(key))
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Writes the canonical compact form: object keys recursively
    /// sorted (byte-wise), no whitespace. Two structurally-equal values
    /// whose fields were built in different orders produce identical
    /// bytes. Unlike a sort-then-serialize round trip, this never
    /// clones the tree — only per-object index vectors are allocated.
    pub fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                out.push('{');
                for (i, &p) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, &pairs[p].0);
                    out.push(':');
                    pairs[p].1.write_canonical(out);
                }
                out.push('}');
            }
            other => other.write(out, None, 0),
        }
    }

    /// Serializes with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serializes compactly (no whitespace); `to_string()` comes for free.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a bound a corrupt
/// document of a few hundred kilobytes of `[` overflows the stack and
/// aborts the process. The deepest document the workspace writes is 7
/// levels (a traced report inside a cache entry's envelope).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
    /// Elements of the arrays still open, innermost last. A closing
    /// array moves its own elements out in one exact-size allocation, so
    /// no array grows by reallocation (stored reports hold tens of
    /// thousands of `[time, value]` pairs).
    items: Vec<Json>,
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
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::new(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.split_off(base)));
                }
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::new("invalid surrogate pair"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| JsonError::new("invalid codepoint"))?);
                        }
                        _ => return Err(JsonError::new("unknown escape")),
                    }
                }
                _ => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| JsonError::new("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    /// Consumes a run of decimal digits, appending them to `mantissa`
    /// (wrapping: only runs short enough to be exact are used), and
    /// returns how many there were.
    fn digits(&mut self, mantissa: &mut u64) -> usize {
        let from = self.pos;
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        self.pos - from
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        const POW10: [f64; 16] = [
            1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
        ];
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // A plain `-?digits(.digits)?` of at most 15 digits has an exact
        // integer mantissa and an exact power-of-ten divisor, so one
        // correctly rounded division gives exactly the value `parse`
        // would (Clinger's fast path). Everything else goes to `parse`.
        let mut mantissa = 0u64;
        let int_digits = self.digits(&mut mantissa);
        let mut frac_digits = 0;
        if int_digits > 0
            && self.peek() == Some(b'.')
            && self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
            frac_digits = self.digits(&mut mantissa);
        }
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if plain && int_digits > 0 && int_digits + frac_digits < POW10.len() {
            let v = mantissa as f64 / POW10[frac_digits];
            return Ok(Json::Num(if neg { -v } else { v }));
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            // `write_num` never writes a value past the f64 range, so a
            // token that overflows to an infinity is corruption
            Ok(_) => Err(JsonError::new(format!("number `{text}` out of range"))),
            Err(_) => Err(JsonError::new(format!("invalid number `{text}`"))),
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Encodes `self` as JSON.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes `Self` from JSON.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected bool")),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

/// Integers round-trip exactly: values within f64's 2^53 integer window
/// are numbers, larger magnitudes are decimal strings.
macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let wide = *self as i128;
                if wide.unsigned_abs() <= (1u128 << 53) {
                    Json::Num(*self as f64)
                } else {
                    Json::Str(self.to_string())
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => {
                        if n.fract() != 0.0 {
                            return Err(JsonError::new(format!(
                                "expected integer, got {n}"
                            )));
                        }
                        let wide = *n as i128;
                        <$t>::try_from(wide).map_err(|_| {
                            JsonError::new(format!("{n} out of range"))
                        })
                    }
                    Json::Str(s) => s
                        .parse::<$t>()
                        .map_err(|_| JsonError::new(format!("bad integer `{s}`"))),
                    _ => Err(JsonError::new("expected integer")),
                }
            }
        }
    )*};
}

json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.context(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_arr().ok_or_else(|| JsonError::new("expected pair"))?;
        if items.len() != 2 {
            return Err(JsonError::new("expected 2-element array"));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new("expected triple"))?;
        if items.len() != 3 {
            return Err(JsonError::new("expected 3-element array"));
        }
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::new(format!("expected {N}-element array, got {n}")))
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named public
/// fields, mapping each field to an identically-named object key.
///
/// ```
/// use blitzcoin_sim::json::{FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, label: String }
/// blitzcoin_sim::json_fields!(P { x, label });
///
/// let p = P { x: 3, label: "a".into() };
/// let round = P::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
/// assert_eq!(round, p);
/// ```
#[macro_export]
macro_rules! json_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: v.field(stringify!($field))?),+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum, mapping each
/// variant to its name as a JSON string.
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $($ty::$variant => stringify!($variant)),+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    Some(other) => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant `{other}`",
                        stringify!($ty)
                    ))),
                    None => Err($crate::json::JsonError::new("expected string")),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_document() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"nested": true, "s": "hi\n\"q\""}, "n": null}"#;
        let v = Json::parse(text).unwrap();
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
        let pretty = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("truthy").is_err());
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error() {
        let deep = 1_000_000;
        let arrays = "[".repeat(deep) + &"]".repeat(deep);
        assert!(Json::parse(&arrays).is_err());
        let objects = r#"{"k":"#.repeat(deep) + "0" + &"}".repeat(deep);
        assert!(Json::parse(&objects).is_err());

        let ok = 100;
        let arrays = "[".repeat(ok) + "1" + &"]".repeat(ok);
        assert!(Json::parse(&arrays).is_ok());
        let objects = r#"{"k":"#.repeat(ok) + "1" + &"}".repeat(ok);
        assert!(Json::parse(&objects).is_ok());
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_bound).is_ok());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn big_integers_roundtrip_exactly() {
        let big: u64 = u64::MAX - 7;
        let j = big.to_json();
        assert!(matches!(j, Json::Str(_)));
        let back = u64::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, big);

        let small: u64 = 12345;
        assert_eq!(small.to_json(), Json::Num(12345.0));
    }

    #[test]
    fn integer_decode_rejects_fractions_and_overflow() {
        assert!(u32::from_json(&Json::Num(1.5)).is_err());
        assert!(u8::from_json(&Json::Num(300.0)).is_err());
        assert!(i64::from_json(&Json::Num(-2.0)).is_ok());
        assert!(u64::from_json(&Json::Num(-2.0)).is_err());
    }

    #[test]
    fn field_accessors() {
        let v = Json::parse(r#"{"x": 4}"#).unwrap();
        assert_eq!(v.field::<u32>("x").unwrap(), 4);
        assert!(v.field::<u32>("y").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u32,
        xs: Vec<i64>,
        name: String,
        opt: Option<f64>,
    }
    json_fields!(Demo { n, xs, name, opt });

    #[test]
    fn struct_macro_roundtrip() {
        let d = Demo {
            n: 7,
            xs: vec![-1, 0, 99],
            name: "tile".into(),
            opt: None,
        };
        let text = d.to_json().to_string_pretty();
        let back = Demo::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    json_unit_enum!(Mode { Fast, Slow });

    #[test]
    fn enum_macro_roundtrip() {
        let text = Mode::Slow.to_json().to_string();
        assert_eq!(text, "\"Slow\"");
        assert_eq!(
            Mode::from_json(&Json::parse(&text).unwrap()).unwrap(),
            Mode::Slow
        );
        assert!(Mode::from_json(&Json::Str("Medium".into())).is_err());
    }

    #[test]
    fn numbers_past_the_f64_range_are_errors() {
        for text in [
            "1e999",
            "-1e999",
            "[0, 2e308]",
            "{\"x\": -17976931348623159e292}",
        ] {
            assert!(Json::parse(text).is_err(), "`{text}` parsed");
        }
        // the largest finite values still parse
        assert_eq!(
            Json::parse("1.7976931348623157e308"),
            Ok(Json::Num(f64::MAX))
        );
        assert_eq!(
            Json::parse("-1.7976931348623157e308"),
            Ok(Json::Num(f64::MIN))
        );
    }

    #[test]
    fn numbers_parse_exactly_like_str_parse() {
        let digits = |rng: &mut crate::SimRng, n: usize| -> String {
            (0..n)
                .map(|_| char::from(b'0' + rng.range_u64(0..10) as u8))
                .collect()
        };
        crate::check::forall_seeded("json_number_parse", 0x150A, 0..3000, |rng| {
            let token = if rng.chance(0.3) {
                // a stored report's numbers: `write_num` output
                let mut out = String::new();
                let v = match rng.range_u64(0..3) {
                    0 => rng.range_u64(0..1 << 50) as f64,
                    1 => {
                        let scale = 10f64.powi(rng.range_i64(-6..8) as i32);
                        rng.unit_f64() * scale
                    }
                    _ => -rng.unit_f64() * 1e3,
                };
                write_num(&mut out, v);
                out
            } else {
                // any token the number scanner can consume
                let mut t = String::new();
                if rng.chance(0.3) {
                    t.push('-');
                }
                let n = rng.range_usize(0..20);
                t += &digits(rng, n);
                if rng.chance(0.5) {
                    t.push('.');
                    let n = rng.range_usize(0..20);
                    t += &digits(rng, n);
                }
                if rng.chance(0.2) {
                    t.push(if rng.chance(0.5) { 'e' } else { 'E' });
                    if rng.chance(0.5) {
                        t.push(if rng.chance(0.5) { '+' } else { '-' });
                    }
                    let n = rng.range_usize(0..4);
                    t += &digits(rng, n);
                }
                if !t.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                    t.insert(0, '0');
                }
                t
            };
            let same = match (Json::parse(&token), token.parse::<f64>()) {
                (Ok(Json::Num(a)), Ok(b)) => a.to_bits() == b.to_bits(),
                // past the f64 range `parse` gives an infinity and `Json`
                // an error
                (Err(_), Ok(b)) => !b.is_finite(),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            crate::ensure!(same, "`{token}` parses differently from str::parse");
            Ok(())
        });
    }

    #[test]
    fn nested_arrays_round_trip() {
        fn gen(rng: &mut crate::SimRng, depth: u32) -> Json {
            match rng.range_u64(0..if depth == 0 { 3 } else { 5 }) {
                0 => Json::Num(rng.range_i64(-1000..1000) as f64 / 8.0),
                1 => Json::Str(format!("s{}", rng.range_u64(0..100))),
                2 => Json::Null,
                3 => Json::Arr(
                    (0..rng.range_usize(0..5))
                        .map(|_| gen(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.range_usize(0..4))
                        .map(|k| (format!("k{k}"), gen(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
        crate::check::forall_seeded("json_nested_round_trip", 0xA77, 0..500, |rng| {
            let v = gen(rng, 5);
            crate::ensure!(Json::parse(&v.to_string()).as_ref() == Ok(&v), "{v}");
            crate::ensure!(Json::parse(&v.to_string_pretty()).as_ref() == Ok(&v), "{v}");
            Ok(())
        });
    }
}
