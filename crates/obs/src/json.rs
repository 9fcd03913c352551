//! The workspace's one JSON codec, without a serde dependency.
//!
//! * **Writing.** [`JsonWriter`] streams a document into one `String`,
//!   placing the commas and escaping strings; it builds no value tree.
//!   Every durable record and report is written with it.
//! * **Reading.** [`parse`] is strict. Decoders read fields with
//!   [`JsonValue::req`] / [`JsonValue::opt`] and one `to_*` converter
//!   per type, so a bad field always reads "`key`: expected ..., found
//!   ...", and each caller maps that into its own error type.
//! * **Exactness.** Numbers parse as `f64`, so integer converters take
//!   only what a double holds exactly: an unsigned field rejects
//!   negative, fractional and unsafe (≥ 2^53) numbers, a signed one
//!   fractional and unsafe ones, and `to_u32` anything above
//!   `u32::MAX`. No number is cast with `as` before it is checked.
//!
//! Chrome traces are one more document in this codec:
//! [`crate::Obs::chrome_trace`] writes them with [`JsonWriter`] and
//! [`crate::decode_chrome_trace`] reads them with these readers.

use std::fmt::Write as _;

/// Maximum container nesting the parser accepts. Our exporters emit
/// depth ≤ 4; the limit exists so adversarial input (a few kilobytes
/// of `[`) exhausts an error path instead of the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads the required field `key` of an object with `read` (one of
    /// the `to_*` converters or a closure over them). Errors read
    /// "missing `key`" or "`key`: <what read found wrong>".
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a JsonValue) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt(key, read)?.ok_or_else(|| format!("missing `{key}`"))
    }

    /// [`JsonValue::req`] for an optional field: an absent key is
    /// `Ok(None)`, a present one must read cleanly.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a JsonValue) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(key).map(|v| read(v).map_err(|e| format!("`{key}`: {e}"))).transpose()
    }

    /// Reads every element of an array with `read`; errors name the
    /// element's position.
    pub fn items<'a, T>(
        &'a self,
        mut read: impl FnMut(&'a JsonValue) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.to_arr()?.iter().enumerate();
        items.map(|(i, v)| read(v).map_err(|e| format!("item {i}: {e}"))).collect()
    }

    /// The value as a string.
    pub fn to_str(&self) -> Result<&str, String> {
        self.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// The value as an unsigned integer: negative, fractional and
    /// unsafe (≥ 2^53) numbers are errors.
    pub fn to_u64(&self) -> Result<u64, String> {
        match self.as_num() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n < SAFE_LIMIT => Ok(n as u64),
            _ => Err(self.expected("a non-negative integer below 2^53")),
        }
    }

    /// The value as a `u32`: [`JsonValue::to_u64`] range-checked.
    pub fn to_u32(&self) -> Result<u32, String> {
        self.to_u64()
            .ok()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| self.expected("an integer in 0..=4294967295"))
    }

    /// The value as a signed integer: fractional and unsafe (|n| ≥
    /// 2^53) numbers are errors.
    pub fn to_i64(&self) -> Result<i64, String> {
        match self.as_num() {
            Some(n) if n.fract() == 0.0 && n.abs() < SAFE_LIMIT => Ok(n as i64),
            _ => Err(self.expected("an integer of magnitude below 2^53")),
        }
    }

    /// The value as a float (any JSON number).
    pub fn to_f64(&self) -> Result<f64, String> {
        self.as_num().ok_or_else(|| self.expected("a number"))
    }

    /// The value as a boolean.
    pub fn to_bool(&self) -> Result<bool, String> {
        self.as_bool().ok_or_else(|| self.expected("a boolean"))
    }

    /// The value as an array's elements.
    pub fn to_arr(&self) -> Result<&[JsonValue], String> {
        self.as_arr().ok_or_else(|| self.expected("an array"))
    }

    /// The value as an object's fields, in source order.
    pub fn to_obj(&self) -> Result<&[(String, JsonValue)], String> {
        match self {
            JsonValue::Obj(fields) => Ok(fields),
            _ => Err(self.expected("an object")),
        }
    }

    /// The value as a string of hex digits (how 64-bit hashes travel:
    /// a JSON number cannot hold them exactly).
    pub fn to_hex(&self) -> Result<u64, String> {
        self.as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.expected("a hex string"))
    }

    /// "expected <what>, found <this value>". The found part ends in a
    /// backtick or a word, never a digit, so [`error_byte`] does not
    /// mistake a value for a parse offset.
    fn expected(&self, what: &str) -> String {
        let found = match self {
            JsonValue::Null => "`null`".to_string(),
            JsonValue::Bool(b) => format!("`{b}`"),
            JsonValue::Num(n) => format!("`{n}`"),
            JsonValue::Str(_) => "a string".to_string(),
            JsonValue::Arr(_) => "an array".to_string(),
            JsonValue::Obj(_) => "an object".to_string(),
        };
        format!("expected {what}, found {found}")
    }
}

/// 2^53: the integers an `f64` holds exactly are those below this in
/// magnitude.
const SAFE_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Parses a complete JSON document; trailing non-whitespace is an
/// error, as is any syntax deviation (this parser is strict on
/// purpose — it is the round-trip check for our own exporters).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(b) if b.is_ascii_digit() || *b == b'-' => parse_num(bytes, pos),
        Some(b) => Err(format!("unexpected byte '{}' at {}", *b as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    let num = text.parse::<f64>().map_err(|_| format!("bad number '{text}' at byte {start}"))?;
    // Rust's f64 parser follows IEEE semantics: overflow yields an
    // infinity (and underflow rounds to zero). JSON has no infinity,
    // so an overflowing literal is a hard error, not a silent inf.
    if !num.is_finite() {
        return Err(format!("number '{text}' overflows f64 at byte {start}"));
    }
    Ok(JsonValue::Num(num))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}' at byte {}", *pos))?;
                        // Surrogates are not paired up; our exporters
                        // never emit them, so reject rather than mangle.
                        let ch = char::from_u32(code).ok_or_else(|| {
                            format!("unpaired surrogate \\u{hex} at byte {}", *pos)
                        })?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("raw control byte in string at {}", *pos)),
            Some(_) => {
                // Copy the run up to the next quote, escape or control
                // byte. Those are ASCII, so the run ends on a char
                // boundary, and the input is a &str, so the run is valid
                // UTF-8. Validating only the run keeps parsing linear.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |i| *pos + i);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid utf-8".to_string())?;
                out.push_str(run);
                *pos = end;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// A streaming JSON writer: values and keys append to one `String`,
/// and the writer places the commas. It checks no nesting — callers
/// open and close containers in order — so [`JsonWriter::finish`] can
/// also hand back a deliberately unclosed prefix (a telemetry body
/// whose checksum footer closes it).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value or key follows a sibling and needs a
    /// comma.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a value: a comma if it follows a sibling.
    fn start(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_json(self);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one value.
    pub fn val<T: WriteJson + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Writes an object field: [`JsonWriter::key`] then
    /// [`JsonWriter::val`].
    pub fn field<T: WriteJson + ?Sized>(&mut self, key: &str, v: &T) -> &mut Self {
        self.key(key).val(v)
    }

    /// Opens an object.
    pub fn open_obj(&mut self) -> &mut Self {
        self.start().push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn open_arr(&mut self) -> &mut Self {
        self.start().push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an array with one `each` call per item (for items that
    /// are not [`WriteJson`] values themselves).
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.open_arr();
        for item in items {
            each(self, item);
        }
        self.close_arr()
    }

    /// Writes a 64-bit hash as a 16-digit hex string (read back with
    /// [`JsonValue::to_hex`]).
    pub fn hex64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.start(), "\"{v:016x}\"");
        self
    }

    /// Writes a float with exactly `decimals` digits after the point
    /// (`null` if non-finite, like every float).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        let out = self.start();
        let _ = if v.is_finite() { write!(out, "{v:.decimals$}") } else { out.write_str("null") };
        self
    }
}

/// A value [`JsonWriter`] writes: integers, shortest-form floats
/// (non-finite ones as `null`), bools, strings, and slices of these as
/// arrays.
pub trait WriteJson {
    /// Appends `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

macro_rules! write_json_display {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                let _ = write!(w.start(), "{self}");
            }
        }
    )*};
}

write_json_display!(u64, u32, usize, i64, bool);

impl WriteJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        if self.is_finite() {
            let _ = write!(w.start(), "{self}");
        } else {
            w.start().push_str("null");
        }
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        let out = w.start();
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_str().write_json(w);
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.arr(self, |w, v| {
            v.write_json(w);
        });
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// Extracts the byte offset embedded in this module's parse-error
/// messages ("... at byte N" / "... at N"), if present.
pub fn error_byte(message: &str) -> Option<usize> {
    let digits: String = message
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .map(str::to_string)
        .unwrap_or_default();
    if message.ends_with(&digits) && !digits.is_empty() {
        digits.parse().ok()
    } else {
        None
    }
}

/// Converts a byte offset into 1-based `(line, column)` coordinates
/// for diagnostics (column counts bytes, matching the parser).
pub fn line_col(text: &str, byte: usize) -> (usize, usize) {
    let byte = byte.min(text.len());
    let prefix = &text.as_bytes()[..byte];
    let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
    let col = byte - prefix.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1) + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(doc.get("d"), Some(&JsonValue::Null));
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(JsonValue::as_str), Some("c"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn unicode_escapes_roundtrip() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), JsonValue::Str("Aé".to_string()));
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate is rejected");
    }

    #[test]
    fn deep_nesting_hits_the_depth_limit_not_the_stack() {
        // Just inside the limit parses...
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // ...one deeper is a clean error, even for pathological input.
        let too_deep = format!("{}0{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&too_deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err(), "array bomb must not overflow the stack");
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(parse(&obj_bomb).is_err(), "object bomb must not overflow the stack");
    }

    #[test]
    fn number_overflow_and_underflow_edges() {
        // Overflow to infinity is a hard error, positive and negative.
        for bad in ["1e999", "-1e999", "1e308999", "123456789e9999999"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("overflow"), "{bad}: {err}");
        }
        // Underflow follows IEEE round-to-zero: accepted, tiny or zero.
        assert_eq!(parse("1e-999").unwrap(), JsonValue::Num(0.0));
        let denormal = parse("5e-324").unwrap().as_num().unwrap();
        assert!(denormal > 0.0 && denormal < f64::MIN_POSITIVE);
        // Extreme-but-finite magnitudes still parse.
        assert_eq!(parse("1.7976931348623157e308").unwrap(), JsonValue::Num(f64::MAX));
        // Malformed exponents/digits are rejected outright.
        for bad in ["1e", "1e+", "--1", "+1", ".5"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn string_escape_edges_are_rejected() {
        // Lone surrogates in every position, both halves.
        for bad in ["\"\\ud800\"", "\"\\udfff\"", "\"a\\ud923b\"", "\"\\ud800\\ud800\""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Invalid escape letters and truncated \u escapes.
        for bad in ["\"\\x41\"", "\"\\ \"", "\"\\u12\"", "\"\\u12g4\"", "\"\\u\"", "\"\\\""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Raw control bytes are rejected; escaped ones are fine.
        assert!(parse("\"a\u{1}b\"").is_err());
        assert_eq!(parse("\"a\\u0001b\"").unwrap(), JsonValue::Str("a\u{1}b".to_string()));
    }

    #[test]
    fn raw_utf8_runs_copy_whole_between_escapes() {
        let doc = "\"h\u{e9}llo \u{2192} \u{4e16}\u{754c}\\n\u{1f980}x\\\"y\"";
        assert_eq!(
            parse(doc).unwrap(),
            JsonValue::Str("h\u{e9}llo \u{2192} \u{4e16}\u{754c}\n\u{1f980}x\"y".to_string())
        );
        assert_eq!(parse("\"\u{65e5}\u{672c}").unwrap_err(), "unterminated string");
        // A control byte after a multi-byte run is reported at its own
        // byte offset.
        let err = parse("\"\u{e9}\u{1}\"").unwrap_err();
        assert!(err.ends_with("at 3"), "{err}");
    }

    #[test]
    fn escape_makes_strings_safe() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), JsonValue::Str(nasty.to_string()));
    }

    #[test]
    fn json_roundtrip_shapes() {
        let mut w = JsonWriter::new();
        w.open_obj()
            .field("name", "raw\"caudio")
            .field("rel", &0.956)
            .field("cycles", &12345u64)
            .field("values", &[1.0, 2.5][..])
            .close_obj();
        assert_eq!(
            w.finish(),
            "{\"name\":\"raw\\\"caudio\",\"rel\":0.956,\"cycles\":12345,\"values\":[1,2.5]}"
        );
    }

    #[test]
    fn json_non_finite_is_null() {
        let mut w = JsonWriter::new();
        w.val(&f64::NAN);
        assert_eq!(w.finish(), "null");
        let mut w = JsonWriter::new();
        w.val(&vec![f64::INFINITY, 0.1]);
        w.open_arr().fixed(f64::NEG_INFINITY, 3).fixed(12.5, 3).close_arr();
        // Top-level values are siblings too.
        assert_eq!(w.finish(), "[null,0.1],[null,12.500]");
    }

    #[test]
    fn json_bool_is_a_bare_literal() {
        for (b, text) in [(true, "true"), (false, "false")] {
            let mut w = JsonWriter::new();
            w.val(&b);
            assert_eq!(w.finish(), text);
        }
        let mut w = JsonWriter::new();
        w.open_obj().field("quick", &false).close_obj();
        // A strict parser must see a JSON boolean, not the string
        // "false".
        let parsed = parse(&w.finish()).unwrap();
        assert_eq!(parsed.get("quick").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn writer_places_commas_in_nested_containers() {
        let mut w = JsonWriter::new();
        w.open_obj().key("a").open_arr().open_arr().close_arr().open_obj().close_obj();
        w.val(&u64::MAX).val(&-1i64).hex64(0xbeef).close_arr();
        w.field("k\n", "\u{1}").field("v", &vec![vec![1u32], vec![]]).close_obj();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"a\":[[],{},18446744073709551615,-1,\"000000000000beef\"],\"k\\n\":\"\\u0001\",\
             \"v\":[[1],[]]}"
        );
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn integer_readers_are_exact() {
        let doc = parse(
            r#"{"u":7,"neg":-1,"frac":1.5,"big":9007199254740992,"edge":9007199254740991,
                "wide":4294967296,"s":"x","h":"00ff"}"#,
        )
        .unwrap();
        assert_eq!(doc.req("u", JsonValue::to_u64), Ok(7));
        assert_eq!(doc.req("edge", JsonValue::to_u64), Ok(9_007_199_254_740_991));
        for key in ["neg", "frac", "big", "s"] {
            let err = doc.req(key, JsonValue::to_u64).unwrap_err();
            assert!(err.starts_with(&format!("`{key}`: expected")), "{err}");
            assert_eq!(error_byte(&err), None, "a found value reads as an offset: {err}");
        }
        assert_eq!(doc.req("neg", JsonValue::to_i64), Ok(-1));
        assert!(doc.req("frac", JsonValue::to_i64).is_err());
        assert!(doc.req("big", JsonValue::to_i64).is_err());
        assert_eq!(doc.req("wide", JsonValue::to_u64), Ok(1 << 32));
        assert!(doc.req("wide", JsonValue::to_u32).is_err());
        assert_eq!(doc.req("h", JsonValue::to_hex), Ok(0xff));
        assert_eq!(doc.req("missing", JsonValue::to_u64).unwrap_err(), "missing `missing`");
        assert_eq!(doc.opt("missing", JsonValue::to_u64), Ok(None));
        assert!(doc.opt("s", JsonValue::to_u64).is_err(), "a present field must read");
        let arr = parse("[1,2,-3]").unwrap();
        assert_eq!(arr.items(JsonValue::to_i64), Ok(vec![1, 2, -3]));
        assert!(arr.items(JsonValue::to_u64).unwrap_err().starts_with("item 2:"));
    }

    #[test]
    fn error_byte_and_line_col_locate_failures() {
        let text = "{\"ok\": 1}\n{\"bad\": }";
        let err = parse(&text[10..]).unwrap_err();
        let byte = error_byte(&err).expect("offset in message");
        assert_eq!(byte, 8, "{err}");
        assert_eq!(line_col(text, 10 + byte), (2, 9));
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, 1_000_000), (2, 10), "clamped to end");
        assert_eq!(error_byte("no offset here"), None);
    }
}
