//! A minimal strict JSON parser, just enough to validate exported
//! traces without a serde dependency, plus [`validate_trace`] — the
//! structural check used by tests, the CLI `trace-check` command and
//! `scripts/check.sh`.

use std::collections::{BTreeMap, BTreeSet};

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
}

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

/// Escapes a string for embedding in a JSON document (used by the
/// Chrome trace exporter).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

/// Structural statistics of a validated Chrome trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"ph": "X"` complete (span) events.
    pub spans: usize,
    /// `"ph": "C"` counter events.
    pub counters: usize,
    /// `cat/name` labels of every counter event.
    pub counter_names: BTreeSet<String>,
    /// The **last** sample of each counter, by `cat/name` label (our
    /// counters are cumulative totals, so the last sample is the
    /// final value).
    pub counter_last: BTreeMap<String, i64>,
    /// Labels of counters that carried a nonzero sample at least once
    /// (`trace-check --forbid` asserts a label is absent from here:
    /// an all-zero counter still counts as a clean run).
    pub counter_nonzero: BTreeSet<String>,
    /// Non-fatal structural oddities (unknown top-level keys): the
    /// trace is usable, but a tool should surface these.
    pub warnings: Vec<String>,
}

impl TraceStats {
    /// Whether a counter with the given `cat/name` label was present.
    pub fn has_counter(&self, label: &str) -> bool {
        self.counter_names.contains(label)
    }

    /// The final (last-sampled) value of a counter, if present.
    pub fn counter_value(&self, label: &str) -> Option<i64> {
        self.counter_last.get(label).copied()
    }
}

/// Parses `text` as a Chrome `trace_event` JSON document and checks
/// its structure: a top-level object with a `traceEvents` array whose
/// entries all carry `name`, `cat`, `ph`, and numeric `ts`. Returns
/// counts by phase on success.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse(text)?;
    let events =
        doc.get("traceEvents").and_then(JsonValue::as_arr).ok_or("missing 'traceEvents' array")?;
    let mut stats = TraceStats { events: events.len(), ..TraceStats::default() };
    // The Chrome trace format tolerates extra metadata keys; unknown
    // ones are worth a warning (typos, version skew) but not an error.
    const KNOWN_TOP: &[&str] =
        &["traceEvents", "displayTimeUnit", "otherData", "metadata", "systemTraceEvents"];
    if let JsonValue::Obj(fields) = &doc {
        for (key, _) in fields {
            if !KNOWN_TOP.contains(&key.as_str()) {
                stats.warnings.push(format!("unknown top-level key '{key}'"));
            }
        }
    }
    for (i, e) in events.iter().enumerate() {
        let name =
            e.get("name").and_then(JsonValue::as_str).ok_or(format!("event {i}: missing name"))?;
        let cat =
            e.get("cat").and_then(JsonValue::as_str).ok_or(format!("event {i}: missing cat"))?;
        e.get("ts").and_then(JsonValue::as_num).ok_or(format!("event {i}: missing ts"))?;
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                e.get("dur")
                    .and_then(JsonValue::as_num)
                    .ok_or(format!("event {i}: span missing dur"))?;
                stats.spans += 1;
            }
            Some("C") => {
                stats.counters += 1;
                let label = format!("{cat}/{name}");
                // The exporter writes the sample under the counter's
                // own name inside `args`; tolerate its absence (other
                // producers), recording presence only.
                if let Some(v) = e.get("args").and_then(|a| a.get(name)).and_then(JsonValue::as_num)
                {
                    let v = v as i64;
                    stats.counter_last.insert(label.clone(), v);
                    if v != 0 {
                        stats.counter_nonzero.insert(label.clone());
                    }
                }
                stats.counter_names.insert(label);
            }
            Some(other) => return Err(format!("event {i}: unknown phase '{other}'")),
            None => return Err(format!("event {i}: missing ph")),
        }
    }
    Ok(stats)
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
    fn validate_trace_happy_path() {
        let text = r#"{"traceEvents":[
            {"name":"s","cat":"p","ph":"X","ts":1,"dur":5,"pid":1,"tid":1},
            {"name":"c","cat":"g","ph":"C","ts":2,"args":{"c":3}}
        ]}"#;
        let stats = validate_trace(text).unwrap();
        assert_eq!((stats.events, stats.spans, stats.counters), (2, 1, 1));
        assert!(stats.has_counter("g/c"));
        assert!(!stats.has_counter("g/missing"));
        assert_eq!(stats.counter_value("g/c"), Some(3));
        assert_eq!(stats.counter_value("g/missing"), None);
    }

    #[test]
    fn counter_values_track_last_sample_and_nonzero_history() {
        let text = r#"{"traceEvents":[
            {"name":"retries","cat":"s","ph":"C","ts":1,"args":{"retries":2}},
            {"name":"retries","cat":"s","ph":"C","ts":2,"args":{"retries":0}},
            {"name":"quarantined","cat":"s","ph":"C","ts":3,"args":{"quarantined":0}}
        ]}"#;
        let stats = validate_trace(text).unwrap();
        // Last sample wins for the value...
        assert_eq!(stats.counter_value("s/retries"), Some(0));
        // ...but nonzero history is remembered for --forbid.
        assert!(stats.counter_nonzero.contains("s/retries"));
        assert!(!stats.counter_nonzero.contains("s/quarantined"));
    }

    #[test]
    fn unknown_top_level_keys_warn_but_pass() {
        let text = r#"{"traceEvents":[],"frobs":1,"displayTimeUnit":"ms"}"#;
        let stats = validate_trace(text).unwrap();
        assert_eq!(stats.warnings.len(), 1, "{:?}", stats.warnings);
        assert!(stats.warnings[0].contains("frobs"), "{:?}", stats.warnings);
        let clean = validate_trace(r#"{"traceEvents":[]}"#).unwrap();
        assert!(clean.warnings.is_empty());
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

    #[test]
    fn validate_trace_rejects_structural_problems() {
        assert!(validate_trace("[]").is_err(), "top level must be an object");
        assert!(validate_trace(r#"{"traceEvents": 3}"#).is_err());
        let no_ph = r#"{"traceEvents":[{"name":"s","cat":"p","ts":1}]}"#;
        assert!(validate_trace(no_ph).is_err());
        let span_no_dur = r#"{"traceEvents":[{"name":"s","cat":"p","ph":"X","ts":1}]}"#;
        assert!(validate_trace(span_no_dur).is_err());
    }
}
