//! The workspace's one JSON reader and writer.
//!
//! The workspace carries no serde (offline policy), so this module is the
//! small recursive subset every JSON document in it needs: rotom-serve's
//! request and response bodies (`{"inputs": [["tok", …], …]}`), telemetry
//! JSONL records ([`crate::telemetry`]), and the bench harness's
//! `BENCH_*.json` files and child result lines. Two properties matter more
//! than generality:
//!
//! * **Total on untrusted input** — the parser never panics and bounds
//!   recursion at [`MAX_DEPTH`]; byte volume is bounded by the caller (the
//!   HTTP body cap, one JSONL line). `\u` escapes must carry four hex
//!   digits, and UTF-16 surrogate pairs (`\ud83d\ude00`, what most JSON
//!   encoders emit for characters outside the BMP) join into one `char`;
//!   lone surrogates are rejected.
//! * **Bit-exact number round-trips** — numbers are kept as their *raw
//!   source text* ([`Json::Num`]) and parsed to `f32`/`f64` only on demand.
//!   Scores are serialized with Rust's shortest-round-trip float formatting
//!   and re-parsed directly as `f32`, so a score that crosses the wire
//!   equals the in-process score bit for bit — the property the serving
//!   equivalence suite pins.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number parsed as `f32` directly from its source text (no `f64`
    /// intermediate, so shortest-repr `f32` text round-trips exactly).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `u64` (rejects signs, fractions, exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Renders the value as JSON: compact (`{"a":[1,2]}`) by default, with a
/// space after every `,` and `:` under the alternate flag (`{:#}`, the row
/// layout of the `BENCH_*.json` files). Numbers print their source text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (comma, colon) = if f.alternate() {
            (", ", ": ")
        } else {
            (",", ":")
        };
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(raw) => f.write_str(raw),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(comma)?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(comma)?;
                    }
                    f.write_str(&quote(k))?;
                    f.write_str(colon)?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse a complete JSON document (surrounding whitespace allowed, trailing
/// bytes rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes after document at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    let bytes = s.as_bytes();
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(s, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(s, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(s, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(s, pos)?)),
        Some(b'n') if s[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(b't') if s[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if s[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let raw = &s[start..*pos];
            // Validate through f64 so arbitrary sign/dot soup is rejected,
            // but *store* the raw text (see module docs).
            if raw.is_empty() || raw.parse::<f64>().is_err() {
                return Err(format!("invalid value at offset {start}"));
            }
            Ok(Json::Num(raw.to_string()))
        }
        None => Err("unexpected end of document".to_string()),
    }
}

/// Parse a JSON string literal starting at `*pos` (must be a `"`).
fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = s.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte (all
        // ASCII, so the run ends on a char boundary).
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1f) {
            *pos += 1;
        }
        out.push_str(&s[run..*pos]);
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escape = bytes.get(*pos + 1).copied();
                *pos += 2;
                out.push(match escape {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => unicode_escape(s, pos)?,
                    other => return Err(format!("bad escape {:?}", other.map(char::from))),
                });
            }
            Some(_) => return Err("raw control character in string".to_string()),
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Decode a `\u` escape whose hex digits start at `*pos`, joining a UTF-16
/// surrogate pair (`\ud83d\ude00`) into one `char`.
fn unicode_escape(s: &str, pos: &mut usize) -> Result<char, String> {
    let code = match hex4(s, pos)? {
        high @ 0xD800..=0xDBFF => {
            let low = if s[*pos..].starts_with("\\u") {
                *pos += 2;
                hex4(s, pos)?
            } else {
                0
            };
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err("lone high surrogate in \\u escape".to_string());
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err("lone low surrogate in \\u escape".to_string()),
        code => code,
    };
    char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_string())
}

/// The four hex digits at `*pos` (nothing else: no sign, no shorter run).
fn hex4(s: &str, pos: &mut usize) -> Result<u32, String> {
    let hex = s
        .get(*pos..*pos + 4)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or("\\u escape needs four hex digits")?;
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

/// Append a JSON string literal (quoted, escaped) to `out`.
pub fn push_quoted(out: &mut String, s: &str) {
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

/// Render a JSON string literal (quoted, escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Append an `f32` in shortest-round-trip form (`{:?}`), the encoding whose
/// direct re-parse as `f32` is bit-identical. Non-finite values become
/// `null` (JSON has no NaN/Inf) — scoring outputs are softmax probabilities,
/// so this is a never-taken guard, not a lossy path.
pub fn push_f32(out: &mut String, v: f32) {
    push_float(out, v, v.is_finite());
}

/// Append an `f64` the way [`push_f32`] appends an `f32`.
pub fn push_f64(out: &mut String, v: f64) {
    push_float(out, v, v.is_finite());
}

fn push_float(out: &mut String, v: impl fmt::Debug, finite: bool) {
    if finite {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Render a score matrix as a JSON array of arrays of `f32`.
pub fn render_scores(scores: &[Vec<f32>]) -> String {
    let mut out = String::with_capacity(16 * scores.len());
    out.push('[');
    for (i, row) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f32(&mut out, v);
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Parse a score matrix rendered by [`render_scores`] back into `f32` rows
/// (each number parsed directly as `f32`; used by tests and benchmarks to
/// assert wire round-trips are bit-identical).
pub fn parse_scores(value: &Json) -> Result<Vec<Vec<f32>>, String> {
    let rows = value.as_arr().ok_or("scores must be an array")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "score row must be an array".to_string())?
                .iter()
                .map(|v| {
                    v.as_f32()
                        .ok_or_else(|| "score must be a number".to_string())
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_request_shape() {
        let doc = parse(r#"{"inputs": [["a", "b"], ["c"]], "n": 2}"#).unwrap();
        let inputs = doc.get("inputs").unwrap().as_arr().unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].as_arr().unwrap()[1].as_str(), Some("b"));
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "+-3",
            "--1",
            "1.2.3",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "a \"quoted\"\nline\twith \\ and ✓";
        let doc = parse(&quote(original)).unwrap();
        assert_eq!(doc.as_str(), Some(original));
    }

    #[test]
    fn f32_wire_roundtrip_is_bit_identical() {
        let rows = vec![
            vec![
                0.1f32,
                1.0 / 3.0,
                f32::MIN_POSITIVE,
                1e-40, /* subnormal */
            ],
            vec![0.999_999_94f32, std::f32::consts::E],
        ];
        let text = render_scores(&rows);
        let parsed = parse_scores(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (a, b) in rows.iter().zip(&parsed) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn numbers_keep_raw_text() {
        let doc = parse("[1e3, -0.5, 7]").unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0], Json::Num("1e3".to_string()));
        assert_eq!(arr[1].as_f64(), Some(-0.5));
        assert_eq!(arr[2].as_u64(), Some(7));
        assert_eq!(arr[0].as_u64(), None, "u64 accessor stays strict");
    }

    #[test]
    fn surrogate_pairs_join_into_one_char() {
        // What Python's `json.dumps(["café 😀"])` emits.
        let doc = parse(r#"["caf\u00e9 \ud83d\ude00"]"#).unwrap();
        assert_eq!(doc.as_arr().unwrap()[0].as_str(), Some("café 😀"));
        let upper = parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(upper.as_str(), Some("😀"));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\n""#,
        ] {
            assert!(parse(bad).unwrap_err().contains("high surrogate"), "{bad}");
        }
        assert!(parse(r#""\ude00""#).unwrap_err().contains("low surrogate"));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        // `u32::from_str_radix` alone would read `+041` as 0x41.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u00g1""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn display_renders_compact_and_spaced() {
        let text = r#"{"a": [1, 2.50, "x\ny"], "b": {"c": null, "d": true}}"#;
        let doc = parse(text).unwrap();
        assert_eq!(format!("{doc:#}"), text);
        let compact = doc.to_string();
        assert_eq!(compact, r#"{"a":[1,2.50,"x\ny"],"b":{"c":null,"d":true}}"#);
        assert_eq!(parse(&compact).unwrap(), doc);
    }
}
