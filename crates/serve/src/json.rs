//! Minimal recursive JSON for the serving plane's request/response bodies.
//!
//! The workspace carries no serde (offline policy), and the flat-object
//! parser in `rotom_nn::telemetry` cannot represent the nested arrays a
//! scoring request carries (`{"inputs": [["tok", …], …]}`), so this module
//! implements the small recursive subset the server needs. Two properties
//! matter more than generality:
//!
//! * **Total on untrusted input** — the parser never panics and bounds
//!   recursion at [`MAX_DEPTH`]; byte volume is already bounded upstream by
//!   the HTTP body cap.
//! * **Bit-exact number round-trips** — numbers are kept as their *raw
//!   source text* ([`Json::Num`]) and parsed to `f32`/`f64` only on demand.
//!   Scores are serialized with Rust's shortest-round-trip float formatting
//!   and re-parsed directly as `f32`, so a score that crosses the wire
//!   equals the in-process score bit for bit — the property the serving
//!   equivalence suite pins.

use std::fmt::Write as _;

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
    let mut chars = s[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((j, 'u')) => {
                    let hex = s
                        .get(*pos + j + 1..*pos + j + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // Surrogate pairs are not needed for the server's ASCII
                    // payloads; lone surrogates are rejected by from_u32.
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c if (c as u32) < 0x20 => {
                return Err("raw control character in string".to_string());
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Render a JSON string literal (quoted, escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Append an `f32` in shortest-round-trip form (`{:?}`), the encoding whose
/// direct re-parse as `f32` is bit-identical. Non-finite values become
/// `null` (JSON has no NaN/Inf) — scoring outputs are softmax probabilities,
/// so this is a never-taken guard, not a lossy path.
pub fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
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
}
