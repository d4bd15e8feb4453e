//! Hand-rolled incremental HTTP/1.1 request parsing and response writing.
//!
//! The serving plane is offline-built (no `hyper`, no `httparse`), so this
//! module implements the small slice of HTTP/1.1 the model server needs —
//! and implements it defensively, because the socket is the system's only
//! untrusted input:
//!
//! * **Incremental**: [`parse_request`] consumes a byte buffer that may hold
//!   a torn prefix, exactly one request, or several pipelined requests. It
//!   returns `Ok(None)` ("need more bytes") until a full request is
//!   available, then the parsed [`Request`] plus the number of bytes it
//!   consumed, so the connection loop can re-parse the remainder.
//! * **Total**: no input — truncated at any byte offset, oversized,
//!   malformed, or adversarial — may panic. Every failure maps to a typed
//!   [`HttpError`] carrying the 4xx/5xx status the connection should answer
//!   before closing (see the error taxonomy in DESIGN.md's "Serving plane").
//! * **Bounded**: the request line + header block is capped at
//!   [`MAX_HEAD_BYTES`], the header count at [`MAX_HEADERS`], and the body
//!   at [`MAX_BODY_BYTES`] — each enforced as early as the information is
//!   available, so a hostile peer cannot make the server buffer unbounded
//!   input.
//!
//! Unsupported-but-valid HTTP is rejected loudly rather than mis-handled:
//! `Transfer-Encoding: chunked` gets 501, non-1.x versions get 505.

use std::io::Write as _;

/// Cap on the request line + header block, in bytes (pre-body).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Cap on the declared `Content-Length` (and therefore on buffered bodies).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A fully parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request path with any `?query` suffix stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (exactly `Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (lower-case name), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after the response.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Why a request could not be parsed. Each variant maps to the HTTP status
/// the connection answers before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or `Content-Length` (400).
    BadRequest(String),
    /// Request line + headers exceed [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`]
    /// (431).
    HeadersTooLarge,
    /// Declared `Content-Length` exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// A method that carries a body arrived without `Content-Length` (411).
    LengthRequired,
    /// `Transfer-Encoding` other than identity — chunked bodies are not
    /// implemented (501).
    UnsupportedTransferEncoding,
    /// HTTP version other than 1.0/1.1 (505).
    UnsupportedVersion,
}

impl HttpError {
    /// `(status code, reason phrase)` for the error response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::LengthRequired => (411, "Length Required"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
            HttpError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
        }
    }

    /// Human-readable detail carried in the error response body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadersTooLarge => format!(
                "request line + headers exceed {MAX_HEAD_BYTES} bytes or {MAX_HEADERS} lines"
            ),
            HttpError::BodyTooLarge => {
                format!("declared content-length exceeds {MAX_BODY_BYTES} bytes")
            }
            HttpError::LengthRequired => "request with a body requires content-length".to_string(),
            HttpError::UnsupportedTransferEncoding => {
                "transfer-encoding is not supported; send content-length".to_string()
            }
            HttpError::UnsupportedVersion => "only HTTP/1.0 and HTTP/1.1 are supported".to_string(),
        }
    }
}

/// Find the end of the header block (`\r\n\r\n`), returning the offset just
/// past it.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Whether every byte is a valid RFC 7230 token char (method names).
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Try to parse one request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — one full request; the caller should
///   drain `consumed` bytes and re-parse the remainder (pipelining).
/// * `Ok(None)` — the buffer holds a valid-so-far prefix; read more bytes.
/// * `Err(e)` — the prefix can never become a valid request; answer
///   `e.status()` and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_len) = head_end(buf) else {
        // No terminator yet: incomplete — unless the head is already over
        // budget, in which case more bytes can only make it worse.
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        // An early sanity check once the request line is complete: reject
        // junk (e.g. a TLS handshake or random bytes) without waiting for a
        // header terminator that may never come.
        if let Some(line_end) = buf.windows(2).position(|w| w == b"\r\n") {
            parse_request_line(&buf[..line_end])?;
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len - 4])
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request head".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, path) = parse_request_line(request_line.as_bytes())?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        // A bare CR inside the head would have split differently; any line
        // here is `name: value`.
        let Some(colon) = line.find(':') else {
            return Err(HttpError::BadRequest(format!(
                "header line without ':': {line:?}"
            )));
        };
        let name = line[..colon].trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(HttpError::BadRequest(format!(
                "invalid header name in {line:?}"
            )));
        }
        headers.push((
            name.to_ascii_lowercase(),
            line[colon + 1..].trim().to_string(),
        ));
    }

    if let Some((_, te)) = headers.iter().find(|(n, _)| n == "transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
    }

    // Content-Length: strict ASCII digits; repeated headers must agree.
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let parsed: usize = if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
            v.parse()
                .map_err(|_| HttpError::BadRequest(format!("content-length overflow: {v:?}")))?
        } else {
            return Err(HttpError::BadRequest(format!(
                "invalid content-length: {v:?}"
            )));
        };
        match content_length {
            Some(prev) if prev != parsed => {
                return Err(HttpError::BadRequest(
                    "conflicting content-length headers".to_string(),
                ))
            }
            _ => content_length = Some(parsed),
        }
    }

    let body_len = match content_length {
        Some(n) if n > MAX_BODY_BYTES => return Err(HttpError::BodyTooLarge),
        Some(n) => n,
        // Methods that semantically carry a body must declare its length;
        // without one the request boundary is unknowable under keep-alive.
        None if matches!(method.as_str(), "POST" | "PUT" | "PATCH") => {
            return Err(HttpError::LengthRequired)
        }
        None => 0,
    };

    let total = head_len + body_len;
    if buf.len() < total {
        return Ok(None); // body still in flight
    }
    Ok(Some((
        Request {
            method,
            path,
            headers,
            body: buf[head_len..total].to_vec(),
        },
        total,
    )))
}

/// Parse `METHOD SP PATH SP HTTP/x.y` (no trailing CRLF).
fn parse_request_line(line: &[u8]) -> Result<(String, String), HttpError> {
    let line = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 request line".to_string()))?;
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line: {line:?}"
        )));
    };
    if !is_token(method) {
        return Err(HttpError::BadRequest(format!("invalid method: {method:?}")));
    }
    match version {
        "HTTP/1.1" | "HTTP/1.0" => {}
        v if v.starts_with("HTTP/") => return Err(HttpError::UnsupportedVersion),
        v => {
            return Err(HttpError::BadRequest(format!(
                "malformed HTTP version: {v:?}"
            )))
        }
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "invalid request target: {target:?}"
        )));
    }
    // Queries are accepted and ignored: no endpoint takes query parameters.
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((method.to_string(), path))
}

/// Serialize one HTTP/1.1 response.
pub fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    response_bytes_with(status, reason, content_type, body, keep_alive, &[])
}

/// Serialize one HTTP/1.1 response with extra `(name, value)` headers —
/// the shed path uses this for `Retry-After`.
pub fn response_bytes_with(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Serialize the error response for a parse failure (always `close`: the
/// connection's byte stream is no longer trustworthy).
pub fn error_response(err: &HttpError) -> Vec<u8> {
    let (status, reason) = err.status();
    let body = format!(
        "{{\"error\":{},\"status\":{status}}}",
        crate::json::quote(&err.detail())
    );
    response_bytes(status, reason, "application/json", body.as_bytes(), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &[u8]) -> (Request, usize) {
        parse_request(raw).expect("parse").expect("complete")
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(used, raw.len());
    }

    #[test]
    fn parses_post_with_exact_body_and_leftover() {
        let raw = b"POST /match HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdXTRA";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.body, b"abcd");
        assert_eq!(used, raw.len() - 4, "pipelined remainder stays unread");
    }

    #[test]
    fn strips_query_and_lowercases_header_names() {
        let raw = b"GET /metrics?verbose=1 HTTP/1.1\r\nX-Trace-ID: 7\r\n\r\n";
        let (req, _) = parse_ok(raw);
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("x-trace-id"), Some("7"));
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let raw = b"POST /clean HTTP/1.1\r\ncontent-length: 3\r\n\r\nab";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut]).expect("prefix must stay Ok"),
                None,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn post_without_length_is_411() {
        let raw = b"POST /match HTTP/1.1\r\nhost: x\r\n\r\n";
        assert_eq!(parse_request(raw), Err(HttpError::LengthRequired));
    }

    #[test]
    fn bad_content_length_is_400() {
        for bad in ["abc", "-1", "1.5", "", "18446744073709551616", "4 4"] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            assert!(
                matches!(parse_request(raw.as_bytes()), Err(HttpError::BadRequest(_))),
                "content-length {bad:?}"
            );
        }
    }

    #[test]
    fn conflicting_lengths_rejected_matching_accepted() {
        let conflicting = b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nxx";
        assert!(matches!(
            parse_request(conflicting),
            Err(HttpError::BadRequest(_))
        ));
        let matching = b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 1\r\n\r\nx";
        assert_eq!(parse_ok(matching).0.body, b"x");
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_request(raw.as_bytes()), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn oversized_head_is_431_even_unterminated() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(parse_request(&raw), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn chunked_transfer_encoding_is_501() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        assert_eq!(
            parse_request(raw),
            Err(HttpError::UnsupportedTransferEncoding)
        );
    }

    #[test]
    fn wrong_version_is_505_and_junk_is_400() {
        assert_eq!(
            parse_request(b"GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::UnsupportedVersion)
        );
        assert!(matches!(
            parse_request(b"GET / FTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Junk is rejected as soon as the request line is complete, without
        // waiting for a header terminator.
        assert!(matches!(
            parse_request(b"\x16\x03\x01\x02\x00\r\nmore"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn error_statuses_are_stable() {
        assert_eq!(HttpError::BadRequest(String::new()).status().0, 400);
        assert_eq!(HttpError::LengthRequired.status().0, 411);
        assert_eq!(HttpError::BodyTooLarge.status().0, 413);
        assert_eq!(HttpError::HeadersTooLarge.status().0, 431);
        assert_eq!(HttpError::UnsupportedTransferEncoding.status().0, 501);
        assert_eq!(HttpError::UnsupportedVersion.status().0, 505);
    }

    #[test]
    fn response_bytes_with_inserts_extra_headers_before_body() {
        let out = response_bytes_with(
            503,
            "Service Unavailable",
            "application/json",
            b"{}",
            false,
            &[("retry-after", "2".to_string())],
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn response_bytes_roundtrip_shape() {
        let out = response_bytes(200, "OK", "application/json", b"{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
