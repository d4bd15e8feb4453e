//! Property/fuzz tests for the hand-rolled HTTP/1.1 parser: whatever bytes
//! arrive, `parse_request` must return a clean verdict — `Ok(None)` (need
//! more), `Ok(Some(..))` (complete request + consumed count), or a typed
//! error that maps to a 4xx/5xx — and must **never panic**. Hand-rolled
//! property loops in the style of the workspace `tests/properties.rs`
//! (offline build: no proptest); failures print the case seed.

use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngCore, RngExt, SeedableRng};
use rotom_serve::http::{parse_request, HttpError, MAX_BODY_BYTES, MAX_HEADERS, MAX_HEAD_BYTES};

const CASES: u64 = 64;

/// Generator: a well-formed request with random method, path, headers, and
/// body.
fn valid_request(rng: &mut StdRng) -> Vec<u8> {
    let method = ["GET", "POST", "PUT", "DELETE", "HEAD"][rng.random_range(0..5usize)];
    let path_len = rng.random_range(1..24usize);
    let path: String = std::iter::once('/')
        .chain((0..path_len).map(|_| (b'a' + rng.random_range(0..26u8)) as char))
        .collect();
    let body: Vec<u8> = if method == "GET" || method == "HEAD" {
        Vec::new()
    } else {
        let n = rng.random_range(0..200usize);
        (0..n).map(|_| rng.random_range(0..=255u8)).collect()
    };
    let mut req = format!("{method} {path} HTTP/1.1\r\n");
    let extra_headers = rng.random_range(0..5usize);
    for i in 0..extra_headers {
        req.push_str(&format!("x-extra-{i}: value-{}\r\n", rng.next_u64()));
    }
    // GET/HEAD may omit Content-Length entirely.
    if !body.is_empty() || rng.random_range(0..2u32) == 0 || method == "POST" || method == "PUT" {
        req.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    let mut bytes = req.into_bytes();
    bytes.extend_from_slice(&body);
    bytes
}

/// A complete valid request parses, consumes exactly its own bytes, and the
/// parse is stable under arbitrary trailing bytes (pipelining precondition).
#[test]
fn valid_requests_parse_and_consume_exactly() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x5e41, case));
        let bytes = valid_request(&mut rng);
        let (req, consumed) = parse_request(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: parse error {e:?}"))
            .unwrap_or_else(|| panic!("case {case}: incomplete"));
        assert_eq!(consumed, bytes.len(), "case {case}: consumed all bytes");
        assert!(req.path.starts_with('/'), "case {case}");

        // Append garbage: same request, same consumed count.
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"\x00\xffgarbage after the request");
        let (req2, consumed2) = parse_request(&extended).unwrap().unwrap();
        assert_eq!(consumed2, consumed, "case {case}: trailing bytes ignored");
        assert_eq!(req2.method, req.method, "case {case}");
        assert_eq!(req2.body, req.body, "case {case}");
    }
}

/// Torn reads: every prefix of a valid request is either `Ok(None)` (need
/// more bytes) or an early-detectable error — never a panic, never a bogus
/// complete parse.
#[test]
fn every_byte_prefix_is_incomplete_or_clean_error() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x70c4, case));
        let bytes = valid_request(&mut rng);
        for cut in 0..bytes.len() {
            match parse_request(&bytes[..cut]) {
                Ok(None) => {}
                Ok(Some((_, consumed))) => {
                    panic!("case {case}: complete parse from prefix {cut} (consumed {consumed})")
                }
                Err(e) => panic!("case {case}: prefix {cut} errored: {e:?}"),
            }
        }
    }
}

/// Feeding a request one byte at a time converges to exactly the same parse
/// as feeding it whole.
#[test]
fn incremental_feed_matches_oneshot_parse() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xfeed, case));
        let bytes = valid_request(&mut rng);
        let oneshot = parse_request(&bytes).unwrap().unwrap();
        let mut buf = Vec::new();
        let mut result = None;
        for &b in &bytes {
            buf.push(b);
            if let Some(parsed) = parse_request(&buf).unwrap() {
                result = Some(parsed);
                break;
            }
        }
        let (req, consumed) = result.expect("converged");
        assert_eq!(consumed, oneshot.1);
        assert_eq!(req.method, oneshot.0.method);
        assert_eq!(req.path, oneshot.0.path);
        assert_eq!(req.body, oneshot.0.body);
    }
}

/// Pipelined requests on one buffer parse back out in order, each consuming
/// its own bytes.
#[test]
fn pipelined_requests_round_trip_in_order() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x919e, case));
        let k = rng.random_range(2..6usize);
        let requests: Vec<Vec<u8>> = (0..k).map(|_| valid_request(&mut rng)).collect();
        let mut buf: Vec<u8> = requests.concat();
        for (i, original) in requests.iter().enumerate() {
            let (req, consumed) = parse_request(&buf)
                .unwrap_or_else(|e| panic!("case {case} req {i}: {e:?}"))
                .unwrap_or_else(|| panic!("case {case} req {i}: incomplete"));
            assert_eq!(consumed, original.len(), "case {case} req {i}");
            let expect = parse_request(original).unwrap().unwrap().0;
            assert_eq!(req.method, expect.method, "case {case} req {i}");
            assert_eq!(req.path, expect.path, "case {case} req {i}");
            assert_eq!(req.body, expect.body, "case {case} req {i}");
            buf.drain(..consumed);
        }
        assert!(buf.is_empty(), "case {case}: everything consumed");
    }
}

/// Pure random bytes must never panic the parser; if they ever parse as a
/// complete request, the consumed count must be in bounds.
#[test]
fn random_garbage_never_panics() {
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x6a4b, case));
        let n = rng.random_range(0..2048usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        if let Ok(Some((_, consumed))) = parse_request(&bytes) {
            assert!(consumed <= bytes.len(), "case {case}");
        }
    }
}

/// Mutating single bytes of a valid request must never panic — every
/// outcome is incomplete, complete, or a typed error.
#[test]
fn single_byte_mutations_never_panic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x3117, case));
        let bytes = valid_request(&mut rng);
        for _ in 0..64 {
            let mut mutated = bytes.clone();
            let at = rng.random_range(0..mutated.len());
            mutated[at] = rng.random_range(0..=255u8);
            if let Ok(Some((_, consumed))) = parse_request(&mutated) {
                assert!(consumed <= mutated.len(), "case {case}");
            }
        }
    }
}

/// Oversized heads are rejected with 431 — even before the head
/// terminator arrives, so a hostile peer cannot force unbounded buffering.
#[test]
fn oversized_heads_reject_with_431() {
    // Terminated oversized head.
    let mut req = b"GET /x HTTP/1.1\r\n".to_vec();
    req.extend_from_slice(format!("big: {}\r\n", "a".repeat(MAX_HEAD_BYTES)).as_bytes());
    req.extend_from_slice(b"\r\n");
    assert!(matches!(
        parse_request(&req),
        Err(HttpError::HeadersTooLarge)
    ));
    // Unterminated: the head already exceeds the cap, so reject now.
    let unterminated = vec![b'a'; MAX_HEAD_BYTES + 1];
    assert!(matches!(
        parse_request(&unterminated),
        Err(HttpError::HeadersTooLarge)
    ));
    // Too many headers, individually small.
    let mut many = b"GET /x HTTP/1.1\r\n".to_vec();
    for i in 0..=MAX_HEADERS {
        many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
    }
    many.extend_from_slice(b"\r\n");
    assert!(matches!(
        parse_request(&many),
        Err(HttpError::HeadersTooLarge)
    ));
}

/// Content-Length abuse: non-numeric, negative, overflowing, conflicting
/// duplicates, and missing-on-POST all map to typed errors; oversized
/// declared bodies reject *before* the body arrives.
#[test]
fn content_length_abuse_maps_to_typed_errors() {
    type Case = (&'static [u8], fn(&HttpError) -> bool);
    let cases: [Case; 6] = [
        (b"POST /x HTTP/1.1\r\ncontent-length: abc\r\n\r\n", |e| {
            matches!(e, HttpError::BadRequest(_))
        }),
        (b"POST /x HTTP/1.1\r\ncontent-length: -5\r\n\r\n", |e| {
            matches!(e, HttpError::BadRequest(_))
        }),
        (
            b"POST /x HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
            |e| matches!(e, HttpError::BadRequest(_)),
        ),
        (
            b"POST /x HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\n",
            |e| matches!(e, HttpError::BadRequest(_)),
        ),
        (b"POST /x HTTP/1.1\r\n\r\n", |e| {
            matches!(e, HttpError::LengthRequired)
        }),
        (
            b"POST /x HTTP/1.1\r\ncontent-length: 4194305\r\n\r\n",
            |e| matches!(e, HttpError::BodyTooLarge),
        ),
    ];
    for (i, (raw, check)) in cases.iter().enumerate() {
        match parse_request(raw) {
            Err(e) => assert!(check(&e), "case {i}: wrong error {e:?}"),
            other => panic!("case {i}: expected error, got {other:?}"),
        }
    }
    // Declared size exactly at the cap is fine (only the body bytes are
    // awaited).
    let at_cap = format!("POST /x HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n");
    assert!(matches!(parse_request(at_cap.as_bytes()), Ok(None)));
}

/// Unterminated bodies (Content-Length promises more than arrives) stay
/// `Ok(None)` forever — the server's idle timeout, not the parser, ends
/// them.
#[test]
fn unterminated_bodies_stay_incomplete() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xb0d7, case));
        let declared = rng.random_range(1..500usize);
        let sent = rng.random_range(0..declared);
        let mut req =
            format!("POST /score HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").into_bytes();
        req.extend(std::iter::repeat_n(b'x', sent));
        assert!(
            matches!(parse_request(&req), Ok(None)),
            "case {case}: {sent}/{declared} body bytes must be incomplete"
        );
    }
}

/// The rest of the taxonomy: bad version → 505, chunked → 501, malformed
/// request lines → 400, and every error's status is a 4xx/5xx.
#[test]
fn error_taxonomy_statuses_are_stable() {
    let version = parse_request(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err();
    assert!(matches!(version, HttpError::UnsupportedVersion));
    assert_eq!(version.status().0, 505);

    let chunked =
        parse_request(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
    assert!(matches!(chunked, HttpError::UnsupportedTransferEncoding));
    assert_eq!(chunked.status().0, 501);

    for raw in [
        b"GARBAGE\r\n\r\n".as_slice(),
        b"GET\r\n\r\n".as_slice(),
        b"GET nopath HTTP/1.1\r\n\r\n".as_slice(),
        b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n".as_slice(),
        b"\x00\x01\x02 /x HTTP/1.1\r\n\r\n".as_slice(),
    ] {
        let err = parse_request(raw).unwrap_err();
        let (status, _) = err.status();
        assert!(
            (400..=599).contains(&status),
            "{err:?} must map to an HTTP error status"
        );
    }
}
