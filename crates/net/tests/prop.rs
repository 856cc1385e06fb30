//! Property tests: HTTP wire-format round trips, truncation and
//! byte-mutation torture, and rate-limiter conservation.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use sift_net::http::{parse_request, parse_response, serialize_request, serialize_response};
use sift_net::{
    Headers, Method, RateLimitDecision, RateLimiter, RateLimiterConfig, Request, Response,
    StatusCode,
};

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9-]{0,15}".prop_map(|s| s)
}

fn header_value() -> impl Strategy<Value = String> {
    "[ -~&&[^\r\n]]{0,30}".prop_map(|s| s.trim().to_owned())
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        prop_oneof![Just(Method::Get), Just(Method::Post)],
        "/[a-z0-9/]{0,20}",
        proptest::collection::vec((token(), header_value()), 0..6),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(method, path, headers, body)| {
            let mut h = Headers::new();
            for (name, value) in headers {
                // content-length is owned by the serializer.
                if !name.eq_ignore_ascii_case("content-length") {
                    h.set(&name, value);
                }
            }
            Request {
                method,
                path,
                headers: h,
                body: Bytes::from(body),
            }
        })
}

/// Applies each `(kind, position, byte)` edit in turn: flip the byte at
/// the position (xor, never a no-op), delete it, or insert `byte` before
/// it. Positions wrap around the current length.
fn mutate(wire: &[u8], edits: &[(u8, u32, u8)]) -> Vec<u8> {
    let mut out = wire.to_vec();
    for &(kind, at, byte) in edits {
        let at = at as usize;
        match kind {
            0 if !out.is_empty() => {
                let i = at % out.len();
                out[i] ^= byte | 1;
            }
            1 if !out.is_empty() => {
                out.remove(at % out.len());
            }
            _ => out.insert(at % (out.len() + 1), byte),
        }
    }
    out
}

proptest! {
    /// serialize ∘ parse is the identity on requests (up to the
    /// recomputed content-length).
    #[test]
    fn request_round_trip(req in request_strategy()) {
        let wire = serialize_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        let back = parse_request(&mut buf).expect("parse ok").expect("complete");
        prop_assert!(buf.is_empty());
        prop_assert_eq!(back.method, req.method);
        prop_assert_eq!(&back.path, &req.path);
        prop_assert_eq!(&back.body, &req.body);
        for (name, value) in req.headers.iter() {
            prop_assert_eq!(back.headers.get(name), Some(value));
        }
    }

    /// Responses round-trip likewise, for every status code we emit.
    #[test]
    fn response_round_trip(code in 100u16..600, body in proptest::collection::vec(any::<u8>(), 0..300)) {
        let resp = Response {
            status: StatusCode(code),
            headers: Headers::new(),
            body: Bytes::from(body),
        };
        let wire = serialize_response(&resp);
        let mut buf = BytesMut::from(&wire[..]);
        let back = parse_response(&mut buf).expect("parse ok").expect("complete");
        prop_assert_eq!(back.status.0, code);
        prop_assert_eq!(&back.body, &resp.body);
    }

    /// A pipelined byte stream — several messages back to back — parses
    /// to the same message sequence however the socket splits it: the
    /// parsers never depend on read boundaries, and a parse never eats
    /// into the message behind it.
    #[test]
    fn incremental_parse_chunking(
        reqs in proptest::collection::vec(request_strategy(), 1..5),
        cuts in proptest::collection::vec(1usize..60, 1..8),
    ) {
        let mut requests = Vec::new();
        let mut responses = Vec::new();
        for req in &reqs {
            requests.extend_from_slice(&serialize_request(req));
            responses.extend_from_slice(&serialize_response(&Response {
                status: StatusCode::OK,
                headers: req.headers.clone(),
                body: req.body.clone(),
            }));
        }
        // Pieces of the given sizes, cycled until the stream is spent.
        fn split<'a>(wire: &'a [u8], cuts: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
            let mut at = 0;
            cuts.iter().cycle().map_while(move |&cut| {
                let piece = &wire[at..wire.len().min(at + cut)];
                at += piece.len();
                (!piece.is_empty()).then_some(piece)
            })
        }

        let mut buf = BytesMut::new();
        let mut parsed = Vec::new();
        for piece in split(&requests, &cuts) {
            buf.extend_from_slice(piece);
            while let Some(msg) = parse_request(&mut buf).expect("parse ok") {
                parsed.push(msg);
            }
        }
        prop_assert!(buf.is_empty());
        prop_assert_eq!(parsed.len(), reqs.len());
        for (back, req) in parsed.iter().zip(&reqs) {
            prop_assert_eq!(back.method, req.method);
            prop_assert_eq!(&back.path, &req.path);
            prop_assert_eq!(&back.body, &req.body);
        }

        let mut buf = BytesMut::new();
        let mut bodies = Vec::new();
        for piece in split(&responses, &cuts) {
            buf.extend_from_slice(piece);
            while let Some(msg) = parse_response(&mut buf).expect("parse ok") {
                bodies.push(msg.body);
            }
        }
        prop_assert!(buf.is_empty());
        prop_assert_eq!(bodies, reqs.iter().map(|r| r.body.clone()).collect::<Vec<_>>());
    }

    /// The parser never panics on arbitrary junk: it returns an error or
    /// waits for more input.
    #[test]
    fn parser_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut buf = BytesMut::from(&junk[..]);
        let _ = parse_request(&mut buf);
        let mut buf = BytesMut::from(&junk[..]);
        let _ = parse_response(&mut buf);
    }

    /// Byte-mutation torture: a valid serialized message with 1–4 bytes
    /// flipped, deleted or inserted anywhere — request line, header names
    /// and values, `Content-Length`, body — parses, waits or errors. It
    /// never panics, an incomplete parse leaves the buffer alone, and a
    /// complete one consumes at least a head and at most the buffer. The
    /// same edits on an `X-Sift-Trace` value decode or are refused.
    #[test]
    fn mutated_messages_parse_wait_or_error(
        req in request_strategy(),
        code in 100u16..600,
        edits in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..5),
    ) {
        let trace = sift_obs::SpanContext::from_header(&format!("{:016x}-{code:016x}", 0x5eed))
            .expect("a well-formed context");
        let mut req = req;
        req.headers.set(sift_net::X_SIFT_TRACE, trace.to_header());
        let resp = Response {
            status: StatusCode(code),
            headers: req.headers.clone(),
            body: req.body.clone(),
        };

        let wire = mutate(&serialize_request(&req), &edits);
        let mut buf = BytesMut::from(&wire[..]);
        match parse_request(&mut buf) {
            Ok(Some(back)) => {
                prop_assert!(buf.len() + 4 + back.body.len() <= wire.len());
                if let Some(value) = back.headers.get(sift_net::X_SIFT_TRACE) {
                    let _ = sift_obs::SpanContext::from_header(value);
                }
            }
            Ok(None) => prop_assert_eq!(&buf[..], &wire[..]),
            Err(_) => {}
        }

        let wire = mutate(&serialize_response(&resp), &edits);
        let mut buf = BytesMut::from(&wire[..]);
        match parse_response(&mut buf) {
            Ok(Some(back)) => prop_assert!(buf.len() + 4 + back.body.len() <= wire.len()),
            Ok(None) => prop_assert_eq!(&buf[..], &wire[..]),
            Err(_) => {}
        }

        let header = mutate(trace.to_header().as_bytes(), &edits);
        let _ = sift_obs::SpanContext::from_header(&String::from_utf8_lossy(&header));
    }

    /// Truncation torture: every byte-truncated prefix of a valid
    /// serialized response is incomplete input — the parser waits for
    /// more bytes (`Ok(None)`), never completes early, errors or panics.
    /// This is exactly the wire a `Truncate` fault injection produces.
    #[test]
    fn truncated_response_prefixes_parse_cleanly(
        code in 100u16..600,
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let resp = Response {
            status: StatusCode(code),
            headers: Headers::new(),
            body: Bytes::from(body),
        };
        let wire = serialize_response(&resp);
        for cut in 0..wire.len() {
            let mut buf = BytesMut::from(&wire[..cut]);
            let parsed = parse_response(&mut buf);
            prop_assert!(
                matches!(parsed, Ok(None)),
                "prefix {}/{} must be incomplete, got {:?}",
                cut,
                wire.len(),
                parsed.map(|r| r.map(|m| m.status))
            );
        }
        let mut buf = BytesMut::from(&wire[..]);
        prop_assert!(parse_response(&mut buf).expect("full wire parses").is_some());
    }

    /// The same torture for requests (a client cut off mid-write).
    #[test]
    fn truncated_request_prefixes_parse_cleanly(req in request_strategy()) {
        let wire = serialize_request(&req);
        for cut in 0..wire.len() {
            let mut buf = BytesMut::from(&wire[..cut]);
            let parsed = parse_request(&mut buf);
            prop_assert!(
                matches!(parsed, Ok(None)),
                "prefix {}/{} must be incomplete, got {:?}",
                cut,
                wire.len(),
                parsed.map(|r| r.map(|m| m.path))
            );
        }
    }

    /// Token-bucket conservation: over any request pattern, the number of
    /// allowed requests never exceeds capacity + refill * elapsed.
    #[test]
    fn rate_limiter_conservation(
        gaps in proptest::collection::vec(0u64..2000, 1..60),
        capacity in 1.0f64..20.0,
        refill in 0.5f64..20.0,
    ) {
        let limiter = RateLimiter::new(RateLimiterConfig {
            capacity,
            refill_per_sec: refill,
            ..RateLimiterConfig::default()
        });
        let mut now = 0u64;
        let mut allowed = 0u64;
        for gap in gaps.iter() {
            now += gap;
            if limiter.check("k", now) == RateLimitDecision::Allowed {
                allowed += 1;
            }
        }
        let budget = capacity + refill * now as f64 / 1000.0;
        prop_assert!(
            (allowed as f64) <= budget + 1.0,
            "allowed {} exceeds budget {}",
            allowed,
            budget
        );
    }
}
