//! Incremental HTTP/1.1 message parsing.
//!
//! Both parsers work on a [`BytesMut`] accumulation buffer: callers read
//! from the socket into the buffer and call the parser after every read.
//! `Ok(None)` means "need more bytes"; `Ok(Some(msg))` consumes exactly
//! one message from the front of the buffer, leaving any pipelined bytes
//! in place.

use super::{Headers, Method, Request, Response, StatusCode, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use bytes::{Buf, BytesMut};
use std::fmt;

/// Why a message could not be parsed. All variants are fatal for the
/// connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The request line / status line is malformed.
    BadStartLine(String),
    /// A header line is malformed.
    BadHeader(String),
    /// The method is not supported by this stack.
    UnsupportedMethod(String),
    /// Only HTTP/1.1 (and 1.0 responses) are supported.
    UnsupportedVersion(String),
    /// The head exceeds [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// A POST arrived without a `Content-Length`.
    MissingLength,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            ParseError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            ParseError::UnsupportedMethod(m) => write!(f, "unsupported method: {m:?}"),
            ParseError::UnsupportedVersion(v) => write!(f, "unsupported version: {v:?}"),
            ParseError::HeadTooLarge => write!(f, "message head exceeds {MAX_HEAD_BYTES} bytes"),
            ParseError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes is too large"),
            ParseError::MissingLength => write!(f, "POST without content-length"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Locates the end of the head (`\r\n\r\n`) in `buf`, returning the offset
/// just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Splits a head into its start line and header lines.
fn split_head(head: &[u8]) -> Result<(String, Headers), ParseError> {
    let text =
        std::str::from_utf8(head).map_err(|_| ParseError::BadHeader("non-utf8 head".into()))?;
    let mut lines = text.split("\r\n");
    let start = lines
        .next()
        .ok_or_else(|| ParseError::BadStartLine(String::new()))?
        .to_owned();
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(line.to_owned()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadHeader(line.to_owned()));
        }
        headers.append(name, value.trim().to_owned());
    }
    Ok((start, headers))
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse_request(buf: &mut BytesMut) -> Result<Option<Request>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(ParseError::HeadTooLarge);
    }

    let (start, headers) = split_head(&buf[..head_end - 4])?;
    let mut parts = start.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseError::BadStartLine(start.clone())),
    };
    let method =
        Method::parse(method).ok_or_else(|| ParseError::UnsupportedMethod(method.to_owned()))?;
    if version != "HTTP/1.1" {
        return Err(ParseError::UnsupportedVersion(version.to_owned()));
    }

    let body_len = match method {
        Method::Get => headers.content_length()?.unwrap_or(0),
        Method::Post => headers.content_length()?.ok_or(ParseError::MissingLength)?,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(body_len));
    }
    if buf.len() < head_end + body_len {
        return Ok(None);
    }

    let path = path.to_owned();
    buf.advance(head_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Attempts to parse one response from the front of `buf`.
pub fn parse_response(buf: &mut BytesMut) -> Result<Option<Response>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(ParseError::HeadTooLarge);
    }

    let (start, headers) = split_head(&buf[..head_end - 4])?;
    let mut parts = start.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(ParseError::BadStartLine(start.clone())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion(version.to_owned()));
    }
    let code: u16 = code
        .parse()
        .map_err(|_| ParseError::BadStartLine(start.clone()))?;

    let body_len = headers.content_length()?.ok_or(ParseError::MissingLength)?;
    if body_len > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(body_len));
    }
    if buf.len() < head_end + body_len {
        return Ok(None);
    }

    buf.advance(head_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Some(Response {
        status: StatusCode(code),
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    fn buf(s: &str) -> BytesMut {
        BytesMut::from(s.as_bytes())
    }

    #[test]
    fn parses_complete_get() {
        let mut b = buf("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = parse_request(&mut b).expect("ok").expect("complete");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.headers.get("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(b.is_empty(), "buffer fully consumed");
    }

    #[test]
    fn needs_more_data_until_body_complete() {
        let mut b = buf("POST /api HTTP/1.1\r\ncontent-length: 5\r\n\r\nab");
        assert_eq!(parse_request(&mut b).expect("ok"), None);
        b.put_slice(b"cde");
        let req = parse_request(&mut b).expect("ok").expect("complete");
        assert_eq!(&req.body[..], b"abcde");
    }

    #[test]
    fn pipelined_requests_stay_buffered() {
        let mut b = buf("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let first = parse_request(&mut b).expect("ok").expect("complete");
        assert_eq!(first.path, "/a");
        let second = parse_request(&mut b).expect("ok").expect("complete");
        assert_eq!(second.path, "/b");
        assert!(b.is_empty());
    }

    #[test]
    fn post_without_length_rejected() {
        let mut b = buf("POST /api HTTP/1.1\r\n\r\n");
        assert_eq!(parse_request(&mut b), Err(ParseError::MissingLength));
    }

    #[test]
    fn unparseable_or_conflicting_length_rejected() {
        // Guessing a length here would leave `hello` in the buffer to be
        // parsed as the next request on the keep-alive connection.
        for head in [
            "GET /a HTTP/1.1\r\ncontent-length: 5x\r\n\r\nhello",
            "POST /a HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 5\r\n\r\nhello",
            "POST /a HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
            "POST /a HTTP/1.1\r\ncontent-length:\r\n\r\nhello",
            "GET /a HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
        ] {
            let mut b = buf(head);
            assert!(
                matches!(parse_request(&mut b), Err(ParseError::BadHeader(_))),
                "{head:?}"
            );
            assert_eq!(&b[..], head.as_bytes(), "nothing consumed");
        }
        for head in [
            "HTTP/1.1 200 OK\r\ncontent-length: 5x\r\n\r\nhello",
            "HTTP/1.1 200 OK\r\ncontent-length: 0\r\ncontent-length: 5\r\n\r\nhello",
        ] {
            assert!(
                matches!(
                    parse_response(&mut buf(head)),
                    Err(ParseError::BadHeader(_))
                ),
                "{head:?}"
            );
        }
    }

    #[test]
    fn repeated_equal_lengths_pass() {
        let mut b = buf("POST /a HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 5\r\n\r\nhello");
        let req = parse_request(&mut b).expect("ok").expect("complete");
        assert_eq!(&req.body[..], b"hello");
        assert!(b.is_empty());
        let mut b = buf("HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok");
        let resp = parse_response(&mut b).expect("ok").expect("complete");
        assert_eq!(&resp.body[..], b"ok");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(
            parse_request(&mut buf("BREW /pot HTTP/1.1\r\n\r\n")),
            Err(ParseError::UnsupportedMethod("BREW".into()))
        );
        assert_eq!(
            parse_request(&mut buf("GET / HTTP/0.9\r\n\r\n")),
            Err(ParseError::UnsupportedVersion("HTTP/0.9".into()))
        );
        assert!(matches!(
            parse_request(&mut buf("GET /\r\n\r\n")),
            Err(ParseError::BadStartLine(_))
        ));
        assert!(matches!(
            parse_request(&mut buf("GET / HTTP/1.1\r\nbroken header\r\n\r\n")),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut big = String::from("GET / HTTP/1.1\r\n");
        while big.len() <= MAX_HEAD_BYTES {
            big.push_str("x-filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // No terminating blank line: the parser must bail on size alone.
        let mut b = buf(&big);
        assert_eq!(parse_request(&mut b), Err(ParseError::HeadTooLarge));
    }

    #[test]
    fn oversized_body_rejected() {
        let mut b = buf(&format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ));
        assert_eq!(
            parse_request(&mut b),
            Err(ParseError::BodyTooLarge(MAX_BODY_BYTES + 1))
        );
    }

    #[test]
    fn parses_response() {
        let mut b =
            buf("HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\ncontent-length: 0\r\n\r\n");
        let resp = parse_response(&mut b).expect("ok").expect("complete");
        assert_eq!(resp.status, StatusCode::TOO_MANY_REQUESTS);
        assert_eq!(resp.headers.get("retry-after"), Some("3"));
    }

    #[test]
    fn response_without_length_rejected() {
        let mut b = buf("HTTP/1.1 200 OK\r\n\r\n");
        assert_eq!(parse_response(&mut b), Err(ParseError::MissingLength));
    }

    #[test]
    fn error_display() {
        let e = ParseError::BodyTooLarge(99);
        assert!(e.to_string().contains("99"));
    }
}
