//! HTTP/1.1 message types, parsing and serialization.

mod parse;
mod serialize;

pub use parse::{parse_request, parse_response, ParseError};
pub use serialize::{serialize_request, serialize_response};

use bytes::Bytes;
use std::fmt;
use std::time::Duration;

/// Maximum accepted size of a message head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted body size.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Hard ceiling on any server-supplied `Retry-After` hint. A server (or a
/// middlebox mangling the header) telling a crawler to come back in a
/// week must not stall a retry loop; anything past this cap degrades to
/// the cap, and a caller's own ceiling still applies on top.
pub(crate) const MAX_SERVER_HINT: Duration = Duration::from_secs(60);

/// The request methods the stack supports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// GET: no request body.
    Get,
    /// POST: body framed by `Content-Length`.
    Post,
}

impl Method {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code with its canonical reason phrase.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 405 Method Not Allowed.
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// 429 Too Many Requests — the service's rate limiter speaks this.
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// True for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// The canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive header map.
///
/// Headers preserve insertion order (serialization is deterministic) and
/// compare names ASCII-case-insensitively, as HTTP requires. Names are
/// stored lower-cased.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Appends a header (does not replace existing values).
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        self.entries.push((name.to_ascii_lowercase(), value.into()));
    }

    /// Sets a header, replacing any existing values of the same name.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let lower = name.to_ascii_lowercase();
        self.entries.retain(|(n, _)| *n != lower);
        self.entries.push((lower, value.into()));
    }

    /// First value of a header, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The message's `Content-Length`: `Ok(None)` when absent. A value
    /// that is not a plain decimal `usize` (`5x`, `+5`, empty), or two
    /// fields that disagree, is [`ParseError::BadHeader`] — a length the
    /// parser guessed at leaves the rest of the body to be read as the
    /// next message on a keep-alive connection (RFC 7230 §3.3.3).
    /// Repeated equal values pass.
    pub fn content_length(&self) -> Result<Option<usize>, ParseError> {
        let mut length = None;
        for (_, v) in self.iter().filter(|(n, _)| *n == "content-length") {
            let v = v.trim();
            // `str::parse` alone would take `+5`.
            let n: Option<usize> = if v.bytes().all(|b| b.is_ascii_digit()) {
                v.parse().ok()
            } else {
                None
            };
            match n {
                Some(n) if !length.is_some_and(|first| first != n) => length = Some(n),
                _ => return Err(ParseError::BadHeader(format!("content-length: {v}"))),
            }
        }
        Ok(length)
    }

    /// True if the message asks for the connection to be closed.
    pub fn wants_close(&self) -> bool {
        self.get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// Request target (path + optional query), e.g. `/api/frame`.
    pub path: String,
    /// Header fields.
    pub headers: Headers,
    /// The body (empty for bodiless requests).
    pub body: Bytes,
}

impl Request {
    /// A bodiless GET.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A POST carrying a JSON document.
    pub fn post_json<T: serde::Serialize>(
        path: impl Into<String>,
        value: &T,
    ) -> Result<Request, serde_json::Error> {
        let body = serde_json::to_vec(value)?;
        let mut headers = Headers::new();
        headers.set("content-type", "application/json");
        Ok(Request {
            method: Method::Post,
            path: path.into(),
            headers,
            body: Bytes::from(body),
        })
    }

    /// Deserializes the body as JSON.
    pub fn json<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: Headers,
    /// The body.
    pub body: Bytes,
}

impl Response {
    /// An empty response with the given status.
    pub fn empty(status: StatusCode) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A 200 response carrying a JSON document.
    pub fn json<T: serde::Serialize>(value: &T) -> Result<Response, serde_json::Error> {
        Self::json_with_status(StatusCode::OK, value)
    }

    /// A response with an explicit status carrying a JSON document.
    pub fn json_with_status<T: serde::Serialize>(
        status: StatusCode,
        value: &T,
    ) -> Result<Response, serde_json::Error> {
        let body = serde_json::to_vec(value)?;
        let mut headers = Headers::new();
        headers.set("content-type", "application/json");
        Ok(Response {
            status,
            headers,
            body: Bytes::from(body),
        })
    }

    /// A plain-text response.
    pub fn text(status: StatusCode, text: impl Into<String>) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", "text/plain; charset=utf-8");
        Response {
            status,
            headers,
            body: Bytes::from(text.into().into_bytes()),
        }
    }

    /// Deserializes the body as JSON.
    pub fn parse_json<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// The server's explicit `Retry-After` hint, if the response carries a
    /// usable one. Defensive by design: an empty value, non-numeric garbage
    /// (`"soon"`, HTTP-dates, `"2.5"`), or a number too large for `u64` all
    /// parse as *absent*, sending the caller to its own backoff instead of
    /// trusting the wire verbatim. Values that do parse are capped at 60 s.
    pub fn retry_after(&self) -> Option<Duration> {
        let secs: u64 = self.headers.get("retry-after")?.trim().parse().ok()?;
        Some(Duration::from_secs(secs).min(MAX_SERVER_HINT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_case_insensitivity() {
        let mut h = Headers::new();
        h.set("Content-Length", "42");
        assert_eq!(h.get("content-length"), Some("42"));
        assert_eq!(h.get("CONTENT-LENGTH"), Some("42"));
        assert_eq!(h.content_length(), Ok(Some(42)));
    }

    #[test]
    fn set_replaces_append_accumulates() {
        let mut h = Headers::new();
        h.append("x-a", "1");
        h.append("X-A", "2");
        assert_eq!(h.len(), 2);
        assert_eq!(h.get("x-a"), Some("1"), "get returns the first value");
        h.set("x-a", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
    }

    #[test]
    fn wants_close_detection() {
        let mut h = Headers::new();
        assert!(!h.wants_close());
        h.set("connection", "keep-alive");
        assert!(!h.wants_close());
        h.set("connection", "Close");
        assert!(h.wants_close());
    }

    #[test]
    fn json_request_round_trip() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Doc {
            a: u32,
            b: String,
        }
        let doc = Doc {
            a: 7,
            b: "x".into(),
        };
        let req = Request::post_json("/t", &doc).expect("encode");
        assert_eq!(req.headers.get("content-type"), Some("application/json"));
        let back: Doc = req.json().expect("decode");
        assert_eq!(back, doc);
    }

    #[test]
    fn status_display_and_success() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
        assert_eq!(
            StatusCode::TOO_MANY_REQUESTS.to_string(),
            "429 Too Many Requests"
        );
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert_eq!(StatusCode(418).reason(), "Unknown");
    }
}
