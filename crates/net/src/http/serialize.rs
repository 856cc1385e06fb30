//! HTTP/1.1 message serialization.

use super::{Request, Response};
use bytes::{BufMut, Bytes, BytesMut};

/// Serializes a request, always emitting an accurate `Content-Length`.
pub fn serialize_request(req: &Request) -> Bytes {
    let mut out = BytesMut::with_capacity(128 + req.body.len());
    out.put_slice(req.method.as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(req.path.as_bytes());
    out.put_slice(b" HTTP/1.1\r\n");
    for (name, value) in req.headers.iter() {
        if name == "content-length" {
            continue; // always recomputed below
        }
        put_header(&mut out, name, value);
    }
    put_header(&mut out, "content-length", &req.body.len().to_string());
    out.put_slice(b"\r\n");
    out.put_slice(&req.body);
    out.freeze()
}

/// Serializes a response, always emitting an accurate `Content-Length`.
pub fn serialize_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::with_capacity(128 + resp.body.len());
    out.put_slice(b"HTTP/1.1 ");
    out.put_slice(resp.status.0.to_string().as_bytes());
    out.put_u8(b' ');
    out.put_slice(resp.status.reason().as_bytes());
    out.put_slice(b"\r\n");
    for (name, value) in resp.headers.iter() {
        if name == "content-length" {
            continue;
        }
        put_header(&mut out, name, value);
    }
    put_header(&mut out, "content-length", &resp.body.len().to_string());
    out.put_slice(b"\r\n");
    out.put_slice(&resp.body);
    out.freeze()
}

fn put_header(out: &mut BytesMut, name: &str, value: &str) {
    out.put_slice(name.as_bytes());
    out.put_slice(b": ");
    out.put_slice(value.as_bytes());
    out.put_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, parse_response, Method, StatusCode};
    use bytes::BytesMut;

    #[test]
    fn request_round_trip() {
        let mut req = Request::get("/api/x?y=1");
        req.headers.set("x-fetcher-ip", "127.0.0.9");
        let wire = serialize_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        let back = parse_request(&mut buf).expect("ok").expect("complete");
        assert_eq!(back.method, Method::Get);
        assert_eq!(back.path, "/api/x?y=1");
        assert_eq!(back.headers.get("x-fetcher-ip"), Some("127.0.0.9"));
        assert_eq!(back.headers.content_length(), Ok(Some(0)));
    }

    #[test]
    fn response_round_trip_with_body() {
        let resp = Response::text(StatusCode::OK, "hello");
        let wire = serialize_response(&resp);
        let mut buf = BytesMut::from(&wire[..]);
        let back = parse_response(&mut buf).expect("ok").expect("complete");
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(&back.body[..], b"hello");
    }

    #[test]
    fn content_length_is_always_recomputed() {
        let mut req = Request::get("/");
        req.headers.set("content-length", "9999"); // stale / wrong
        let wire = serialize_request(&req);
        let text = std::str::from_utf8(&wire).expect("utf8");
        assert!(text.contains("content-length: 0\r\n"));
        assert!(!text.contains("9999"));
    }
}
