//! Minimal HTTP/1.1 request parsing and response writing over raw
//! `TcpStream`s: the request-head parser and response writer of
//! [`crate::Server`].
//!
//! The split matters for the acceptor/worker design: the acceptor reads
//! only the *head* (request line + headers, bounded), which is enough to
//! route, shed, and size-check a request without ever blocking on a slow
//! body upload; the worker that picks the request up completes the body
//! read under its own timeout. One request per connection,
//! `Connection: close`, no keep-alive, no TLS.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a peer may take to deliver request head or body segments, or
/// to accept the response.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on the request line + headers; a peer that cannot finish its
/// headers in this budget is malformed.
const MAX_HEAD_BYTES: usize = 8192;

/// `Content-Type` of JSON responses.
pub const JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition format.
pub const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The routed portion of a request: everything before the body.
#[derive(Debug)]
pub struct RequestHead {
    /// `GET`, `POST`, ... (uppercased as received).
    pub method: String,
    /// Request target, e.g. `/v1/discover`.
    pub path: String,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Body bytes that arrived in the same segments as the headers.
    pub body_prefix: Vec<u8>,
}

/// Why [`read_head`] produced no request.
#[derive(Debug, PartialEq, Eq)]
pub enum HeadError {
    /// The peer closed or stalled before completing its headers, or sent
    /// no request line (probes, port scanners): drop without a response.
    Incomplete,
    /// `Content-Length` is not one plain decimal `usize` (non-numeric,
    /// signed, overflowing, or repeated with different values): answer
    /// `400`, since the body's extent is unknown.
    BadContentLength,
}

/// Reads the head of one request.
pub fn read_head(stream: &mut TcpStream) -> Result<RequestHead, HeadError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HeadError::Incomplete);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Err(HeadError::Incomplete),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head_text.lines();
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let (Some(method), Some(path)) = (request_line.next(), request_line.next()) else {
        return Err(HeadError::Incomplete);
    };
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        let parsed = value
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| value.parse::<usize>().ok())
            .flatten()
            .ok_or(HeadError::BadContentLength)?;
        if content_length.is_some_and(|seen| seen != parsed) {
            return Err(HeadError::BadContentLength);
        }
        content_length = Some(parsed);
    }
    Ok(RequestHead {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        content_length: content_length.unwrap_or(0),
        body_prefix: buf[header_end + 4..].to_vec(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Completes the body read started by [`read_head`]: the prefix already
/// buffered plus whatever the declared `Content-Length` still owes.
/// Returns `None` if the peer closes or stalls before delivering it all.
pub fn read_body(stream: &mut TcpStream, head: &RequestHead) -> Option<Vec<u8>> {
    let mut body = head.body_prefix.clone();
    if body.len() > head.content_length {
        // More bytes than declared: pipelined garbage; reject.
        return None;
    }
    let mut chunk = [0u8; 4096];
    while body.len() < head.content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    (body.len() == head.content_length).then_some(body)
}

/// Cap on how much of a refused request's body is drained before closing.
const REFUSAL_DRAIN_BYTES: usize = 64 * 1024;

/// Reads and discards the body of a request that is refused without being
/// read (bounded, under the stream's read timeout).
///
/// Refusal paths (shed, oversized, draining, expired, unroutable) answer
/// without ever reading the body — but closing a socket with unread data in
/// its receive buffer makes the kernel send RST, which can destroy the
/// refusal response before the peer reads it. Draining first lets the peer
/// finish its upload and then read the refusal cleanly.
pub fn discard_unread(stream: &mut TcpStream, head: &RequestHead) {
    let unread = head.content_length.saturating_sub(head.body_prefix.len());
    discard(stream, unread.min(REFUSAL_DRAIN_BYTES));
}

/// Reads and discards whatever the peer has already sent (bounded) without
/// waiting for more: the drain for a refused request whose body length is
/// unknown ([`HeadError::BadContentLength`]).
pub fn discard_buffered(stream: &mut TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        discard(stream, REFUSAL_DRAIN_BYTES);
        let _ = stream.set_nonblocking(false);
    }
}

fn discard(stream: &mut TcpStream, limit: usize) {
    let mut remaining = limit;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

/// An HTTP status this server emits, with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// The reason phrase for the status line.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// `"2xx"`, `"4xx"`, or `"5xx"` — the class label used for the
    /// `serve.responses.*` counters.
    pub fn class(self) -> &'static str {
        match self.0 {
            200..=299 => "2xx",
            400..=499 => "4xx",
            _ => "5xx",
        }
    }
}

/// Writes one complete response (head and body in a single write) and
/// flushes it. Errors are swallowed: a peer that hung up mid-response is
/// its own problem, not the server's.
pub fn respond(
    stream: &mut TcpStream,
    status: Status,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status.0,
        status.reason(),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    let _ = stream.write_all(&response).and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(request: &[u8]) -> Result<RequestHead, HeadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(request).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_head(&mut server_side)
    }

    #[test]
    fn parses_method_path_and_length() {
        let head = roundtrip(b"POST /v1/score HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/score");
        assert_eq!(head.content_length, 5);
        assert_eq!(head.body_prefix, b"hello");
    }

    #[test]
    fn header_case_is_ignored() {
        let head = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\n").unwrap();
        assert_eq!(head.content_length, 3);
        assert!(head.body_prefix.is_empty());
    }

    #[test]
    fn garbage_head_is_dropped() {
        assert_eq!(roundtrip(b"\r\n\r\n").unwrap_err(), HeadError::Incomplete);
        assert_eq!(
            roundtrip(b"no newline ever").unwrap_err(),
            HeadError::Incomplete
        );
    }

    fn content_length(values: &[&str]) -> Result<usize, HeadError> {
        let mut request = String::from("POST /v1/score HTTP/1.1\r\n");
        for v in values {
            request.push_str(&format!("Content-Length: {v}\r\n"));
        }
        request.push_str("\r\n");
        roundtrip(request.as_bytes()).map(|head| head.content_length)
    }

    #[test]
    fn overflowing_content_length_is_rejected() {
        assert_eq!(
            content_length(&["99999999999999999999999"]),
            Err(HeadError::BadContentLength)
        );
    }

    #[test]
    fn non_numeric_content_length_is_rejected() {
        assert_eq!(content_length(&["abc"]), Err(HeadError::BadContentLength));
        assert_eq!(content_length(&[""]), Err(HeadError::BadContentLength));
        assert_eq!(content_length(&["5 5"]), Err(HeadError::BadContentLength));
    }

    #[test]
    fn signed_content_length_is_rejected() {
        // `usize::from_str` would accept the `+`; HTTP does not.
        assert_eq!(content_length(&["+5"]), Err(HeadError::BadContentLength));
        assert_eq!(content_length(&["-5"]), Err(HeadError::BadContentLength));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        assert_eq!(
            content_length(&["5", "6"]),
            Err(HeadError::BadContentLength)
        );
        // Identical repeats name one length and stay acceptable.
        assert_eq!(content_length(&["5", "5"]), Ok(5));
        assert_eq!(content_length(&[]), Ok(0));
    }

    #[test]
    fn status_classes_partition() {
        assert_eq!(Status(200).class(), "2xx");
        assert_eq!(Status(429).class(), "4xx");
        assert_eq!(Status(503).class(), "5xx");
        assert_eq!(Status(408).reason(), "Request Timeout");
    }
}
