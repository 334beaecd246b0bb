//! A hand-rolled, panic-free HTTP/1.1 codec over blocking byte streams.
//!
//! The workspace builds offline with stubbed dependencies, so there is no
//! hyper/tokio to lean on; this module hand-rolls the minimal protocol
//! subset the gateway needs:
//! request/response heads, `Content-Length` bodies, and keep-alive
//! connection reuse. The crate denies clippy's `unwrap_used`, `expect_used`,
//! `panic` and `indexing_slicing` — malformed input must surface as
//! [`RecvError::Malformed`] (the server turns it into a 400), never as a
//! panic that takes a worker thread down.

use std::io::{Read, Write};

/// Largest request/response head (request line + headers) accepted.
pub const MAX_HEAD: usize = 16 * 1024;
/// Largest message body accepted.
pub const MAX_BODY: usize = 256 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, verbatim (e.g. `POST`).
    pub method: String,
    /// Request target, verbatim (e.g. `/invoke/acme/3`).
    pub target: String,
    /// Header `(name, value)` pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Message body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// An HTTP/1.1 response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Extra header `(name, value)` pairs (`Content-Length` is added on
    /// send).
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with `status`/`reason` and a text body.
    pub fn text(status: u16, reason: &'static str, body: &str) -> Self {
        Response { status, reason, headers: Vec::new(), body: body.as_bytes().to_vec() }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

/// A parsed HTTP/1.1 response (client side).
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a receive failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly between messages.
    Closed,
    /// The bytes on the wire are not the HTTP subset this codec speaks;
    /// the payload names the first violated rule.
    Malformed(&'static str),
    /// Head or body exceeded [`MAX_HEAD`]/[`MAX_BODY`].
    TooLarge,
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Malformed(why) => write!(f, "malformed message: {why}"),
            RecvError::TooLarge => write!(f, "message too large"),
            RecvError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// A buffered HTTP/1.1 connection: parses requests/responses off `stream`,
/// keeping bytes past the current message for keep-alive reuse.
pub struct Conn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Self {
        Conn { stream, buf: Vec::new() }
    }

    /// Shared transport access (e.g. to set socket timeouts).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    fn fill(&mut self) -> Result<(), RecvError> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).map_err(RecvError::Io)?;
        if n == 0 {
            return Err(RecvError::Closed);
        }
        if let Some(read) = chunk.get(..n) {
            self.buf.extend_from_slice(read);
        }
        Ok(())
    }

    /// Pull one full head (terminated by `\r\n\r\n`) off the wire, returning
    /// it without the terminator. `had_bytes` distinguishes a clean
    /// between-messages close from a mid-message truncation.
    fn recv_head(&mut self) -> Result<String, RecvError> {
        let end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(RecvError::TooLarge);
            }
            match self.fill() {
                Ok(()) => {}
                Err(RecvError::Closed) if !self.buf.is_empty() => {
                    return Err(RecvError::Malformed("truncated head"));
                }
                Err(e) => return Err(e),
            }
        };
        if end > MAX_HEAD {
            return Err(RecvError::TooLarge);
        }
        let head: Vec<u8> = self.buf.drain(..end + 4).take(end).collect();
        String::from_utf8(head).map_err(|_| RecvError::Malformed("head is not utf-8"))
    }

    fn recv_body(&mut self, len: usize) -> Result<Vec<u8>, RecvError> {
        if len > MAX_BODY {
            return Err(RecvError::TooLarge);
        }
        while self.buf.len() < len {
            match self.fill() {
                Ok(()) => {}
                Err(RecvError::Closed) => return Err(RecvError::Malformed("truncated body")),
                Err(e) => return Err(e),
            }
        }
        Ok(self.buf.drain(..len).collect())
    }

    /// Receive one request (server side).
    pub fn recv_request(&mut self) -> Result<Request, RecvError> {
        let head = self.recv_head()?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(RecvError::Malformed("empty head"))?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(RecvError::Malformed("missing method"))?;
        let target = parts.next().ok_or(RecvError::Malformed("missing target"))?;
        let version = parts.next().ok_or(RecvError::Malformed("missing version"))?;
        if parts.next().is_some() {
            return Err(RecvError::Malformed("extra tokens in request line"));
        }
        if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(RecvError::Malformed("bad method"));
        }
        if !target.starts_with('/') {
            return Err(RecvError::Malformed("target must be absolute"));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(RecvError::Malformed("unsupported version"));
        }
        let headers = parse_headers(lines)?;
        let body_len = content_length(&headers)?;
        let body = self.recv_body(body_len)?;
        Ok(Request { method: method.to_string(), target: target.to_string(), headers, body })
    }

    /// Receive one response (client side).
    pub fn recv_response(&mut self) -> Result<ClientResponse, RecvError> {
        let head = self.recv_head()?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(RecvError::Malformed("empty head"))?;
        let rest = status_line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
            .ok_or(RecvError::Malformed("bad status line"))?;
        let code = rest.split(' ').next().ok_or(RecvError::Malformed("missing status code"))?;
        let status: u16 = code.parse().map_err(|_| RecvError::Malformed("bad status code"))?;
        let headers = parse_headers(lines)?;
        let body_len = content_length(&headers)?;
        let body = self.recv_body(body_len)?;
        Ok(ClientResponse { status, headers, body })
    }

    /// Send a response (server side).
    pub fn send_response(&mut self, resp: &Response) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
        for (k, v) in &resp.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        self.send_message(head, &resp.body)
    }

    /// Send a request (client side).
    pub fn send_request(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<()> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: libra-gateway\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.send_message(head, body)
    }

    /// Head and body leave in one `write`. Written apart, the body is a
    /// second small segment that Nagle's algorithm holds until the peer
    /// acknowledges the head — and on a keep-alive connection the peer delays
    /// that acknowledgement (~40 ms) waiting for data of its own to carry it.
    fn send_message(&mut self, head: String, body: &[u8]) -> std::io::Result<()> {
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        self.stream.write_all(&message)?;
        self.stream.flush()
    }
}

fn parse_headers<'a, I: Iterator<Item = &'a str>>(
    lines: I,
) -> Result<Vec<(String, String)>, RecvError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or(RecvError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RecvError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > 100 {
            return Err(RecvError::TooLarge);
        }
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<usize, RecvError> {
    match headers.iter().find(|(k, _)| k == "content-length") {
        None => Ok(0),
        Some((_, v)) => v.parse().map_err(|_| RecvError::Malformed("bad content-length")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory stream: reads from a script, collects and counts writes.
    struct Script {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
        writes: usize,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn conn(input: &str) -> Conn<Script> {
        Conn::new(Script {
            input: std::io::Cursor::new(input.as_bytes().to_vec()),
            output: Vec::new(),
            writes: 0,
        })
    }

    #[test]
    fn parses_a_request_with_body() {
        let mut c = conn("POST /invoke/a/0 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody");
        let r = c.recv_request().expect("valid request");
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/invoke/a/0");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn keep_alive_reuses_leftover_bytes() {
        let mut c = conn("GET /metrics HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(c.recv_request().expect("first").target, "/metrics");
        assert_eq!(c.recv_request().expect("second").target, "/healthz");
        assert!(matches!(c.recv_request(), Err(RecvError::Closed)));
    }

    #[test]
    fn malformed_heads_are_errors_not_panics() {
        for bad in [
            "NOT-HTTP\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/9.9\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            "\u{0}\u{0}\u{0}\u{0}\r\n\r\n",
        ] {
            let got = conn(bad).recv_request();
            assert!(
                matches!(got, Err(RecvError::Malformed(_))),
                "{bad:?} must be Malformed, got {got:?}"
            );
        }
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD + 1));
        assert!(matches!(conn(&huge).recv_request(), Err(RecvError::TooLarge)));
        let body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(conn(&body).recv_request(), Err(RecvError::TooLarge)));
    }

    #[test]
    fn response_roundtrip() {
        let mut c =
            conn("HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nno");
        let r = c.recv_response().expect("valid response");
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("2"));
        assert_eq!(r.body, b"no");
    }

    /// A message written in two pieces stalls on a keep-alive socket (see
    /// `send_message`): head and body must reach the stream in one `write`.
    #[test]
    fn each_message_is_one_write() {
        let mut c = conn("");
        let resp =
            Response::text(429, "Too Many Requests", "slow down").with_header("Retry-After", "2");
        c.send_response(&resp).expect("in-memory write");
        assert_eq!(c.stream.writes, 1);
        assert_eq!(
            c.stream.output,
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: 9\r\n\r\nslow down"
        );

        let mut c = conn("");
        c.send_request("POST", "/invoke/a/0", b"body").expect("in-memory write");
        assert_eq!(c.stream.writes, 1);
        assert_eq!(
            c.stream.output,
            b"POST /invoke/a/0 HTTP/1.1\r\nHost: libra-gateway\r\nContent-Length: 4\r\n\r\nbody"
        );
    }
}
