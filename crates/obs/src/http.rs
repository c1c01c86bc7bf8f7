//! Minimal bounded HTTP/1.x plumbing shared by the Prometheus exporter
//! ([`crate::export`]) and the `xmodel serve` daemon (`xmodel-serve`).
//!
//! Std-only by design — no HTTP framework, no new dependencies — but
//! hardened against the failure modes a socket facing real clients
//! sees:
//!
//! * **Bounded reads.** The request line + headers are capped at
//!   [`HttpLimits::max_head_bytes`] and the body at
//!   [`HttpLimits::max_body_bytes`]; a client streaming an endless
//!   header line gets a typed [`HttpError::TooLarge`], not unbounded
//!   memory growth (the exporter's original `read_line` loop had
//!   exactly that exposure).
//! * **Connection timeouts.** Every read and write carries
//!   [`HttpLimits::io_timeout`]; a slow or stalled client becomes a
//!   typed [`HttpError::Timeout`] instead of a hung handler thread.
//! * **Typed malformation.** Torn request lines, truncated bodies and
//!   unparseable framing surface as [`HttpError::Malformed`] with a
//!   static reason, each mapping to a canonical status code via
//!   [`HttpError::status`].
//!
//! The parser handles exactly the shape these servers need: one
//! request per connection, `Content-Length` framing (no chunked
//! encoding), `Connection: close` responses.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default cap on request-line + header bytes.
pub const DEFAULT_MAX_HEAD_BYTES: usize = 8 * 1024;

/// Default cap on request-body bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024;

/// Default per-connection read/write timeout.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Read/size bounds applied to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers before [`HttpError::TooLarge`].
    pub max_head_bytes: usize,
    /// Maximum declared/accepted body bytes before [`HttpError::TooLarge`].
    pub max_body_bytes: usize,
    /// Socket read/write timeout; expiry is [`HttpError::Timeout`].
    pub io_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            io_timeout: DEFAULT_IO_TIMEOUT,
        }
    }
}

/// Why a request could not be read. Each variant maps to a canonical
/// HTTP status via [`HttpError::status`], so handlers can answer
/// instead of hanging up.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (reset, broken pipe, ...).
    Io(io::Error),
    /// The client was slower than [`HttpLimits::io_timeout`].
    Timeout,
    /// A size limit was exceeded.
    TooLarge {
        /// What grew past the limit (`"request head"` / `"request body"`).
        what: &'static str,
        /// The limit in bytes.
        limit: usize,
    },
    /// The bytes received do not parse as an HTTP request.
    Malformed(&'static str),
}

impl HttpError {
    /// Canonical `(status, reason)` for this error: 408 for timeouts,
    /// 413 for oversize requests, 400 for everything malformed.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::TooLarge { .. } => (413, "Payload Too Large"),
            HttpError::Io(_) | HttpError::Malformed(_) => (400, "Bad Request"),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Timeout => write!(f, "client read/write timed out"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds {limit} bytes")
            }
            HttpError::Malformed(reason) => write!(f, "malformed request: {reason}"),
        }
    }
}

fn map_io(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-case as received.
    pub method: String,
    /// Request target (path + query), verbatim.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` framed; empty when absent).
    pub body: String,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Index just past the first blank line (`\r\n\r\n` or `\n\n`), if any.
fn head_end(bytes: &[u8]) -> Option<usize> {
    if let Some(i) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(i + 4);
    }
    bytes.windows(2).position(|w| w == b"\n\n").map(|i| i + 2)
}

/// Read and parse one request from `stream` under `limits`. Applies the
/// read/write timeouts to the stream as a side effect, so a later
/// [`write_response`] on the same stream is bounded too.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(limits.io_timeout))
        .map_err(HttpError::Io)?;
    stream
        .set_write_timeout(Some(limits.io_timeout))
        .map_err(HttpError::Io)?;

    // Accumulate until the blank line ending the head; anything after
    // it is the start of the body.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let body_start = loop {
        if let Some(end) = head_end(&buf) {
            break end;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::TooLarge {
                what: "request head",
                limit: limits.max_head_bytes,
            });
        }
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before end of headers",
            ));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };

    let (head_bytes, body_prefix) = buf.split_at(body_start);
    let head = String::from_utf8_lossy(head_bytes);
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line has no target"))?
        .to_string();

    let mut headers = Vec::new();
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("unparseable Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge {
            what: "request body",
            limit: limits.max_body_bytes,
        });
    }

    let mut body = body_prefix.to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
        let want = content_length - body.len();
        body.extend_from_slice(chunk.get(..n.min(want)).unwrap_or_default());
    }

    Ok(Request {
        method,
        path,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// One response, written with `Connection: close` framing.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Reason phrase for the status codes these servers emit.
    pub fn reason_for(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }

    /// A `200 OK` response.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Self::with_status(200, content_type, body)
    }

    /// A response with an arbitrary status and canonical reason phrase.
    pub fn with_status(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            reason: Self::reason_for(status),
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    /// Builder-style extra header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

/// Serialize `response` to `stream` (with `Content-Length` and
/// `Connection: close`) and flush. The stream's write timeout (set by
/// [`read_request`], or by the caller) bounds the whole write.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut out = String::with_capacity(response.body.len() + 128);
    out.push_str(&format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len(),
    ));
    for (name, value) in &response.headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8], limits: HttpLimits) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("send");
            // Keep the socket open briefly so the server sees a stall,
            // not EOF, when it wants more bytes than were sent.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let result = read_request(&mut stream, &limits);
        client.join().expect("client thread");
        result
    }

    #[test]
    fn parses_post_with_body_and_headers() {
        let raw = b"POST /solve HTTP/1.1\r\nHost: x\r\nX-Deadline-Ms: 250\r\n\
                    Content-Length: 11\r\n\r\nhello world";
        let req = round_trip(raw, HttpLimits::default()).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.header("X-DEADLINE-MS"), Some("250"));
        assert_eq!(req.body, "hello world");
    }

    #[test]
    fn oversized_head_is_typed_not_unbounded() {
        let mut raw = b"GET /metrics HTTP/1.1\r\nX-Junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        let limits = HttpLimits {
            max_head_bytes: 1024,
            ..Default::default()
        };
        match round_trip(&raw, limits) {
            Err(HttpError::TooLarge { what, limit }) => {
                assert_eq!(what, "request head");
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading_it() {
        let raw = b"POST /solve HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        match round_trip(raw, HttpLimits::default()) {
            Err(HttpError::TooLarge { what, .. }) => assert_eq!(what, "request body"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn slow_client_times_out_instead_of_hanging() {
        let limits = HttpLimits {
            io_timeout: Duration::from_millis(100),
            ..Default::default()
        };
        let started = std::time::Instant::now();
        match round_trip(b"GET /metr", limits) {
            Err(HttpError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(2), "bounded wait");
    }

    #[test]
    fn torn_body_is_malformed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")
                .expect("send");
            s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let result = read_request(&mut stream, &HttpLimits::default());
        client.join().expect("client thread");
        match result {
            Err(HttpError::Malformed(reason)) => assert!(reason.contains("mid-body")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn error_statuses_are_canonical() {
        assert_eq!(HttpError::Timeout.status().0, 408);
        assert_eq!(
            HttpError::TooLarge {
                what: "request head",
                limit: 1
            }
            .status()
            .0,
            413
        );
        assert_eq!(HttpError::Malformed("x").status().0, 400);
        assert_eq!(Response::reason_for(429), "Too Many Requests");
    }

    #[test]
    fn write_response_emits_content_length_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let resp = Response::with_status(429, "application/json", "{\"e\":1}".to_string())
                .header("Retry-After", "1");
            write_response(&mut stream, &resp).expect("write");
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        server.join().expect("server thread");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("{\"e\":1}"));
    }
}
