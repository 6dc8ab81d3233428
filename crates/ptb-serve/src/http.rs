//! Minimal HTTP/1.1 framing over blocking `std::net` streams, with
//! keep-alive and request pipelining.
//!
//! The service speaks just enough HTTP for its two codecs: requests are
//! read through a [`ConnReader`] that buffers leftover bytes between
//! requests on one connection, so a client may keep a connection open
//! (HTTP/1.1 default) and even write its next request before reading
//! the previous response (pipelining). No chunked transfer encoding, no
//! TLS. This keeps the daemon dependency-free (the build environment is
//! offline; see the workspace `Cargo.toml` header) while remaining
//! compatible with `curl`, browsers, and the bundled `ptb-load` client.
//!
//! Codec negotiation is per request via `Content-Type`:
//! `application/x-ptbw` selects the binary `PTBW1` codec
//! ([`crate::wire`]); anything else (or no body) is JSON. The full
//! contract lives in `docs/PROTOCOL.md`.
//!
//! Robustness is the contract here, not coverage of the RFC: arbitrary,
//! truncated, oversized, or malicious bytes must produce a 4xx response
//! (or a clean close), never a panic and never unbounded memory growth.
//! `ptb-serve/tests/http_robustness.rs` property-tests this.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum size of the request head (request line + headers) in bytes.
/// Heads beyond this produce `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Maximum accepted request body size in bytes. Larger declared or
/// actual bodies produce `413 Content Too Large`. The service's biggest
/// legitimate request (an inline network spec) is well under 1 MiB.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// How long a connection may dribble its *first* request before being
/// dropped. Prevents idle or stalled clients from pinning a worker.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a kept-alive connection may sit idle between requests
/// before the server closes it. Shorter than [`READ_TIMEOUT`]: an idle
/// reused connection has already proven it can speak, and the worker it
/// pins is a scarce resource.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Upper bound on requests served over one connection; the response to
/// request number `MAX_REQUESTS_PER_CONN` closes. Bounds per-connection
/// resource lifetime without ever bothering a legitimate client.
pub const MAX_REQUESTS_PER_CONN: usize = 1024;

/// The socket settings every accepted connection gets, in both daemons:
/// [`READ_TIMEOUT`] on reads (the first request's deadline) and on
/// writes, so a client that stops reading a large response cannot pin
/// the thread writing it; and `TCP_NODELAY`, because keep-alive
/// exchanges are latency-bound request/response traffic that Nagle
/// batching would serialize on delayed ACKs.
pub fn configure_accepted(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
}

/// Which wire codec a request (and therefore its response) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Text JSON bodies (`application/json`); the default.
    Json,
    /// `PTBW1` binary frames ([`crate::wire`]), negotiated by
    /// `Content-Type: application/x-ptbw`.
    Binary,
}

impl Codec {
    /// The `Content-Type` value this codec's responses carry.
    pub fn content_type(self) -> &'static str {
        match self {
            Codec::Json => "application/json",
            Codec::Binary => crate::wire::CONTENT_TYPE,
        }
    }
}

/// A parsed request: method, target path, body, and the connection
/// semantics negotiated by its headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client per HTTP (`GET`,
    /// `POST`, ...). Not validated against a method whitelist here;
    /// routing rejects what it does not know.
    pub method: String,
    /// The request target as sent (e.g. `/simulate`, `/jobs/3`).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The negotiated codec (`Content-Type: application/x-ptbw` selects
    /// [`Codec::Binary`]; everything else is JSON).
    pub codec: Codec,
    /// Whether the client wants the connection kept open after the
    /// response: HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and
    /// a `Connection: close`/`keep-alive` header overrides either. The
    /// server may still close (see `docs/PROTOCOL.md`).
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line, header syntax, or framing; or the
    /// connection closed/stalled mid-request. -> `400 Bad Request`.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`]. -> `431`.
    HeadTooLarge,
    /// Declared body exceeded [`MAX_BODY_BYTES`]. -> `413`.
    BodyTooLarge,
    /// The connection ended (EOF or idle timeout) *between* requests,
    /// with no partial request pending — a clean close, not a protocol
    /// error. No response is owed; the nominal status is `408`.
    Idle,
}

impl RequestError {
    /// The HTTP status code this error reports as.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::BodyTooLarge => 413,
            RequestError::Idle => 408,
        }
    }

    /// Human-readable detail for the error response body.
    pub fn detail(&self) -> String {
        match self {
            RequestError::Malformed(m) => m.clone(),
            RequestError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RequestError::BodyTooLarge => {
                format!("request body exceeds {MAX_BODY_BYTES} bytes")
            }
            RequestError::Idle => "connection idle".into(),
        }
    }
}

/// A buffered request reader for one connection.
///
/// Bytes read from the stream but not consumed by the current request
/// stay buffered for the next one — this is what makes keep-alive and
/// pipelining work: a client may send two requests back to back, and
/// the second is parsed entirely from the buffer without touching the
/// socket again.
pub struct ConnReader<S> {
    stream: S,
    /// Bytes read from the socket but not yet consumed by a request.
    buf: Vec<u8>,
    socket_reads: u64,
}

impl<S: Read> ConnReader<S> {
    /// Wraps a stream. The reader owns no timeout policy; set read
    /// timeouts on the underlying socket between calls.
    pub fn new(stream: S) -> Self {
        ConnReader {
            stream,
            buf: Vec::with_capacity(512),
            socket_reads: 0,
        }
    }

    /// Bytes already buffered for the next request (nonzero after a
    /// pipelined client wrote ahead).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// How many socket reads this reader has performed — unchanged
    /// across a `read_request` call iff that request was served entirely
    /// from the buffer (i.e. it was pipelined).
    pub fn socket_reads(&self) -> u64 {
        self.socket_reads
    }

    /// One socket read appended to the buffer. `Ok(0)` is EOF.
    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 1024];
        let n = self.stream.read(&mut chunk)?;
        self.socket_reads += 1;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Ensures at least `want` buffered bytes, or errors. EOF and I/O
    /// errors (including timeouts) with an empty buffer are
    /// [`RequestError::Idle`] — the connection simply ended between
    /// requests; with a partial request pending they are `Malformed`.
    fn fill_to(&mut self, want: usize, what: &str) -> Result<(), RequestError> {
        while self.buf.len() < want {
            match self.fill() {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        RequestError::Idle
                    } else {
                        RequestError::Malformed(format!("connection closed {what}"))
                    })
                }
                Ok(_) => {}
                Err(e) => {
                    return Err(if self.buf.is_empty() {
                        RequestError::Idle
                    } else {
                        RequestError::Malformed(format!("read {what}: {e}"))
                    })
                }
            }
        }
        Ok(())
    }

    /// Reads one HTTP/1.1 request, leaving any bytes past it buffered
    /// for the next call.
    pub fn read_request(&mut self) -> Result<Request, RequestError> {
        // Accumulate until the head terminator appears (it may already
        // be buffered from a pipelined write).
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RequestError::HeadTooLarge);
            }
            // +1 forces a socket read: we need more bytes than we have.
            self.fill_to(self.buf.len() + 1, "before end of request head")?;
        };

        let parsed = parse_head(&self.buf[..head_end])?;
        if parsed.content_length > MAX_BODY_BYTES {
            return Err(RequestError::BodyTooLarge);
        }
        let total = head_end + parsed.content_length;
        self.fill_to(total, "before end of request body")?;

        let body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        Ok(Request {
            method: parsed.method,
            path: parsed.path,
            body,
            codec: parsed.codec,
            keep_alive: parsed.keep_alive,
        })
    }
}

/// Reads one request from a stream with no connection reuse — the
/// one-shot entry point used by tests; the server holds a [`ConnReader`]
/// across requests instead.
pub fn read_request(stream: &mut impl Read) -> Result<Request, RequestError> {
    ConnReader::new(stream).read_request()
}

/// The parsed request head, before the body is read.
struct ParsedHead {
    method: String,
    path: String,
    content_length: usize,
    codec: Codec,
    keep_alive: bool,
}

/// Parses the request line and headers (everything before the blank
/// line, terminator included in `head`).
fn parse_head(head: &[u8]) -> Result<ParsedHead, RequestError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    let mut codec = Codec::Json;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("malformed header line {line:?}")))?;
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only (`usize::from_str` would take `+5`), and
            // repeats must agree: an intermediary that honors the first
            // of two different values would frame another body
            // (RFC 9112 §6.3).
            let digits = value.trim();
            let length = match digits.parse::<usize>() {
                Ok(n) if digits.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => {
                    return Err(RequestError::Malformed(format!(
                        "bad Content-Length {value:?}"
                    )))
                }
            };
            if content_length.is_some_and(|seen| seen != length) {
                return Err(RequestError::Malformed(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RequestError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        } else if name.eq_ignore_ascii_case("content-type") {
            // Parameters (`; charset=...`) don't change the codec.
            let media = value.trim().split(';').next().unwrap_or("").trim();
            if media.eq_ignore_ascii_case(crate::wire::CONTENT_TYPE) {
                codec = Codec::Binary;
            }
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(ParsedHead {
        method: method.to_string(),
        path: path.to_string(),
        content_length: content_length.unwrap_or(0),
        codec,
        keep_alive,
    })
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Media type of `body` (e.g. `application/json`).
    pub content_type: &'static str,
    /// Response payload.
    pub body: Vec<u8>,
    /// When set, a `Retry-After: N` header (seconds) is emitted —
    /// backpressure guidance on `503` responses.
    pub retry_after: Option<u64>,
    /// When set, a `Location:` header is emitted — the redirect target
    /// on `307` responses from a demoted cluster coordinator (see
    /// `docs/PROTOCOL.md` §7).
    pub location: Option<String>,
    /// Whether the server closes the connection after this response
    /// (`Connection: close` vs `keep-alive`). Constructors default to
    /// `true`; the keep-alive loop clears it when the connection
    /// persists, so one-shot call sites keep the old behavior.
    pub close: bool,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            location: None,
            close: true,
        }
    }

    /// An error response with a JSON `{"error": detail}` body.
    pub fn error(status: u16, detail: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: format!(
                "{{\"error\": {}}}",
                serde_json::to_string(&detail).expect("string serialization"),
            )
            .into_bytes(),
            retry_after: None,
            location: None,
            close: true,
        }
    }

    /// A `307 Temporary Redirect` to `target` (a `http://host:port`
    /// base URL) — how a demoted coordinator points clients at the
    /// active one. `307` (not `302`) so the client repeats the same
    /// method and body against the target.
    pub fn redirect(target: &str) -> Self {
        let mut resp = Response::error(307, &format!("not the active coordinator; try {target}"));
        resp.location = Some(target.to_string());
        resp
    }

    /// A `503 Service Unavailable` carrying `Retry-After` backpressure
    /// guidance — the contract for a full queue or an expired deadline
    /// (`ptb-load`'s retry loop honors the header).
    pub fn unavailable(detail: &str, retry_after_secs: u64) -> Self {
        let mut resp = Response::error(503, detail);
        resp.retry_after = Some(retry_after_secs);
        resp
    }

    /// Serializes the response to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let retry = self
            .retry_after
            .map(|s| format!("Retry-After: {s}\r\n"))
            .unwrap_or_default();
        let location = self
            .location
            .as_deref()
            .map(|t| format!("Location: {t}\r\n"))
            .unwrap_or_default();
        let conn = if self.close { "close" } else { "keep-alive" };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry}{location}Connection: {conn}\r\n\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response to `stream`; errors are ignored (the client
    /// may have hung up, which is its prerogative).
    pub fn write_to(&self, stream: &mut impl Write) {
        let _ = stream.write_all(&self.to_bytes());
        let _ = stream.flush();
    }
}

/// Reason phrase for the status codes this service emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut std::io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_get_and_post() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/healthz"));
        assert!(r.body.is_empty());
        assert_eq!((r.codec, r.keep_alive), (Codec::Json, true));

        let r = parse(b"POST /simulate HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn negotiates_codec_and_connection_headers() {
        let r = parse(
            b"POST /simulate HTTP/1.1\r\nContent-Type: application/x-ptbw\r\n\
              Content-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.codec, Codec::Binary);

        let r =
            parse(b"POST /x HTTP/1.1\r\nContent-Type: APPLICATION/X-PTBW; v=1\r\n\r\n").unwrap();
        assert_eq!(r.codec, Codec::Binary, "case-insensitive, params ignored");

        let r = parse(b"POST /x HTTP/1.1\r\nContent-Type: application/json\r\n\r\n").unwrap();
        assert_eq!(r.codec, Codec::Json);

        let r = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = parse(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn body_may_arrive_with_the_head_or_after_it() {
        // Cursor delivers everything at once: buffered path.
        let r = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_buffer() {
        let two =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut cursor = std::io::Cursor::new(two.to_vec());
        let mut reader = ConnReader::new(&mut cursor);
        let first = reader.read_request().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(reader.buffered() > 0, "second request stays buffered");
        let reads_before = reader.socket_reads();
        let second = reader.read_request().unwrap();
        assert_eq!(
            (second.path.as_str(), second.body.as_slice()),
            ("/simulate", &b"hi"[..])
        );
        assert_eq!(
            reader.socket_reads(),
            reads_before,
            "second request needed no socket read"
        );
        // A third read finds a cleanly exhausted connection.
        assert_eq!(reader.read_request().unwrap_err(), RequestError::Idle);
    }

    #[test]
    fn malformed_requests_are_4xx_not_panics() {
        for (bytes, status) in [
            (&b"\r\n\r\n"[..], 400),
            (b"GET\r\n\r\n", 400),
            (b"GET /x\r\n\r\n", 400),
            (b"GET /x SPDY/9\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: -0\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: \r\n\r\n", 400),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello",
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 5\r\n\r\nhello",
                400,
            ),
            (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ),
            (b"GET /x HTTP/1.1\r\nHost: x\r\n", 400), // truncated head
            (b"\xff\xfe GET", 400),
        ] {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.status(), status, "{bytes:?}");
        }
        // Nothing at all is a clean idle close, not a protocol error.
        assert_eq!(parse(b"").unwrap_err(), RequestError::Idle);
        // Repeats that agree frame one body.
        let r = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length:  2 \r\n\r\nok")
            .unwrap();
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn accepted_streams_get_read_and_write_timeouts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_accepted(&accepted);
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(READ_TIMEOUT));
        assert!(accepted.nodelay().unwrap());
    }

    #[test]
    fn oversized_head_and_body_are_limited() {
        let mut big_head = b"GET /x HTTP/1.1\r\n".to_vec();
        big_head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(parse(&big_head).unwrap_err(), RequestError::HeadTooLarge);

        let declared = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse(declared.as_bytes()).unwrap_err(),
            RequestError::BodyTooLarge
        );
    }

    #[test]
    fn responses_have_correct_framing() {
        let bytes = Response::json("{}".into()).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut kept = Response::json("{}".into());
        kept.close = false;
        let text = String::from_utf8(kept.to_bytes()).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");

        let err = Response::error(404, "no such route");
        assert!(String::from_utf8(err.to_bytes())
            .unwrap()
            .contains("no such route"));
    }

    #[test]
    fn unavailable_responses_carry_retry_after() {
        let text = String::from_utf8(Response::unavailable("busy", 2).to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");

        let plain = String::from_utf8(Response::error(503, "busy").to_bytes()).unwrap();
        assert!(!plain.contains("Retry-After"), "{plain}");
    }

    #[test]
    fn redirects_carry_a_location_header() {
        let resp = Response::redirect("http://127.0.0.1:9999");
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 307 Temporary Redirect\r\n"),
            "{text}"
        );
        assert!(
            text.contains("Location: http://127.0.0.1:9999\r\n"),
            "{text}"
        );

        // Non-redirect responses never emit a Location header.
        let plain = String::from_utf8(Response::json("{}".into()).to_bytes()).unwrap();
        assert!(!plain.contains("Location:"), "{plain}");
    }

    #[test]
    fn fencing_conflicts_have_a_reason_phrase() {
        let text = String::from_utf8(Response::error(409, "stale epoch").to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 409 Conflict\r\n"), "{text}");
    }
}
