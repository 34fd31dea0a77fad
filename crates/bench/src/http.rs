//! Minimal std-only HTTP/1.1 layer for the `repro serve` daemon.
//!
//! Deliberately tiny and defensive rather than general: HTTP/1.1
//! keep-alive with explicit `Content-Length` framing (the `Connection`
//! request header and version defaults are honored; the server side
//! additionally caps requests per connection and applies an idle
//! timeout), no chunked transfer encoding, hard caps on request-line
//! length, header block size, header count and body size. Every
//! malformed input maps to a 4xx/5xx [`HttpError`] — never a panic — so
//! a hostile client cannot take the daemon down. The server half
//! ([`crate::serve`]) owns routing and connection lifetime; this module
//! owns wire parsing and response formatting.

use std::io::{self, BufRead, Write};

/// Hard limits applied while parsing a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes in the request line (method + path + version).
    pub max_request_line: usize,
    /// Maximum total bytes across all header lines.
    pub max_header_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum bytes in the request body (via `Content-Length`).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    /// Generous for JSON option bodies, hostile to abuse: 8 KiB request
    /// line, 16 KiB of headers, 64 headers, 1 MiB body.
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed HTTP request: the subset of the wire format the daemon routes
/// on. Header names are lowercased; only `Content-Length` influences
/// parsing.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target path, including any query string.
    pub path: String,
    /// Lowercased header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`, HTTP/1.0
    /// defaults to close unless `Connection: keep-alive`. The server may
    /// still close earlier (request cap, idle timeout, errors).
    pub keep_alive: bool,
}

impl Request {
    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns a 400 [`HttpError`] if the body is not valid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))
    }

    /// First value of a (lowercased) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a `?name=value` query parameter, if present. A bare
    /// key with no `=` yields an empty value.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.path.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }
}

/// A request-parsing failure, carrying the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status code (4xx/5xx).
    pub status: u16,
    /// Human-readable cause, returned in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// An error with the given status and message.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl HttpError {
    /// True when the failure just means the peer finished with a
    /// kept-alive connection instead of sending another request: a clean
    /// close, or silence past the idle timeout, while waiting for the
    /// next request line. The server should close quietly rather than
    /// answer. Mid-request failures (truncated headers or bodies) are
    /// *not* idle disconnects and still deserve their 4xx.
    pub fn is_idle_disconnect(&self) -> bool {
        self.message.contains("reading request line")
            && (self.status == 408
                || (self.status == 400 && self.message.starts_with("connection closed")))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status,
            status_text(self.status),
            self.message
        )
    }
}

/// Maps an I/O failure during parsing to an [`HttpError`]: timeouts become
/// 408, everything else 400 (the client broke the connection or sent
/// garbage; either way it gets a 4xx, not a daemon crash).
fn io_error(err: &io::Error, context: &str) -> HttpError {
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            HttpError::new(408, format!("timed out {context}"))
        }
        _ => HttpError::new(400, format!("connection error {context}: {err}")),
    }
}

/// Reads one `\n`-terminated line of at most `cap` bytes, stripping the
/// trailing `\r\n`/`\n`.
fn read_line_limited(
    reader: &mut impl BufRead,
    cap: usize,
    context: &str,
) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::new(400, format!("connection closed {context}")));
                }
                break; // tolerate a final unterminated line
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= cap {
                    return Err(HttpError::new(431, format!("line too long {context}")));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(&e, context)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::new(400, format!("non-UTF-8 {context}")))
}

/// True for the token characters RFC 9110 allows in a method name.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Reads and validates one request from `reader` under `limits`.
///
/// # Errors
///
/// Returns an [`HttpError`] with the 4xx/5xx status the server should
/// answer with: 400 for malformed syntax or truncated bodies, 408 for
/// socket timeouts, 413 for oversized bodies, 431 for oversized
/// request/header lines, 501 for transfer encodings this layer does not
/// implement, and 505 for unknown HTTP versions.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let request_line = read_line_limited(reader, limits.max_request_line, "reading request line")?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line '{request_line}'"),
            ))
        }
    };
    if !is_token(method) {
        return Err(HttpError::new(400, format!("malformed method '{method}'")));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(400, format!("malformed path '{path}'")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(
            505,
            format!("unsupported version '{version}'"),
        ));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line_limited(reader, limits.max_header_bytes, "reading headers")?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.max_header_bytes {
            return Err(HttpError::new(431, "header block too large"));
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::new(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::new(501, "transfer encodings are not supported"));
    }

    let mut content_length = 0usize;
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    if let Some((_, raw)) = lengths.next() {
        if lengths.any(|(_, other)| other != raw) {
            return Err(HttpError::new(400, "conflicting content-length headers"));
        }
        content_length = raw
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad content-length '{raw}'")))?;
        if content_length > limits.max_body_bytes {
            return Err(HttpError::new(
                413,
                format!(
                    "body of {content_length} bytes exceeds the {} byte limit",
                    limits.max_body_bytes
                ),
            ));
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::new(400, "truncated request body")
            } else {
                io_error(&e, "reading request body")
            }
        })?;
    }

    // RFC 9112 connection semantics: the `Connection` header is a
    // comma-separated token list; 1.1 keeps alive unless told to close,
    // 1.0 closes unless told to keep alive.
    let connection_token = |token: &str| {
        headers
            .iter()
            .filter(|(n, _)| n == "connection")
            .flat_map(|(_, v)| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    let keep_alive = if version == "HTTP/1.1" {
        !connection_token("close")
    } else {
        connection_token("keep-alive")
    };

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// Reason phrase for the status codes the daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An outgoing response. Always carries an explicit `Content-Length` and
/// a `Connection` header stating whether the server will keep the
/// connection open ([`Response::write_to`]'s `keep_alive` flag), so
/// clients can frame the body either way.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers (e.g. `Retry-After`, `Allow`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given serialized body.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error body `{"error": "..."}` for the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let quoted =
            serde_json::to_string(&message.to_string()).unwrap_or_else(|_| "\"error\"".to_string());
        Response::json(status, format!("{{\"error\":{quoted}}}"))
    }

    /// Adds an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serializes the response to the wire. `keep_alive` selects the
    /// `Connection` header: `keep-alive` promises the server will read
    /// another request afterwards, `close` that it will hang up.
    ///
    /// Head and body go out in one write. Written piecewise, the tail of
    /// a kept-alive response could wait in the kernel for the client's
    /// delayed ACK of the head (Nagle's algorithm), about 40 ms a request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (typically a hung-up client).
    pub fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut wire = Vec::with_capacity(160 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        for (name, value) in &self.extra_headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        out.write_all(&wire)?;
        out.flush()
    }
}

/// A streaming response using HTTP/1.1 chunked transfer encoding — the
/// framing under the `repro serve` Server-Sent-Events endpoints, where
/// the body length is unknown until the run completes.
///
/// Lifecycle: [`ChunkedWriter::begin`] writes the status line and headers
/// (including `Transfer-Encoding: chunked` and `Connection: close` — a
/// streamed response always ends its connection, keeping the keep-alive
/// loop's framing trivially correct), [`ChunkedWriter::write_chunk`] sends
/// one chunk per call (hex length, CRLF, data, CRLF) in a single write,
/// flushing immediately so events reach the client as they happen, and
/// [`ChunkedWriter::finish`] terminates the stream with the zero-length
/// chunk. Dropping without `finish` leaves the stream unterminated —
/// clients see a truncated transfer, which is the honest signal for an
/// aborted run.
#[derive(Debug)]
pub struct ChunkedWriter<'a, W: Write> {
    out: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (typically a hung-up client).
    pub fn begin(
        out: &'a mut W,
        status: u16,
        content_type: &str,
        extra_headers: &[(&'static str, String)],
    ) -> io::Result<Self> {
        let mut head = Vec::with_capacity(192);
        write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\nCache-Control: no-store\r\n",
            status,
            status_text(status),
            content_type,
        )?;
        for (name, value) in extra_headers {
            write!(head, "{name}: {value}\r\n")?;
        }
        head.extend_from_slice(b"\r\n");
        out.write_all(&head)?;
        out.flush()?;
        Ok(ChunkedWriter { out })
    }

    /// Sends one chunk and flushes. Empty data is skipped — a zero-length
    /// chunk would terminate the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut chunk = format!("{:x}\r\n", data.len()).into_bytes();
        chunk.extend_from_slice(data);
        chunk.extend_from_slice(b"\r\n");
        self.out.write_all(&chunk)?;
        self.out.flush()
    }

    /// Terminates the stream (zero-length chunk, no trailers).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn finish(self) -> io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn parse(input: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(input.to_vec()), &Limits::default())
    }

    /// Reference dechunker for the writer tests: parses `head + chunked
    /// body` and returns (head, reassembled body).
    fn dechunk(wire: &[u8]) -> (String, Vec<u8>) {
        let text = String::from_utf8_lossy(wire);
        let head_end = text.find("\r\n\r\n").expect("end of headers") + 4;
        let head = text[..head_end].to_string();
        let mut body = Vec::new();
        let mut rest = &wire[head_end..];
        loop {
            let line_end = rest
                .windows(2)
                .position(|w| w == b"\r\n")
                .expect("chunk size line");
            let size = usize::from_str_radix(
                std::str::from_utf8(&rest[..line_end]).expect("hex size"),
                16,
            )
            .expect("valid hex");
            rest = &rest[line_end + 2..];
            if size == 0 {
                assert_eq!(rest, b"\r\n", "terminal chunk ends the stream");
                break;
            }
            body.extend_from_slice(&rest[..size]);
            assert_eq!(&rest[size..size + 2], b"\r\n", "chunk data ends with CRLF");
            rest = &rest[size + 2..];
        }
        (head, body)
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::begin(
                &mut wire,
                200,
                "text/event-stream",
                &[("X-Run", "7".to_string())],
            )
            .unwrap();
            w.write_chunk(b"event: phase\ndata: {}\n\n").unwrap();
            w.write_chunk(b"").unwrap(); // skipped, must not terminate
            w.write_chunk(b"event: report\ndata: {\"ok\":true}\n\n")
                .unwrap();
            w.finish().unwrap();
        }
        let (head, body) = dechunk(&wire);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(head.contains("Content-Type: text/event-stream\r\n"));
        assert!(head.contains("Connection: close\r\n"));
        assert!(head.contains("X-Run: 7\r\n"));
        assert!(!head.contains("Content-Length"), "chunked never has one");
        assert_eq!(
            body,
            b"event: phase\ndata: {}\n\nevent: report\ndata: {\"ok\":true}\n\n"
        );
    }

    #[test]
    fn chunk_sizes_are_hex() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::begin(&mut wire, 200, "text/event-stream", &[]).unwrap();
            w.write_chunk(&[b'x'; 255]).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("\r\n\r\nff\r\n"), "255 renders as ff: {text}");
        let (_, body) = dechunk(&wire);
        assert_eq!(body.len(), 255);
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(b"POST /run/table1 HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"quick\":true}")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), "{\"quick\":true}");
    }

    #[test]
    fn query_params_are_parsed_from_the_path() {
        let req = parse(b"POST /run/table1?format=text&x=1&bare HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("format"), Some("text"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("bare"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        let plain = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(plain.query_param("format"), None);
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn oversized_request_line_is_431() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(parse(long.as_bytes()).unwrap_err().status, 431);
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10 {
            input.extend_from_slice(format!("X-H{i}: {}\r\n", "v".repeat(2_000)).as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        assert_eq!(parse(&input).unwrap_err().status, 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            input.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        assert_eq!(parse(&input).unwrap_err().status, 431);
    }

    #[test]
    fn truncated_body_is_400() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("truncated"), "{err}");
    }

    #[test]
    fn bad_content_length_is_400() {
        for bad in ["abc", "-1", "1e3", ""] {
            let input = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert_eq!(parse(input.as_bytes()).unwrap_err().status, 400, "{bad:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\na")
            .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        let input = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            Limits::default().max_body_bytes + 1
        );
        assert_eq!(parse(input.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn transfer_encoding_is_501() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 501);
    }

    #[test]
    fn unknown_version_is_505() {
        assert_eq!(parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(parse(b"GET / FTP\r\n\r\n").unwrap_err().status, 505);
    }

    #[test]
    fn malformed_inputs_are_4xx_never_panics() {
        let cases: &[&[u8]] = &[
            b"",
            b"\r\n",
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"G@T / HTTP/1.1\r\n\r\n",
            b"GET path-without-slash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nheader-without-colon\r\n\r\n",
            b"\xff\xfe\xfd",
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\n",
        ];
        for case in cases {
            let err = parse(case).unwrap_err();
            assert!(
                (400..=505).contains(&err.status),
                "case {case:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn non_utf8_body_str_is_400() {
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe").unwrap();
        assert_eq!(req.body_str().unwrap_err().status, 400);
    }

    #[test]
    fn response_wire_format_is_complete() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".to_string())
            .with_header("Retry-After", "1")
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// A sink that records each `write` call separately, the way a
    /// socket without buffering sees them.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_and_chunk_is_one_write() {
        let mut sink = CountingSink::default();
        let response = Response::json(200, "{\"ok\":true}".to_string())
            .with_header("Retry-After", "1")
            .with_header("Allow", "GET");
        response.write_to(&mut sink, true).unwrap();
        assert_eq!(sink.writes.len(), 1, "head and body in one write");
        let mut whole = Vec::new();
        response.write_to(&mut whole, true).unwrap();
        assert_eq!(sink.writes[0], whole);

        let mut sink = CountingSink::default();
        {
            let mut w = ChunkedWriter::begin(&mut sink, 200, "text/event-stream", &[]).unwrap();
            w.write_chunk(b"event: phase\ndata: {}\n\n").unwrap();
            w.write_chunk(b"event: report\ndata: {}\n\n").unwrap();
            w.finish().unwrap();
        }
        // Head, two chunks, terminator.
        assert_eq!(sink.writes.len(), 4);
        assert!(sink.writes[1].starts_with(b"17\r\nevent: phase"));
        assert!(sink.writes[1].ends_with(b"\n\n\r\n"));
    }

    #[test]
    fn response_advertises_keep_alive_when_asked() {
        let mut buf = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        // HTTP/1.1 defaults to keep-alive…
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        // …unless the client says close (any casing, token lists too).
        for close in [
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n",
            "GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n",
        ] {
            assert!(!parse(close.as_bytes()).unwrap().keep_alive, "{close:?}");
        }
        // HTTP/1.0 defaults to close unless keep-alive is requested.
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn idle_disconnect_classification() {
        assert!(parse(b"").unwrap_err().is_idle_disconnect());
        // Mid-request failures are real errors, not idle closes.
        assert!(!parse(b"GET / HTTP/1.1\r\nHost")
            .unwrap_err()
            .is_idle_disconnect());
        assert!(!parse(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nab")
            .unwrap_err()
            .is_idle_disconnect());
    }

    #[test]
    fn error_bodies_escape_messages() {
        let resp = Response::error(400, "bad \"quote\"");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body, "{\"error\":\"bad \\\"quote\\\"\"}");
    }

    /// Limits small enough that generated requests cross every cap.
    const SMALL: Limits = Limits {
        max_request_line: 64,
        max_header_bytes: 128,
        max_headers: 4,
        max_body_bytes: 32,
    };

    fn parse_small(input: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(input.to_vec()), &SMALL)
    }

    /// The wire bytes of a request with the given path, headers and body
    /// (framed by an exact `Content-Length`).
    fn wire(path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
        let mut head = format!("POST /{path} HTTP/1.1\r\n");
        for (name, value) in headers {
            head.push_str(&format!("x-{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    /// Any byte.
    fn byte() -> impl Strategy<Value = u8> {
        (0u32..256).prop_map(|b| b as u8)
    }

    /// A request inside every [`SMALL`] limit: a short path, at most two
    /// short headers besides `Content-Length`, and a body of at most 32
    /// bytes.
    fn arb_request() -> impl Strategy<Value = (Vec<u8>, usize)> {
        (
            "[a-z/]{0,16}",
            proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9 ]{0,16}"), 0..3),
            proptest::collection::vec(byte(), 0..=32),
        )
            .prop_map(|(path, headers, body)| (wire(&path, &headers, &body), body.len()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the parser: they either parse or
        /// map to an error status, under default and small limits alike.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(byte(), 0..=4096),
        ) {
            for limits in [Limits::default(), SMALL] {
                if let Err(e) = read_request(&mut Cursor::new(bytes.clone()), &limits) {
                    prop_assert!((400..600).contains(&e.status), "{e}");
                }
            }
        }

        /// A well-formed request parses whole, and none of its prefixes
        /// panics. A prefix that cuts the body is a 400.
        #[test]
        fn every_prefix_of_a_request_is_handled((wire, body_len) in arb_request()) {
            let whole = parse_small(&wire).expect("a request inside the limits parses");
            prop_assert_eq!(whole.body.len(), body_len);
            let head_len = wire.len() - body_len;
            for end in 0..wire.len() {
                let result = parse_small(&wire[..end]);
                if end >= head_len {
                    let status = result.as_ref().map(|_| 200).unwrap_or_else(|e| e.status);
                    prop_assert_eq!(status, 400, "prefix of {} bytes", end);
                } else if let Err(e) = result {
                    prop_assert!((400..600).contains(&e.status), "{e}");
                }
            }
        }

        /// A request line longer than its limit is 431.
        #[test]
        fn long_request_lines_are_431(path in "[a-z]{60,200}") {
            let err = parse_small(&wire(&path, &[], b"")).unwrap_err();
            prop_assert_eq!(err.status, 431);
        }

        /// A header line longer than the header limit is 431.
        #[test]
        fn long_header_lines_are_431(value in "[a-z0-9]{129,400}") {
            let headers = [("long".to_string(), value)];
            let err = parse_small(&wire("x", &headers, b"")).unwrap_err();
            prop_assert_eq!(err.status, 431);
        }

        /// More headers than the limit is 431, however short each one is.
        #[test]
        fn too_many_headers_are_431(
            headers in proptest::collection::vec(("[a-z]{1,4}", "[a-z0-9]{0,4}"), 4..12),
        ) {
            let err = parse_small(&wire("x", &headers, b"")).unwrap_err();
            prop_assert_eq!(err.status, 431);
        }

        /// A Content-Length above the body limit is 413, before any body
        /// byte is read.
        #[test]
        fn oversized_content_lengths_are_413(length in 33usize..1_000_000) {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            let err = parse_small(raw.as_bytes()).unwrap_err();
            prop_assert_eq!(err.status, 413);
        }

        /// A body shorter than its Content-Length is 400.
        #[test]
        fn short_bodies_are_400(
            (length, sent) in (1usize..=32).prop_flat_map(|n| (Just(n), 0..n)),
        ) {
            let mut raw = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n")
                .into_bytes();
            raw.extend(std::iter::repeat_n(b'a', sent));
            let err = parse_small(&raw).unwrap_err();
            prop_assert_eq!(err.status, 400);
        }
    }
}
