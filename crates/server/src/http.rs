//! Hand-rolled HTTP/1.1 on top of [`Conn`]: deadline-bounded request
//! reading and response writing.
//!
//! The build environment has no async runtime or HTTP stack, so the wire
//! protocol is implemented directly — which is also what makes the
//! resilience contract checkable: every byte read passes through the
//! per-phase deadlines and size limits in [`read_request`], and every
//! failure maps to a typed [`ReadError`] (never a panic), which the serving
//! loop converts into the contractual status code: 400 malformed, 408 slow
//! client, 413 oversized.
//!
//! Deliberate simplifications, rejected rather than mis-parsed: chunked
//! transfer encoding is refused (400), and so is a request whose
//! `Content-Length` headers (or one header's comma-separated list) disagree
//! — a request is framed by one length or not at all.  Bytes past
//! `Content-Length` (a pipelined next request, or the tail of a previous
//! over-read) travel in the caller's `carry` buffer to the next
//! [`read_request`] call.
//!
//! The header block is read through a 4 KiB stack buffer.  Once
//! `Content-Length` is known the body is reserved exactly and the transport
//! reads straight into it, up to 64 KiB at a time (only a tail shorter than
//! the stack buffer goes through it, since it may arrive glued to the next
//! request); the read timeout is re-armed only when the whole milliseconds
//! left before the phase's deadline have changed.

use std::io;

use crate::conn::Conn;

/// Size and time limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers.
    pub max_header_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is refused).
    pub max_body_bytes: usize,
    /// Budget for receiving the complete header block.
    pub header_timeout_ms: u64,
    /// Budget for receiving the complete body.
    pub body_timeout_ms: u64,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            header_timeout_ms: 2_000,
            body_timeout_ms: 5_000,
        }
    }
}

/// Why a request could not be read.  Each variant maps to one status code
/// in the overload-behaviour contract.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes are not a well-formed HTTP/1.x request → 400.
    Malformed(String),
    /// A size limit was exceeded → 413.
    Oversized {
        /// Which limit: `"header"` or `"body"`.
        what: &'static str,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// A read deadline elapsed (slow-loris) → 408.
    Timeout {
        /// Which phase stalled: `"header"` or `"body"`.
        phase: &'static str,
    },
    /// The transport failed; no response can be written.
    Io(io::Error),
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path (`/api/v1/query`).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names and trimmed values.
    pub headers: Vec<(String, String)>,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// True when the client asked for the connection to be closed after
    /// this request (`Connection: close`, or HTTP/1.0).
    pub wants_close: bool,
}

impl Request {
    /// First header value with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Reads one request from the connection under the given limits.  `carry`
/// holds bytes read past the previous request's end (pipelining); surplus
/// bytes from this request are left in it for the next call.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte (the
/// normal end of a keep-alive connection).
///
/// # Errors
///
/// [`ReadError::Malformed`] for protocol violations (including EOF inside a
/// request), [`ReadError::Oversized`] when a size limit trips,
/// [`ReadError::Timeout`] when a phase deadline elapses, [`ReadError::Io`]
/// when the transport fails.
pub fn read_request(
    conn: &mut dyn Conn,
    limits: &HttpLimits,
    carry: &mut Vec<u8>,
) -> Result<Option<Request>, ReadError> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    let header_deadline = conn.now_ms().saturating_add(limits.header_timeout_ms);
    // Whatever an earlier request left armed on the connection is unknown.
    let mut armed_ms = None;
    let mut tmp = [0u8; 4096];

    // Phase 1: accumulate bytes until the blank line ending the header
    // block, under the header deadline and size limit.  Each search resumes
    // where the last one gave up, so a peer that drips the header a byte at
    // a time buys a linear scan, not a quadratic one.
    let mut searched = 0;
    let (header_end, body_start) = loop {
        if let Some(found) = find_header_end(&buf, searched) {
            break found;
        }
        searched = buf.len();
        if buf.len() > limits.max_header_bytes {
            return Err(ReadError::Oversized { what: "header", limit: limits.max_header_bytes });
        }
        let n = read_some(conn, &mut armed_ms, header_deadline, "header", &mut tmp)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(ReadError::Malformed("connection closed mid-header".to_string()));
        }
        buf.extend_from_slice(tmp.get(..n).unwrap_or_default());
    };
    if header_end > limits.max_header_bytes {
        return Err(ReadError::Oversized { what: "header", limit: limits.max_header_bytes });
    }

    let head_bytes = buf.get(..header_end).unwrap_or_default();
    let head = std::str::from_utf8(head_bytes)
        .map_err(|_| ReadError::Malformed("header block is not valid UTF-8".to_string()))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line =
        lines.next().ok_or_else(|| ReadError::Malformed("empty header block".to_string()))?;

    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "request line is not `METHOD TARGET VERSION`: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported protocol {version:?}")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query: Vec<(String, String)> = raw_query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("header line without colon: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header_value =
        |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());

    if let Some(te) = header_value("transfer-encoding") {
        if te.to_ascii_lowercase().contains("chunked") {
            return Err(ReadError::Malformed(
                "chunked transfer encoding is not supported".to_string(),
            ));
        }
    }

    let content_length = content_length(&headers)?;
    if content_length > limits.max_body_bytes {
        return Err(ReadError::Oversized { what: "body", limit: limits.max_body_bytes });
    }

    // Phase 2: the body, under its own deadline.  What the header reads
    // already brought in is split between this body and, past
    // Content-Length, the next pipelined request (which travels in `carry`).
    let have = buf.get(body_start..).unwrap_or_default();
    let (mine, surplus) = have.split_at(have.len().min(content_length));
    // Sized and zeroed once; the reads below fill it in place.
    let mut body = vec![0u8; content_length];
    let mut filled = copy_into(&mut body, 0, mine);
    carry.extend_from_slice(surplus);
    let body_deadline = conn.now_ms().saturating_add(limits.body_timeout_ms);
    while filled < content_length {
        let missing = content_length - filled;
        let n = if missing >= tmp.len() {
            // The bulk goes straight into the body's own allocation, which
            // only ever has room for this request.
            let window =
                body.get_mut(filled..filled + missing.min(BODY_READ_BYTES)).unwrap_or_default();
            let n = read_some(conn, &mut armed_ms, body_deadline, "body", window)?;
            filled += n;
            n
        } else {
            // A short tail may arrive with the start of the next request.
            let n = read_some(conn, &mut armed_ms, body_deadline, "body", &mut tmp)?;
            let (mine, surplus) = tmp.get(..n).unwrap_or_default().split_at(n.min(missing));
            filled = copy_into(&mut body, filled, mine);
            carry.extend_from_slice(surplus);
            n
        };
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body".to_string()));
        }
    }

    let version_close = version == "HTTP/1.0";
    let connection_close =
        header_value("connection").is_some_and(|v| v.to_ascii_lowercase().contains("close"));

    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        wants_close: version_close || connection_close,
    }))
}

/// Most bytes one body read asks the transport for.
const BODY_READ_BYTES: usize = 64 * 1024;

/// Copies `bytes` into `body` at `at` and returns where they end.
fn copy_into(body: &mut [u8], at: usize, bytes: &[u8]) -> usize {
    let end = at + bytes.len();
    if let Some(window) = body.get_mut(at..end) {
        window.copy_from_slice(bytes);
    }
    end
}

/// The body length the headers declare (0 without a `Content-Length`).
/// Repeated headers and comma-separated lists are accepted only when every
/// value agrees: framing a request by one of two differing lengths would
/// hand the rest of its body to the parser as a pipelined request.  A value
/// is `1*DIGIT` (RFC 9110): the sign `usize::from_str` also takes is refused,
/// so no proxy in front can read a length this server does not.
fn content_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    let mut declared: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        for item in value.split(',') {
            let item = item.trim();
            let length = Some(item)
                .filter(|item| item.bytes().all(|byte| byte.is_ascii_digit()))
                .and_then(|item| item.parse::<usize>().ok())
                .ok_or_else(|| ReadError::Malformed(format!("invalid Content-Length {value:?}")))?;
            if declared.is_some_and(|earlier| earlier != length) {
                return Err(ReadError::Malformed("conflicting Content-Length values".to_string()));
            }
            declared = Some(length);
        }
    }
    Ok(declared.unwrap_or(0))
}

/// One deadline-bounded read into `into`.  `armed_ms` is the read timeout
/// this request last armed on the connection: it is armed again only when
/// the whole milliseconds left have changed.  Maps timeout errors to
/// [`ReadError::Timeout`] and other transport errors to [`ReadError::Io`].
fn read_some(
    conn: &mut dyn Conn,
    armed_ms: &mut Option<u64>,
    deadline_ms: u64,
    phase: &'static str,
    into: &mut [u8],
) -> Result<usize, ReadError> {
    let remaining = deadline_ms.saturating_sub(conn.now_ms());
    if remaining == 0 {
        return Err(ReadError::Timeout { phase });
    }
    if *armed_ms != Some(remaining) {
        conn.set_read_timeout_ms(Some(remaining)).map_err(ReadError::Io)?;
        *armed_ms = Some(remaining);
    }
    loop {
        match conn.read_bytes(into) {
            Ok(n) => return Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock =>
            {
                return Err(ReadError::Timeout { phase });
            }
            // EINTR: retry; the armed timeout still bounds total time.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes [`find_header_end`] has looked at on this thread: the work meter
    /// the slow-drip test bounds.
    static HEADER_BYTES_EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Finds the end of the header block: `(bytes before the blank line, offset
/// of the first body byte)` of the first blank line, CRLF or bare LF.
/// `searched` is the length of the prefix an earlier call found none in; a
/// terminator may straddle its end, so the scan resumes three bytes before.
fn find_header_end(buf: &[u8], searched: usize) -> Option<(usize, usize)> {
    let from = searched.saturating_sub(3);
    let rest = buf.get(from..).unwrap_or_default();
    for (offset, &byte) in rest.iter().enumerate() {
        #[cfg(test)]
        HEADER_BYTES_EXAMINED.with(|examined| examined.set(examined.get() + 1));
        let at = from + offset;
        let after = rest.get(offset + 1..).unwrap_or_default();
        if byte == b'\r' && after.starts_with(b"\n\r\n") {
            return Some((at, at + 4));
        }
        if byte == b'\n' && after.first() == Some(&b'\n') {
            return Some((at, at + 2));
        }
    }
    None
}

/// Decodes `%XX` escapes and `+`-as-space.  Invalid escapes pass through
/// literally — a malformed escape in a query string should produce a query
/// parse error downstream, not a connection-level 400.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (
                bytes.get(i + 1).copied().and_then(hexval),
                bytes.get(i + 2).copied().and_then(hexval),
            ) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hexval(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes a string for use as a query parameter value.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                out.push('%');
                out.push(
                    char::from_digit(u32::from(b >> 4), 16).unwrap_or('0').to_ascii_uppercase(),
                );
                out.push(
                    char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0').to_ascii_uppercase(),
                );
            }
        }
    }
    out
}

/// One response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length` and `Connection` are
    /// emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "text/plain; charset=utf-8".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// A text-exposition response (`/metrics`).
    pub fn metrics(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4; charset=utf-8".to_string(),
            )],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialises status line, headers and body and writes them to the
    /// connection.  `close` controls the `Connection` header.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the connection.
    pub fn write_to(&self, conn: &mut dyn Conn, close: bool) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, status_text(self.status));
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if close { "Connection: close\r\n" } else { "Connection: keep-alive\r\n" });
        head.push_str("\r\n");
        conn.write_all_bytes(head.as_bytes())?;
        conn.write_all_bytes(&self.body)
    }
}

/// Reason phrase for the status codes the serving edge emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{MockConn, MockStep};

    fn read(conn: &mut MockConn) -> Result<Option<Request>, ReadError> {
        read_request(conn, &HttpLimits::default(), &mut Vec::new())
    }

    #[test]
    fn parses_a_get_with_query_parameters() {
        let mut conn = MockConn::with_bytes(
            b"GET /api/v1/query?query=up%7Bjob%3D%22a%22%7D&time=5 HTTP/1.1\r\nHost: x\r\n\r\n"
                .to_vec(),
        );
        let req = read(&mut conn).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/v1/query");
        assert_eq!(req.query_param("query"), Some(r#"up{job="a"}"#));
        assert_eq!(req.query_param("time"), Some("5"));
        assert!(!req.wants_close);
    }

    #[test]
    fn parses_a_post_with_body_across_chunks() {
        let mut conn = MockConn::new(vec![
            MockStep::Chunk(
                b"POST /api/v1/write HTTP/1.1\r\nContent-Length: 11\r\n\r\nhel".to_vec(),
            ),
            MockStep::Chunk(b"lo".to_vec()),
            MockStep::Chunk(b" world!".to_vec()),
            MockStep::Eof,
        ]);
        let mut carry = Vec::new();
        let req = read_request(&mut conn, &HttpLimits::default(), &mut carry).unwrap().unwrap();
        assert_eq!(req.body, b"hello world");
        assert_eq!(carry, b"!", "surplus bytes travel to the next call");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut conn =
            MockConn::with_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec());
        let mut carry = Vec::new();
        let limits = HttpLimits::default();
        let first = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let second = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(read_request(&mut conn, &limits, &mut carry).unwrap().is_none());
    }

    #[test]
    fn clean_eof_before_any_byte_is_none() {
        let mut conn = MockConn::new(vec![MockStep::Eof]);
        assert!(read(&mut conn).unwrap().is_none());
    }

    #[test]
    fn torn_header_is_malformed_not_a_panic() {
        let mut conn = MockConn::new(vec![MockStep::Chunk(b"GET / HT".to_vec()), MockStep::Eof]);
        assert!(matches!(read(&mut conn), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn header_stall_times_out_in_the_header_phase() {
        let mut conn = MockConn::new(vec![
            MockStep::Chunk(b"GET / HTTP/1.1\r\n".to_vec()),
            MockStep::StallMs(10_000),
        ]);
        let err = read(&mut conn).unwrap_err();
        assert!(matches!(err, ReadError::Timeout { phase: "header" }));
    }

    #[test]
    fn body_stall_times_out_in_the_body_phase() {
        let mut conn = MockConn::new(vec![
            MockStep::Chunk(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec()),
            MockStep::StallMs(60_000),
        ]);
        let err = read(&mut conn).unwrap_err();
        assert!(matches!(err, ReadError::Timeout { phase: "body" }));
    }

    #[test]
    fn oversized_content_length_is_refused_before_reading_the_body() {
        let mut conn =
            MockConn::with_bytes(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec());
        assert!(matches!(read(&mut conn), Err(ReadError::Oversized { what: "body", .. })));
    }

    #[test]
    fn header_flood_is_refused_at_the_header_limit() {
        let mut steps = vec![MockStep::Chunk(b"GET / HTTP/1.1\r\n".to_vec())];
        for _ in 0..2_000 {
            steps.push(MockStep::Chunk(b"X-Flood: aaaaaaaaaaaaaaaaaaaaaaaa\r\n".to_vec()));
        }
        let mut conn = MockConn::new(steps);
        assert!(matches!(read(&mut conn), Err(ReadError::Oversized { what: "header", .. })));
    }

    #[test]
    fn a_header_dripped_a_byte_at_a_time_is_scanned_once() {
        // The worst a peer can do inside the header limit: 8 KiB of header,
        // one byte per read.  Every read re-enters the terminator search.
        let mut head = b"GET /drip HTTP/1.1\r\n".to_vec();
        while head.len() < 8_000 {
            head.extend_from_slice(b"X-Drip: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        head.extend_from_slice(b"\r\n");
        let steps = head.iter().map(|&byte| MockStep::Chunk(vec![byte])).collect();
        let mut conn = MockConn::new(steps);
        HEADER_BYTES_EXAMINED.with(|examined| examined.set(0));
        let request = read(&mut conn).unwrap().unwrap();
        assert_eq!(request.path, "/drip");
        let examined = HEADER_BYTES_EXAMINED.with(std::cell::Cell::get);
        assert!(
            examined <= 4 * head.len() as u64,
            "{examined} bytes examined for a {}-byte header",
            head.len()
        );
    }

    #[test]
    fn the_first_blank_line_ends_the_header_whatever_its_line_endings() {
        type Case = (&'static [u8], Option<(usize, usize)>);
        let cases: [Case; 8] = [
            (b"a\r\n\r\nb", Some((1, 5))),
            (b"a\n\nb", Some((1, 3))),
            // Mixed endings: whichever blank line comes first wins.
            (b"a\n\nb\r\n\r\n", Some((1, 3))),
            (b"a\r\n\r\nb\n\n", Some((1, 5))),
            (b"a\r\n\n", Some((2, 4))),
            // `\n\r\n` is a line holding a lone CR, not a blank line.
            (b"a\n\r\nb", None),
            (b"a\r\n\r", None),
            (b"", None),
        ];
        for (bytes, expected) in cases {
            assert_eq!(find_header_end(bytes, 0), expected, "{bytes:?}");
            // A search resumed after any shorter prefix came up empty finds
            // the same terminator.
            for searched in 0..=bytes.len() {
                if find_header_end(bytes.get(..searched).unwrap_or_default(), 0).is_none() {
                    assert_eq!(
                        find_header_end(bytes, searched),
                        expected,
                        "{bytes:?} @ {searched}"
                    );
                }
            }
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed_and_agreeing_ones_are_not() {
        for head in [
            "Content-Length: 5\r\nContent-Length: 50\r\n",
            "Content-Length: 50\r\nContent-Length: 5\r\n",
            "Content-Length: 5, 50\r\n",
            "Content-Length: 5,\r\n",
            "Content-Length: +5\r\n",
            "Content-Length: +0\r\n",
        ] {
            let request = format!("POST / HTTP/1.1\r\n{head}\r\nhelloGET /x HTTP/1.1\r\n\r\n");
            let mut conn = MockConn::with_bytes(request.into_bytes());
            assert!(matches!(read(&mut conn), Err(ReadError::Malformed(_))), "{head:?}");
        }
        for head in ["Content-Length: 5\r\ncontent-length: 5\r\n", "Content-Length: 5, 5\r\n"] {
            let request = format!("POST / HTTP/1.1\r\n{head}\r\nhello");
            let mut conn = MockConn::with_bytes(request.into_bytes());
            assert_eq!(read(&mut conn).unwrap().unwrap().body, b"hello", "{head:?}");
        }
    }

    #[test]
    fn a_large_body_is_read_in_few_reads_and_arms_the_timeout_once_per_millisecond() {
        // 150 000 body bytes behind a small first chunk: the bulk arrives in
        // 64 KiB reads straight into the body, and as the virtual clock does
        // not move, the timeout is armed once per phase.
        let body: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let mut bytes =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let mut conn = CountingConn { inner: MockConn::with_bytes(bytes), reads: 0, arms: 0 };
        let mut carry = Vec::new();
        let limits = HttpLimits::default();
        let req = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(req.body, body);
        assert!(
            conn.reads <= 5,
            "{} reads for one 4 KiB header read and 146 KB of body",
            conn.reads
        );
        assert_eq!(conn.arms, 2, "one arm for the header phase, one for the body phase");
        let next = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(next.path, "/next", "the pipelined request survives the bulk reads");
    }

    #[test]
    fn a_large_body_arriving_in_small_segments_is_assembled_in_place() {
        // Every read brings less than the window it was offered: the body is
        // filled where the last read stopped, the tail shares its segment
        // with the next request, and a close mid-body is still malformed.
        let body: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
        let mut wire = body.clone();
        wire.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let segments = |wire: &[u8]| {
            let mut steps = vec![MockStep::Chunk(head.clone().into_bytes())];
            steps.extend(wire.chunks(1_400).map(|segment| MockStep::Chunk(segment.to_vec())));
            steps.push(MockStep::Eof);
            steps
        };
        let mut conn = MockConn::new(segments(&wire));
        let mut carry = Vec::new();
        let limits = HttpLimits::default();
        let req = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(req.body, body);
        let next = read_request(&mut conn, &limits, &mut carry).unwrap().unwrap();
        assert_eq!(next.path, "/next");

        let mut conn = MockConn::new(segments(body.get(..15_000).unwrap()));
        assert!(matches!(read(&mut conn), Err(ReadError::Malformed(_))));
    }

    /// Counts the transport calls [`read_request`] makes.
    struct CountingConn {
        inner: MockConn,
        reads: usize,
        arms: usize,
    }

    impl Conn for CountingConn {
        fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read_bytes(buf)
        }

        fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
            self.inner.write_all_bytes(buf)
        }

        fn set_read_timeout_ms(&mut self, timeout_ms: Option<u64>) -> io::Result<()> {
            self.arms += 1;
            self.inner.set_read_timeout_ms(timeout_ms)
        }

        fn peer(&self) -> &str {
            self.inner.peer()
        }

        fn now_ms(&self) -> u64 {
            self.inner.now_ms()
        }
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let mut conn =
            MockConn::with_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec());
        assert!(matches!(read(&mut conn), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn connection_close_and_http10_want_close() {
        let mut conn =
            MockConn::with_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec());
        assert!(read(&mut conn).unwrap().unwrap().wants_close);
        let mut conn = MockConn::with_bytes(b"GET / HTTP/1.0\r\n\r\n".to_vec());
        assert!(read(&mut conn).unwrap().unwrap().wants_close);
    }

    #[test]
    fn percent_roundtrip() {
        let original = r#"sum by (node) (rate(x_total[30s])) > 0.5"#;
        assert_eq!(percent_decode(&percent_encode(original)), original);
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%", "invalid escape passes through");
    }

    #[test]
    fn response_writes_status_line_headers_and_body() {
        let mut conn = MockConn::new(vec![MockStep::Eof]);
        Response::json(200, r#"{"ok":true}"#).write_to(&mut conn, true).unwrap();
        let text = conn.written_text();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with(r#"{"ok":true}"#));
    }
}
