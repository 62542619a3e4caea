//! A minimal HTTP/1.1 layer over `std::io` streams, both directions.
//!
//! Only what the daemon and its client need, nothing more. Reading: one
//! head reader (start line + headers, bounded by `MAX_HEAD`) and one body
//! reader (`Content-Length` or `chunked`; a message with neither has no
//! body) serve [`read_request`], which caps the decoded body, and the
//! client's `read_response`, which does not. Writing: responses in both
//! fixed-length and chunked flavours (the events endpoint streams frames
//! as chunks). Connections are handled one request at a time
//! (`Connection: close` semantics); the sweep client opens a socket per
//! call, which is plenty for a simulation farm whose unit of work is
//! measured in simulated megacycles.
//!
//! Parsing failures carry the status code the handler should answer with
//! ([`HttpError::status`]): malformed syntax → 400, a body above the
//! configured cap → 413, a head or chunk trailer above `MAX_HEAD` → 431.
//! A truncated chunked body is a 400, not a hang — every read path is
//! bounded, and a body buffer grows only with the bytes that arrive.

use std::fmt;
use std::io::{BufRead, Read, Write};

/// Hard cap on a message head (start line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A parse or I/O failure while reading a message.
#[derive(Debug)]
pub struct HttpError {
    status: u16,
    msg: String,
}

impl HttpError {
    fn new(status: u16, msg: impl Into<String>) -> Self {
        HttpError {
            status,
            msg: msg.into(),
        }
    }

    /// The HTTP status the handler should answer with.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Human-readable description for the error body.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, self.msg)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::new(400, format!("i/o error: {e}"))
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`.
    pub method: String,
    /// Request target (path + optional query), e.g. `/jobs/7/events`.
    pub path: String,
    /// Headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Decoded body (empty when the request has none).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => return Err(HttpError::new(400, "unexpected end of stream")),
            _ => {
                if *budget == 0 {
                    return Err(HttpError::new(431, "message head too large"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::new(400, "non-UTF-8 message head"));
                }
                line.push(byte[0]);
            }
        }
    }
}

/// Reads a message head, at most `MAX_HEAD` bytes: the start line and the
/// headers.
fn read_head(stream: &mut impl BufRead) -> Result<(String, Vec<(String, String)>), HttpError> {
    let mut budget = MAX_HEAD;
    let start_line = read_line(stream, &mut budget)?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            return Ok((start_line, headers));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, "malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
}

/// Appends exactly `n` bytes of `stream` to `body`, or fails with `msg`.
/// The buffer grows with what arrives, not with what `n` promises.
fn read_exact_into(
    stream: &mut impl BufRead,
    body: &mut Vec<u8>,
    n: usize,
    msg: &str,
) -> Result<(), HttpError> {
    let want = body.len() + n;
    match stream.take(n as u64).read_to_end(body) {
        Ok(_) if body.len() == want => Ok(()),
        _ => Err(HttpError::new(400, msg)),
    }
}

/// Reads the body `headers` frame — chunked, `Content-Length`, or none —
/// enforcing `max_body` on its decoded size.
fn read_body(
    stream: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
) -> Result<Vec<u8>, HttpError> {
    let chunked =
        header(headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    if chunked {
        return read_chunked_body(stream, max_body);
    }
    let Some(len) = header(headers, "content-length") else {
        return Ok(Vec::new());
    };
    let len: usize = len
        .parse()
        .map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
    if len > max_body {
        return Err(HttpError::new(413, "request body exceeds MASKD_MAX_BODY"));
    }
    let mut body = Vec::new();
    read_exact_into(stream, &mut body, len, "body shorter than Content-Length")?;
    Ok(body)
}

/// Reads and decodes one request from `stream`, enforcing `max_body` on
/// the decoded body size (fixed-length *and* chunked).
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let (request_line, headers) = read_head(stream)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, "unsupported HTTP version"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(400, "request target must be absolute path"));
    }
    let body = read_body(stream, &headers, max_body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads one response from `stream`: its status code and decoded body.
/// The head is bounded like a request's; the body is not.
pub(crate) fn read_response(stream: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let (status_line, headers) = read_head(stream)?;
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| HttpError::new(400, format!("bad status line {status_line:?}")))?;
    Ok((status, read_body(stream, &headers, usize::MAX)?))
}

fn read_chunked_body(stream: &mut impl BufRead, max_body: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        // Chunk-size lines are tiny; reuse the head budget machinery with
        // a fresh allowance per line so a garbage stream cannot spin.
        let mut budget = 128;
        let size_line = read_line(stream, &mut budget)
            .map_err(|_| HttpError::new(400, "truncated chunked body"))?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::new(400, "invalid chunk size"))?;
        if size == 0 {
            // Trailer section: lines until the blank terminator, all
            // charged to one head-sized budget.
            let mut budget = MAX_HEAD;
            loop {
                let line = read_line(stream, &mut budget).map_err(|e| match e.status {
                    431 => HttpError::new(431, "chunk trailer too large"),
                    _ => HttpError::new(400, "truncated chunk trailer"),
                })?;
                if line.is_empty() {
                    return Ok(body);
                }
            }
        }
        // Cannot wrap: `body.len() <= max_body` holds here.
        if size > max_body - body.len() {
            return Err(HttpError::new(413, "request body exceeds MASKD_MAX_BODY"));
        }
        read_exact_into(stream, &mut body, size, "truncated chunk")?;
        let mut crlf = [0u8; 2];
        stream
            .read_exact(&mut crlf)
            .map_err(|_| HttpError::new(400, "truncated chunk"))?;
        if &crlf != b"\r\n" {
            return Err(HttpError::new(400, "chunk missing CRLF terminator"));
        }
    }
}

/// Canonical reason phrase for the handful of statuses the daemon emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Writes a fixed-length JSON response with optional extra headers.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    )?;
    for (k, v) in extra_headers {
        write!(stream, "{k}: {v}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Starts a chunked response; follow with [`write_chunk`] calls and a
/// final [`finish_chunked`].
pub fn start_chunked(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status)
    )?;
    stream.flush()
}

/// Writes one chunk (skipped silently for empty payloads, which would
/// otherwise terminate the chunked stream).
pub fn write_chunk(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_chunked_body_with_trailer() {
        let raw = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let req = parse(raw).expect("valid chunked request");
        assert_eq!(req.body, b"wikipedia");
    }

    #[test]
    fn rejects_oversized_and_truncated_bodies() {
        let long = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: 2048\r\n\r\n{}",
            "x".repeat(2048)
        );
        assert_eq!(parse(long.as_bytes()).expect_err("too large").status(), 413);

        let trunc = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort";
        assert_eq!(parse(trunc).expect_err("truncated").status(), 400);

        let overflow =
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffff\r\nnope\r\n0\r\n\r\n";
        assert_eq!(parse(overflow).expect_err("over cap").status(), 413);

        // A chunk size that would wrap `body.len() + size` after a
        // non-empty chunk.
        let wrap = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\nffffffffffffffff\r\n";
        assert_eq!(parse(wrap).expect_err("wrapping size").status(), 413);

        // Trailer lines that each fit a line but together outgrow the head
        // budget.
        let trailer = format!(
            "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n{}\r\n",
            format!("X-Pad: {}\r\n", "p".repeat(1000)).repeat(MAX_HEAD / 1000 + 1)
        );
        assert_eq!(
            parse(trailer.as_bytes()).expect_err("trailer").status(),
            431
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        assert_eq!(parse(b"\r\n\r\n").expect_err("empty").status(), 400);
        assert_eq!(
            parse(b"GET /x SPDY/3\r\n\r\n")
                .expect_err("version")
                .status(),
            505
        );
        assert_eq!(
            parse(b"GET x HTTP/1.1\r\n\r\n").expect_err("path").status(),
            400
        );
        assert_eq!(
            parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n")
                .expect_err("header")
                .status(),
            400
        );
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200, "application/jsonl").expect("write");
        write_chunk(&mut out, b"{\"e\":1}\n").expect("write");
        write_chunk(&mut out, b"").expect("write");
        write_chunk(&mut out, b"{\"e\":2}\n").expect("write");
        finish_chunked(&mut out).expect("write");
        let (status, body) = read_response(&mut BufReader::new(&out[..])).expect("read back");
        assert_eq!((status, &body[..]), (200, &b"{\"e\":1}\n{\"e\":2}\n"[..]));
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("8\r\n{\"e\":1}\n\r\n8\r\n{\"e\":2}\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn rejects_broken_responses_without_hanging() {
        let read = |raw: &[u8]| read_response(&mut BufReader::new(raw)).map(|_| ());
        let chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        for (what, tail) in [
            ("truncated chunked body", "8\r\n{\"e\":"),
            ("no terminating chunk", "2\r\nok\r\n"),
            ("bad chunk size", "zz\r\nok\r\n0\r\n\r\n"),
            ("chunk missing its CRLF", "2\r\nokXX0\r\n\r\n"),
        ] {
            let err = read(format!("{chunked}{tail}").as_bytes()).expect_err(what);
            assert_eq!(err.status(), 400, "{what}: {err}");
        }
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(read(short).expect_err("short body").status(), 400);
        let promised = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nx", usize::MAX);
        assert_eq!(read(promised.as_bytes()).expect_err("huge").status(), 400);
        let huge = format!("HTTP/1.1 200 OK\r\nX-Pad: {}\r\n\r\n", "p".repeat(MAX_HEAD));
        assert_eq!(read(huge.as_bytes()).expect_err("head").status(), 431);
        assert_eq!(read(b"SPDY 200\r\n\r\n").expect_err("status").status(), 400);
    }

    #[test]
    fn a_forgotten_job_answers_gone() {
        let mut out = Vec::new();
        write_response(&mut out, 410, &[], "{}").expect("write");
        let (status, body) = read_response(&mut BufReader::new(&out[..])).expect("read back");
        assert_eq!((status, &body[..]), (410, &b"{}"[..]));
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 410 Gone\r\n"));
    }
}
