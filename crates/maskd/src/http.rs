//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Only what the daemon needs, nothing more: request-line + header
//! parsing, `Content-Length` and `chunked` request bodies with a hard
//! size cap, and response writing in both fixed-length and chunked
//! flavours (the events endpoint streams frames as chunks). Connections
//! are handled one request at a time (`Connection: close` semantics); the
//! sweep client opens a socket per call, which is plenty for a simulation
//! farm whose unit of work is measured in simulated megacycles.
//!
//! Parsing failures carry the status code the handler should answer with
//! ([`HttpError::status`]): malformed syntax → 400, a body above the
//! configured cap → 413. A truncated chunked body is a 400, not a hang —
//! every read path is bounded by the same cap.

use std::fmt;
use std::io::{BufRead, Write};

/// Hard cap on the request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A parse or I/O failure while reading a request.
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
        HttpError::new(400, format!("i/o error reading request: {e}"))
    }
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
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
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
                    return Err(HttpError::new(431, "request head too large"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::new(400, "non-UTF-8 request head"));
                }
                line.push(byte[0]);
            }
        }
    }
}

/// Reads and decodes one request from `stream`, enforcing `max_body` on
/// the decoded body size (fixed-length *and* chunked).
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD;
    let request_line = read_line(stream, &mut budget)?;
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

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, "malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    let chunked = req
        .header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(stream, max_body)?
    } else if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
        if len > max_body {
            return Err(HttpError::new(413, "request body exceeds MASKD_MAX_BODY"));
        }
        let mut body = vec![0u8; len];
        stream
            .read_exact(&mut body)
            .map_err(|_| HttpError::new(400, "request body shorter than Content-Length"))?;
        body
    } else {
        Vec::new()
    };

    Ok(Request { body, ..req })
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
            // Trailer section: read lines until the blank terminator.
            loop {
                let mut budget = 1024;
                let line = read_line(stream, &mut budget)
                    .map_err(|_| HttpError::new(400, "truncated chunk trailer"))?;
                if line.is_empty() {
                    return Ok(body);
                }
            }
        }
        // Cannot wrap: `body.len() <= max_body` holds here.
        if size > max_body - body.len() {
            return Err(HttpError::new(413, "request body exceeds MASKD_MAX_BODY"));
        }
        let start = body.len();
        body.resize(start + size, 0);
        stream
            .read_exact(&mut body[start..])
            .map_err(|_| HttpError::new(400, "truncated chunk"))?;
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
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("8\r\n{\"e\":1}\n\r\n8\r\n{\"e\":2}\n\r\n0\r\n\r\n"));
    }
}
