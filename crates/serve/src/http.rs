//! A minimal HTTP/1.1 server-side implementation on plain `std::io`
//! streams: enough protocol to parse requests and write responses.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive): the
//! connection handler reads requests in a loop until the client sends
//! `Connection: close`, speaks HTTP/1.0 without `keep-alive`, closes
//! the socket, or exceeds the per-request read timeout. An idle
//! timeout (no request started) closes silently; a timeout *mid*
//! request is answered with `408 Request Timeout`.

use std::io::{self, Read, Write};

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path only; query strings are not used by the
    /// serving protocol and are kept verbatim).
    pub target: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure.
    Io(io::Error),
    /// The peer closed the connection cleanly between requests — the
    /// normal end of a keep-alive session, not an error to report.
    Closed,
    /// The read timeout expired. `mid_request` is `true` when part of
    /// a request had already arrived (client gets a 408); `false` on
    /// an idle connection (closed silently).
    Timeout {
        /// Whether request bytes had been received before the timeout.
        mid_request: bool,
    },
    /// Head or body exceeded the size caps.
    TooLarge,
    /// Protocol violation.
    Malformed(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Timeout { mid_request: true } => write!(f, "timed out mid-request"),
            HttpError::Timeout { mid_request: false } => write!(f, "idle timeout"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// `true` for the error kinds a timed-out socket read produces
/// (`WouldBlock` on unix `SO_RCVTIMEO`, `TimedOut` on windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`HttpError::Closed`] when the peer hung up before sending anything
/// (normal for keep-alive), [`HttpError::Timeout`] when a read timeout
/// configured on the underlying socket expired, [`HttpError::TooLarge`]
/// when the head or body exceeds the caps, [`HttpError::Malformed`] on
/// protocol violations, [`HttpError::Io`] on transport failures.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    // Byte-at-a-time until the blank line; callers wrap the socket in
    // a BufReader so this costs one memcpy per byte, not one syscall.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        match stream.read(&mut byte) {
            Ok(0) if head.is_empty() => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-head")),
            Ok(_) => head.push(byte[0]),
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Timeout {
                    mid_request: !head.is_empty(),
                })
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        // HTTP/1.1 defaults to persistent; HTTP/1.0 to close.
        _ => version != "HTTP/1.0",
    };
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if let Err(e) = stream.read_exact(&mut body) {
        if is_timeout(&e) {
            return Err(HttpError::Timeout { mid_request: true });
        }
        return Err(HttpError::Io(e));
    }
    Ok(Request {
        method,
        target,
        headers,
        body,
        keep_alive,
    })
}

/// Canonical reason phrase for the status codes the server emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response. `keep_alive` selects the `Connection`
/// header; the caller decides whether the connection actually
/// persists.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with_headers(stream, status, content_type, body, keep_alive, &[])
}

/// Like [`write_response`], with extra response headers appended after
/// the standard ones. Header names and values must already be valid
/// HTTP token/text — they are written verbatim.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response_with_headers(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Head and body leave in ONE write: as two, the second write of a
    // response under one segment is held back by Nagle's algorithm
    // until the client's delayed ACK (~40 ms per keep-alive exchange).
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..]).expect("valid");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("Content-Length"), Some("4"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).expect("valid");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &close[..]).expect("valid").keep_alive);
        let old = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!read_request(&mut &old[..]).expect("valid").keep_alive);
        let old_ka = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &old_ka[..]).expect("valid").keep_alive);
    }

    #[test]
    fn clean_eof_before_any_byte_is_closed_not_malformed() {
        let raw: &[u8] = b"";
        assert!(matches!(
            read_request(&mut &raw[..]),
            Err(HttpError::Closed)
        ));
        let partial: &[u8] = b"GET / HT";
        assert!(matches!(
            read_request(&mut &partial[..]),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn timeouts_distinguish_idle_from_mid_request() {
        struct TimesOut {
            prefix: &'static [u8],
            at: usize,
        }
        impl Read for TimesOut {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at < self.prefix.len() {
                    buf[0] = self.prefix[self.at];
                    self.at += 1;
                    Ok(1)
                } else {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"))
                }
            }
        }
        let idle = read_request(&mut TimesOut { prefix: b"", at: 0 });
        assert!(matches!(
            idle,
            Err(HttpError::Timeout { mid_request: false })
        ));
        let mid = read_request(&mut TimesOut {
            prefix: b"GET / HTTP",
            at: 0,
        });
        assert!(matches!(mid, Err(HttpError::Timeout { mid_request: true })));
        // A timeout while the body is outstanding is also mid-request.
        let body = read_request(&mut TimesOut {
            prefix: b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
            at: 0,
        });
        assert!(matches!(
            body,
            Err(HttpError::Timeout { mid_request: true })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let raw = b"NOT-HTTP\r\n\r\n";
        assert!(read_request(&mut &raw[..]).is_err());
        let truncated = b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut &truncated[..]).is_err());
    }

    #[test]
    fn response_carries_requested_connection_header() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok", true).expect("write");
        assert!(String::from_utf8(out)
            .expect("utf8")
            .contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn response_leaves_in_a_single_write() {
        struct CountsWrites {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountsWrites {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = CountsWrites {
            writes: 0,
            bytes: Vec::new(),
        };
        write_response(&mut out, 200, "text/plain", b"ok", true).expect("write");
        assert_eq!(out.writes, 1, "head and body must not be separate segments");
        assert!(out.bytes.ends_with(b"\r\n\r\nok"));
    }

    #[test]
    fn reason_phrases_cover_served_codes() {
        for code in [200, 400, 404, 405, 408, 409, 413, 422, 429, 500, 503] {
            assert_ne!(status_reason(code), "Unknown", "{code}");
        }
    }

    #[test]
    fn extra_headers_are_appended_before_the_body() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            200,
            "application/json",
            b"{}",
            true,
            &[("X-Irf-Request-Id", "00000000deadbeef")],
        )
        .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("X-Irf-Request-Id: 00000000deadbeef\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let head_end = text.find("\r\n\r\n").expect("head/body split");
        assert!(text.find("X-Irf-Request-Id").expect("header") < head_end);
    }
}
