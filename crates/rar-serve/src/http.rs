//! A deliberately small HTTP/1.1 layer over `std::net`.
//!
//! The daemon speaks just enough HTTP for its five routes: request line,
//! headers (only `Content-Length` is interpreted), an optional body, and
//! either a fixed-length response or a chunked stream (for the live
//! progress endpoint). No external dependencies, matching the rest of
//! the workspace; no keep-alive — every response closes the connection,
//! which keeps the bounded connection pool honest and the parser tiny.
//!
//! Limits are enforced up front: oversized request lines, header blocks
//! and bodies are rejected with typed results before any allocation
//! proportional to attacker-controlled sizes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest accepted request line (method + path + version).
pub const MAX_REQUEST_LINE: usize = 4096;
/// Most accepted header bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body (job specs are tiny).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// Request target as sent (no query parsing; routes don't use one).
    pub path: String,
    /// Request body, empty unless `Content-Length` said otherwise.
    pub body: String,
}

/// Why a request could not be parsed; each maps to a 4xx.
#[derive(Debug)]
pub enum RequestError {
    /// Connection closed or undecodable before a full request arrived.
    Malformed(String),
    /// A limit above was exceeded.
    TooLarge(String),
    /// Underlying socket failure.
    Io(io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            RequestError::TooLarge(what) => write!(f, "request too large: {what}"),
            RequestError::Io(e) => write!(f, "request I/O error: {e}"),
        }
    }
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Reads one request from `stream` (which stays usable for the response).
pub fn read_request(stream: &TcpStream) -> Result<Request, RequestError> {
    parse_request(BufReader::new(stream.try_clone()?))
}

/// Parses one request (request line, headers, body) from `reader` under
/// the limits above. [`read_request`] feeds it a socket; tests feed it
/// bytes.
pub fn parse_request(mut reader: impl BufRead) -> Result<Request, RequestError> {
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_line(&mut line)?;
    if line.len() > MAX_REQUEST_LINE {
        return Err(RequestError::TooLarge("request line".to_owned()));
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(RequestError::Malformed(format!(
            "request line {:?}",
            line.trim()
        )));
    };
    let method = method.to_owned();
    let path = path.to_owned();

    let mut content_length: usize = 0;
    let mut header_bytes = 0;
    loop {
        let mut header = String::new();
        let n = reader
            .by_ref()
            .take(MAX_HEADER_BYTES as u64 + 1)
            .read_line(&mut header)?;
        header_bytes += n;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("headers".to_owned()));
        }
        // Below the limit, only the end of input stops a line short of
        // its newline: the head was cut off.
        if !header.ends_with('\n') {
            return Err(RequestError::Malformed("truncated headers".to_owned()));
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    RequestError::Malformed(format!("content-length {:?}", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge(format!("body of {content_length}")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::Malformed("non-UTF-8 body".to_owned()))?;
    Ok(Request { method, path, body })
}

/// A typed request-handling failure inside the daemon — the server-side
/// counterpart of [`RequestError`]. Handlers return these instead of
/// panicking, so a wedged shared-state lock degrades one request to a
/// 500 response rather than killing its connection thread (and poisoning
/// every lock that thread held).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// A shared-state mutex was poisoned by a panicking thread; the
    /// payload names the lock for the error body and the daemon log.
    LockPoisoned(&'static str),
}

impl HttpError {
    /// The response status this error maps to.
    #[must_use]
    pub const fn status(self) -> u16 {
        match self {
            HttpError::LockPoisoned(_) => 500,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::LockPoisoned(what) => write!(f, "internal error: {what} lock poisoned"),
        }
    }
}

/// Locks `m`, mapping a poisoned lock to a typed [`HttpError`] instead
/// of propagating the panic. Every lock acquisition on a daemon request
/// or job path goes through this, which is what keeps panicking lock
/// acquisitions out of those paths (enforced by the `serve-panic-paths`
/// repo lint).
///
/// # Errors
///
/// [`HttpError::LockPoisoned`] if a thread panicked while holding `m`.
pub fn lock<'a, T>(
    m: &'a std::sync::Mutex<T>,
    what: &'static str,
) -> Result<std::sync::MutexGuard<'a, T>, HttpError> {
    m.lock().map_err(|_| HttpError::LockPoisoned(what))
}

/// Writes the error response `e` maps to (plain text, `Connection:
/// close` like every other response).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn respond_error(stream: &mut TcpStream, e: HttpError) -> io::Result<()> {
    respond(stream, e.status(), "text/plain", &format!("{e}\n"))
}

/// The standard reason phrase for the handful of statuses the daemon uses.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete fixed-length response and flushes it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    respond_with_headers(stream, status, content_type, &[], body)
}

/// [`respond`] with extra response headers (e.g. the `Retry-After` the
/// backpressure path sends with its 429).
pub fn respond_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut extra = String::new();
    for (name, value) in headers {
        extra.push_str(&format!("{name}: {value}\r\n"));
    }
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Starts a chunked (streaming) response; follow with [`write_chunk`]
/// calls and one [`end_chunks`].
pub fn start_chunked(stream: &mut TcpStream, status: u16, content_type: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status),
    )?;
    stream.flush()
}

/// Writes one chunk (skipped when empty: an empty chunk would terminate
/// the stream).
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n{data}\r\n", data.len())?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn end_chunks(stream: &mut TcpStream) -> io::Result<()> {
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_owned();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let got = read_request(&stream);
        writer.join().expect("writer");
        got
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"k\":\"v\"}",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, "{\"k\":\"v\"}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip("GET /metrics HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn lock_helper_maps_poisoned_locks_to_typed_500s() {
        let m = std::sync::Mutex::new(0u32);
        assert!(lock(&m, "demo").is_ok());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let _ = std::panic::catch_unwind(|| {
            let _guard = m.lock().expect("fresh lock");
            panic!("poison the lock");
        });
        std::panic::set_hook(hook);
        let err = lock(&m, "demo").expect_err("lock must be poisoned");
        assert_eq!(err, HttpError::LockPoisoned("demo"));
        assert_eq!(err.status(), 500);
        assert_eq!(err.to_string(), "internal error: demo lock poisoned");
    }

    #[test]
    fn rejects_garbage_and_oversized_requests() {
        assert!(matches!(
            round_trip("\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        let huge = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(round_trip(&huge), Err(RequestError::TooLarge(_))));
    }
}
