//! A thin blocking HTTP client for the daemon.
//!
//! Used by the `rar-experiments` client subcommands and the CI smoke
//! job; hand-rolled like the server so the workspace stays
//! dependency-free. Understands exactly what the daemon emits:
//! `Content-Length` bodies and chunked streams, `Connection: close`
//! semantics.
//!
//! Hardened against an unreliable daemon: every socket carries connect
//! and read/write deadlines (no call hangs forever), idempotent requests
//! can be retried under the shared `rar-chaos` backoff helper, and
//! [`ServeClient::follow_events`] reattaches a dropped progress stream
//! instead of failing a live tail.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rar_chaos::{retry_with_backoff, RetryPolicy};

/// How long a connect may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// How long one socket read or write may take.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One response: status code, response headers, and the (fully drained)
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (de-chunked when the server streamed).
    pub body: String,
}

impl Response {
    /// True for any 2xx status.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// First value of the named header (case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Failures worth retrying: the connection-shaped errors a restarting
/// daemon, a chaos connection drop, or a stalled-past-deadline socket
/// produce. Anything else (bad framing, refused routes) is a real error.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// A client bound to one server address (`host:port`).
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
}

impl ServeClient {
    /// A client for `addr` (e.g. `127.0.0.1:7878`) with fixed deadlines:
    /// 5 s to connect, 30 s per socket read/write.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> ServeClient {
        ServeClient { addr: addr.into() }
    }

    /// Connects with the configured deadline, trying each resolved
    /// address in turn.
    fn connect(&self) -> io::Result<TcpStream> {
        let mut last: Option<io::Error> = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no addresses for {}", self.addr),
            )
        }))
    }

    /// Sends one request and drains the whole response.
    ///
    /// # Errors
    ///
    /// Connection failures, a deadline expiring, or a response the
    /// daemon would never send (missing status line, bad chunk framing).
    pub fn request(&self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.stream(method, path, body, &mut |_| {})
    }

    /// [`ServeClient::request`] retried under the shared backoff helper
    /// when the failure is connection-shaped (daemon restarting, chaos
    /// connection drop). Meant for requests that are safe to repeat —
    /// all the daemon's GETs are; job submission is repeat-safe too
    /// because jobs are deterministic and idempotent by content, at
    /// worst costing a duplicate id.
    ///
    /// # Errors
    ///
    /// The final transient failure once retries are exhausted, or the
    /// first non-transient failure (those never retry).
    pub fn request_with_retry(&self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        // Jitter seed: client backoff never influences daemon state.
        const CLIENT_RETRY_SEED: u64 = 0xc11e_2775;
        retry_with_backoff(
            RetryPolicy::new(5, 25, 800),
            CLIENT_RETRY_SEED,
            None,
            |_| match self.request(method, path, body) {
                Err(e) if is_transient(&e) => Err(e),
                other => Ok(other),
            },
        )?
    }

    /// Like [`ServeClient::request`], but invokes `on_chunk` with each
    /// decoded fragment as it arrives — for following the live
    /// `/v1/jobs/{id}/events` stream. The full body is still returned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeClient::request`].
    pub fn stream(
        &self,
        method: &str,
        path: &str,
        body: &str,
        on_chunk: &mut dyn FnMut(&str),
    ) -> io::Result<Response> {
        let mut stream = self.connect()?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len(),
        )?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            // Closed before a single status byte (server drop): transient,
            // unlike a garbled status line, which is a protocol error.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {:?}", line.trim()),
                )
            })?;

        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated response headers",
                ));
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().ok();
                } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
                headers.push((name, value.to_owned()));
            }
        }

        let mut out = String::new();
        if chunked {
            loop {
                let mut size_line = String::new();
                if reader.read_line(&mut size_line)? == 0 {
                    // Stream cut mid-flight (server shutdown): return what
                    // arrived rather than failing a live tail.
                    break;
                }
                let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad chunk size {:?}", size_line.trim()),
                    )
                })?;
                if size == 0 {
                    break;
                }
                let mut chunk = vec![0u8; size];
                reader.read_exact(&mut chunk)?;
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf)?;
                let text = String::from_utf8_lossy(&chunk).into_owned();
                on_chunk(&text);
                out.push_str(&text);
            }
        } else if let Some(n) = content_length {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            out = String::from_utf8_lossy(&buf).into_owned();
        } else {
            reader.read_to_string(&mut out)?;
        }
        Ok(Response {
            status,
            headers,
            body: out,
        })
    }

    /// Follows the job's `/events` stream until the job reaches a
    /// terminal phase or `timeout` elapses, reconnecting with backoff
    /// when the stream is dropped or cut mid-flight. Heartbeats are
    /// stateless snapshots, so "resume" is simply reattaching to the
    /// job's current state — no events are buffered server-side.
    ///
    /// # Errors
    ///
    /// Non-transient transport failures, or `timeout` elapsing before
    /// the job goes terminal.
    pub fn follow_events(
        &self,
        id: u64,
        timeout: Duration,
        on_chunk: &mut dyn FnMut(&str),
    ) -> io::Result<Response> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.stream("GET", &format!("/v1/jobs/{id}/events"), "", on_chunk) {
                Ok(resp) if !resp.ok() => return Ok(resp),
                Ok(resp) => {
                    // A clean end usually means terminal — but a server
                    // drain also ends streams early, so confirm.
                    let status = self.request_with_retry("GET", &format!("/v1/jobs/{id}"), "")?;
                    match crate::jobs::field(&status.body, "status") {
                        Some(phase) if !matches!(phase, "completed" | "canceled" | "failed") => {
                            // Still live: fall through and reattach.
                        }
                        _ => return Ok(resp),
                    }
                }
                Err(e) if is_transient(&e) => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id}: events stream not terminal after {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Polls `GET /v1/jobs/{id}` until the job reaches a terminal phase
    /// (or `timeout` elapses), returning the final status document.
    /// Transient transport failures — a daemon mid-restart, a chaos
    /// connection drop — are absorbed and polling continues.
    ///
    /// # Errors
    ///
    /// Non-transient request failures, a non-2xx status, or timeout.
    pub fn wait_for_job(&self, id: u64, timeout: Duration) -> io::Result<Response> {
        let deadline = Instant::now() + timeout;
        loop {
            let resp = match self.request("GET", &format!("/v1/jobs/{id}"), "") {
                Ok(resp) => resp,
                Err(e) if is_transient(&e) && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
                Err(e) => return Err(e),
            };
            if !resp.ok() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("job {id}: HTTP {}: {}", resp.status, resp.body.trim()),
                ));
            }
            if let Some(status) = crate::jobs::field(&resp.body, "status") {
                if matches!(status, "completed" | "canceled" | "failed") {
                    return Ok(resp);
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still not terminal after {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
