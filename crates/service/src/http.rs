//! A minimal HTTP/1.1 frontend on `std::net::TcpListener` — no external
//! dependencies, persistent connections (`Connection: keep-alive`).
//!
//! Routes:
//!
//! * `POST /v1/schedule` — body is one request document, JSON by default
//!   or the binary wire format when `Content-Type:
//!   application/x-batsched-bin` is declared (an unknown media type is a
//!   typed 415 that keeps the connection alive); `Accept:
//!   application/x-batsched-bin` asks for the 200 response in binary
//!   (typed errors stay JSON). Answers `200` (with `X-Cache: hit|miss`),
//!   `400` for client errors, `503` when the queue is full, `500` for
//!   internal failures;
//! * `GET /v1/stats` — the service's counters as JSON;
//! * `GET /v1/metrics` — counters, gauges and latency histograms in
//!   Prometheus text exposition format;
//! * `GET /healthz` — liveness probe: answers 200 whenever the process
//!   can serve HTTP at all;
//! * `GET /readyz` — readiness probe: 503 (with the reasons) while the
//!   disk breaker is open, the worker pool is below target, or shutdown
//!   has begun;
//! * `POST /v1/shutdown` — acknowledges, then stops the acceptor (the
//!   owner's [`HttpServer::wait`] returns so it can drain the service).
//!
//! Every request on `/v1/schedule` carries a trace id: a client-supplied
//! `X-Request-Id` (sane ones are echoed verbatim on the response,
//! including typed errors) or one generated from the body's content hash
//! plus a monotonic sequence. When the service was started with a span
//! log, completing the request emits one structured JSON line with the
//! full stage timing breakdown (see [`crate::trace::Span`]).
//!
//! Each accepted connection runs a request loop: HTTP/1.1 connections are
//! kept alive by default (HTTP/1.0 ones only on an explicit
//! `Connection: keep-alive`), bounded by
//! [`ServiceConfig::max_requests_per_conn`] and a
//! [`ServiceConfig::idle_timeout`] between requests (defaults
//! [`MAX_REQUESTS_PER_CONNECTION`] and [`IDLE_TIMEOUT`]).
//! Framing is strict, because on a shared connection a parsing
//! slip desynchronises every later request: premature EOF anywhere in a
//! request, a duplicate/conflicting `Content-Length` and any
//! `Transfer-Encoding` are answered with a typed error and the connection
//! is closed — the daemon never guesses where the next request starts.
//!
//! The acceptor blocks in `accept`, so a connection is served the moment
//! it arrives; whoever stops it raises a [`Shutdown`], which wakes the
//! acceptor by connecting to the listener itself. Each accepted connection
//! is handled on its own thread, which also answers the requests the
//! cache tiers can answer and the malformed ones (the worker pool, not
//! the connection count, bounds solving concurrency — the queue provides
//! the backpressure).

use crate::service::Service;
#[cfg(doc)]
use crate::service::ServiceConfig;
use crate::trace::{self, Stage};
use crate::wire::{self, ErrorResponse, ScheduleResponse};
use crate::wire_bin::{self, WireFormat};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod client;

/// Largest accepted request body (an n=50, m=8 instance is ~60 KB; this
/// leaves two orders of magnitude of headroom without letting one client
/// balloon memory).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted request head (request line + headers). Everything a
/// connection can make the daemon buffer is capped: head lines are read
/// through a shrinking byte budget, so a client streaming newline-free
/// garbage cannot grow memory past it.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Default for [`ServiceConfig::max_requests_per_conn`]: requests served
/// on one connection before the daemon closes it (announced with
/// `Connection: close` on the final response). Bounds how long one client
/// can monopolise a connection thread.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// Default for [`ServiceConfig::idle_timeout`]: how long a kept-alive
/// connection may sit idle between requests before the daemon closes it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a framing-violation close waits for the peer to take the
/// typed error response before closing anyway (see [`linger_close`]).
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

/// How long the acceptor pauses after a failed `accept` (EMFILE, ENFILE):
/// a blocking listener reports those at once, so without the pause the
/// acceptor would spin until descriptors free up.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(15);
/// Bound on the wake connection [`Shutdown::raise`] opens to the listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Poll granularity while waiting at a request boundary — keeps idle
/// connections responsive to daemon shutdown without busy-waiting.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(100);
/// Per-read timeout once a request has started arriving.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// An acceptor's stop signal: the flag its acceptor and connection loops
/// read, and the listener address that wakes the acceptor out of a
/// blocking `accept`. [`Shutdown::raise`] is the only way to set the flag,
/// so no stop can leave the acceptor asleep.
pub(crate) struct Shutdown {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl Shutdown {
    /// A lowered flag for the listener bound at `listener`. An unspecified
    /// bind address (`0.0.0.0`, `[::]`) is woken through the loopback
    /// address of the same family.
    pub(crate) fn new(listener: SocketAddr) -> Shutdown {
        let mut wake = listener;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Shutdown {
            flag: AtomicBool::new(false),
            wake,
        }
    }

    pub(crate) fn is_raised(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Raises the flag, then connects to the listener so a blocked
    /// acceptor wakes, sees the flag and leaves. A failed connect is
    /// ignored: nothing listening means the acceptor has already gone.
    pub(crate) fn raise(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }
}

/// A running HTTP frontend bound to a local address.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections against `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(Shutdown::new(addr));
        let flag = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("batsched-http-accept".into())
            .spawn(move || {
                let shutdown = Arc::clone(&flag);
                accept_loop(&listener, &flag, "batsched-http-conn", move |stream| {
                    let (idle_timeout, max_requests) = service.http_limits();
                    let serve = |request, stream: &mut TcpStream, keep_alive, started, read_us| {
                        serve_one(
                            request, stream, &service, &shutdown, keep_alive, started, read_us,
                        )
                    };
                    let _ = serve_connection(stream, &shutdown, idle_timeout, max_requests, serve);
                });
            })?;
        Ok(HttpServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the acceptor to stop: it wakes at once and leaves without
    /// accepting another connection.
    pub fn stop(&self) {
        self.shutdown.raise();
    }

    /// Blocks until the acceptor exits — either [`Self::stop`] was called
    /// or a client hit `POST /v1/shutdown`.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Accepts connections until `shutdown` is raised, serving each on its
/// own thread; joins them all before returning. Blocks in `accept`
/// between connections: [`Shutdown::raise`] wakes it. Shared with the fleet
/// router.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shutdown: &Shutdown,
    thread_name: &str,
    serve: impl Fn(TcpStream) + Clone + Send + 'static,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.is_raised() {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.is_raised() {
                    break; // the wake connection: drop it and leave
                }
                let serve = serve.clone();
                if let Ok(h) = std::thread::Builder::new()
                    .name(thread_name.into())
                    .spawn(move || serve(stream))
                {
                    conns.push(h);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Waits at a request boundary for the next request's first byte, then
/// switches `stream` to the per-read timeout. `false` when the peer closed,
/// the connection sat idle past `idle_timeout` or `shutdown` was raised —
/// a clean close, not an error. Polls in short read-timeout ticks so a
/// shutdown doesn't wait out the whole idle window.
fn await_request(
    reader: &mut BufReader<TcpStream>,
    stream: &TcpStream,
    shutdown: &Shutdown,
    idle_timeout: Duration,
) -> io::Result<bool> {
    let mut idled = Duration::ZERO;
    loop {
        if shutdown.is_raised() {
            return Ok(false);
        }
        stream.set_read_timeout(Some(IDLE_POLL))?;
        match reader.fill_buf() {
            Ok([]) => return Ok(false), // peer closed between requests
            Ok(_) => break,             // first bytes of the next request
            Err(e) if is_timeout(&e) => {
                idled += IDLE_POLL;
                if idled >= idle_timeout {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    Ok(true)
}

/// How answering one request leaves its connection.
pub(crate) enum LoopExit {
    /// Answered; the loop goes on if both sides agreed to keep alive.
    Served,
    /// This response announced `Connection: close`; close after writing.
    AnnouncedClose,
}

/// Runs one connection's request loop (shared with the fleet router): waits
/// at each request boundary, frames the request and hands it to `serve`
/// with whether both sides agreed to keep the connection alive, when the
/// request's first byte arrived and how long reading it took (µs).
pub(crate) fn serve_connection(
    stream: TcpStream,
    shutdown: &Shutdown,
    idle_timeout: Duration,
    max_requests: usize,
    mut serve: impl FnMut(
        Result<Request, RequestError>,
        &mut TcpStream,
        bool,
        Instant,
        u64,
    ) -> io::Result<LoopExit>,
) -> io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Small responses on a kept-alive connection: without NODELAY, Nagle
    // batches the next response behind the previous ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut served = 0usize;
    while await_request(&mut reader, &stream, shutdown, idle_timeout)? {
        served += 1;
        // The request's end-to-end clock starts at its first byte.
        let started = Instant::now();
        let request = read_request(&mut reader);
        let read_us = started.elapsed().as_micros() as u64;
        let wants_more = matches!(&request, Ok(req) if req.keep_alive)
            && served < max_requests
            && !shutdown.is_raised();
        let exit = serve(request, &mut stream, wants_more, started, read_us)?;
        // Continue the loop only when both sides agreed to keep going.
        if matches!(exit, LoopExit::AnnouncedClose) || !wants_more {
            break;
        }
    }
    Ok(())
}

/// Lingering close for responses that reject a request mid-read
/// (oversized head, malformed framing): the socket still holds unread
/// request bytes, and closing with pending input makes the kernel send
/// RST — which can destroy the in-flight typed error before the peer
/// reads it. Half-close the write side (response and FIN go out in
/// order), then drain and discard input until the peer closes or a
/// short deadline passes, so the error response reliably survives.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => break, // peer saw the FIN and closed
            Ok(_) => {}     // discarding the rejected request's tail
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Answers one parsed (or failed) request. Framing failures always close
/// the connection: after a malformed head or a short body the next
/// request's start is unknowable, and guessing would hand one client's
/// request to another's response.
fn serve_one(
    request: Result<Request, RequestError>,
    stream: &mut TcpStream,
    service: &Service,
    shutdown: &Shutdown,
    keep_alive: bool,
    started: Instant,
    read_us: u64,
) -> io::Result<LoopExit> {
    let req = match request {
        Ok(req) => req,
        Err(e) => {
            reject(stream, e)?;
            return Ok(LoopExit::AnnouncedClose);
        }
    };

    let echo_header = echo_header(&req);
    let echo: Vec<&str> = echo_header.as_deref().into_iter().collect();

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/schedule") => {
            // Content negotiation: the declared Content-Type picks the
            // request decoder. An unknown media type is a typed 415 — the
            // framing was sound, so the connection stays usable.
            let Some(format) = negotiate_format(req.content_type.as_deref()) else {
                let declared = req.content_type.as_deref().unwrap_or("");
                write_response(
                    stream,
                    415,
                    &ErrorResponse::new(
                        "unsupported_media_type",
                        format!(
                            "unsupported Content-Type {declared:?}; use application/json or {}",
                            wire_bin::CONTENT_TYPE
                        ),
                    )
                    .to_json(),
                    &echo,
                    keep_alive,
                )?;
                return Ok(LoopExit::Served);
            };
            // One hash of the body: the trace id's prefix and the
            // service's alias key.
            let raw_key = wire::xxh64(&req.body);
            let trace_id = req
                .request_id
                .clone()
                .unwrap_or_else(|| trace::make_trace_id(raw_key, service.next_trace_seq()));
            // Connection-level fault sites need the body text for their
            // key predicate, but `call_bytes` consumes the body — copy it
            // only while a plane is armed (never on the production path).
            let fault_key = if service.faults().is_armed() {
                Some(String::from_utf8_lossy(&req.body).into_owned())
            } else {
                None
            };
            let mut reply = service.call_keyed(req.body, format, raw_key);
            reply.trace.add(Stage::Read, read_us);
            let labels = reply.disposition.labels(reply.trace.served_from_disk);
            let status = labels.status;
            if let Some(key) = &fault_key {
                // A stalled upstream holds the answer: the request was read
                // and answered internally, but no response byte leaves —
                // exactly what a wedged worker looks like from a router.
                if let Some(stall) = service.faults().conn_stall(key) {
                    std::thread::sleep(stall);
                }
                // A dropped connection severs mid-body: full head, half the
                // body, then close — the peer sees a premature EOF inside
                // a Content-Length-framed response.
                if service.faults().conn_drop(key) {
                    write_severed_response(stream, status, &reply.body)?;
                    return Ok(LoopExit::AnnouncedClose);
                }
            }
            let rid_header = format!("X-Request-Id: {trace_id}");
            let x_cache = labels.x_cache.map(|value| format!("X-Cache: {value}"));
            let mut headers: Vec<&str> = vec![rid_header.as_str()];
            headers.extend(x_cache.as_deref());
            let write_started = Instant::now();
            // `Accept`-negotiated binary responses are transcoded at this
            // edge from the canonical JSON the service (and its cache
            // tiers) always speak. Only a 200 schedule has a binary
            // spelling; typed errors stay JSON so failures are always
            // debuggable with any client.
            let binary_body = if req.accept_binary && status == 200 {
                serde_json::from_str::<ScheduleResponse>(&reply.body)
                    .ok()
                    .map(|resp| wire_bin::encode_response(&resp))
            } else {
                None
            };
            match &binary_body {
                Some(bin) => write_response_bytes(
                    stream,
                    200,
                    wire_bin::CONTENT_TYPE,
                    bin,
                    &headers,
                    keep_alive,
                )?,
                None => write_response(stream, status, &reply.body, &headers, keep_alive)?,
            }
            let write_us = write_started.elapsed().as_micros() as u64;
            reply.trace.add(Stage::Write, write_us);
            service.observe_http(&reply.trace);
            service.log_span(trace_id, &reply, started);
            Ok(LoopExit::Served)
        }
        ("GET", "/v1/stats") => {
            write_response(stream, 200, &service.stats_json(), &echo, keep_alive)?;
            Ok(LoopExit::Served)
        }
        ("GET", "/v1/metrics") => write_metrics(stream, &service.metrics_text(), &echo, keep_alive),
        ("GET", "/readyz") => write_readyz(stream, service.readiness(), &echo, keep_alive),
        _ => serve_common(&req, stream, &echo, keep_alive, shutdown),
    }
}

/// Answers `GET /v1/metrics` (daemon and router alike) with a Prometheus
/// text exposition.
pub(crate) fn write_metrics(
    stream: &mut TcpStream,
    text: &str,
    echo: &[&str],
    keep_alive: bool,
) -> io::Result<LoopExit> {
    let content_type = "text/plain; version=0.0.4; charset=utf-8";
    write_response_bytes(stream, 200, content_type, text.as_bytes(), echo, keep_alive)?;
    Ok(LoopExit::Served)
}

/// Answers `GET /readyz` (daemon and router alike): 200
/// `{"ready":true}`, or 503 listing the reasons it is not ready.
pub(crate) fn write_readyz<R: AsRef<str>>(
    stream: &mut TcpStream,
    readiness: Result<(), Vec<R>>,
    echo: &[&str],
    keep_alive: bool,
) -> io::Result<LoopExit> {
    let (status, body) = match readiness {
        Ok(()) => (200, r#"{"ready":true}"#.to_string()),
        Err(reasons) => {
            let listed: Vec<_> = reasons
                .iter()
                .map(|r| format!("\"{}\"", r.as_ref()))
                .collect();
            let body = format!("{{\"ready\":false,\"reasons\":[{}]}}", listed.join(","));
            (503, body)
        }
    };
    write_response(stream, status, &body, echo, keep_alive)?;
    Ok(LoopExit::Served)
}

/// A sane client-supplied `X-Request-Id` is echoed on every response,
/// typed errors included, so the caller can correlate across retries.
pub(crate) fn echo_header(req: &Request) -> Option<String> {
    let id = req.request_id.as_ref()?;
    Some(format!("X-Request-Id: {id}"))
}

/// The routes the daemon and the fleet router answer alike: liveness,
/// `POST /v1/shutdown` (acknowledge, then stop accepting) and a typed 404
/// for everything else.
pub(crate) fn serve_common(
    req: &Request,
    stream: &mut TcpStream,
    echo: &[&str],
    keep_alive: bool,
    shutdown: &Shutdown,
) -> io::Result<LoopExit> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            write_response(stream, 200, r#"{"ok":true}"#, echo, keep_alive)?;
            Ok(LoopExit::Served)
        }
        ("POST", "/v1/shutdown") => {
            let body = r#"{"ok":true,"shutting_down":true}"#;
            write_response(stream, 200, body, echo, false)?;
            shutdown.raise();
            Ok(LoopExit::AnnouncedClose)
        }
        _ => {
            let route = format!("no route {} {}", req.method, req.path);
            let body = ErrorResponse::new("not_found", route).to_json();
            write_response(stream, 404, &body, echo, keep_alive)?;
            Ok(LoopExit::Served)
        }
    }
}

/// Writes a deliberately truncated response for an injected `conn-drop`
/// fault: a sound head declaring the full `Content-Length`, then only half
/// the body. The caller closes the connection, so the peer observes an
/// upstream dying mid-body — the failover case a fleet router must retry.
fn write_severed_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason_phrase(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    // lint:allow(panic-path): ..len()/2 of the same slice is in-bounds by
    // construction; fault-injection-only path (conn-drop).
    stream.write_all(&body.as_bytes()[..body.len() / 2])?;
    stream.flush()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// One fully framed request off the wire. Shared with the fleet router,
/// which frames client requests with exactly the same rules before
/// proxying them.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Raw body bytes; wire-format interpretation (JSON vs binary) is
    /// route-level content negotiation, not a framing concern.
    pub(crate) body: Vec<u8>,
    /// The `Content-Type` header value, if any (parameters included).
    pub(crate) content_type: Option<String>,
    /// `true` when the `Accept` header asks for binary responses.
    pub(crate) accept_binary: bool,
    /// Whether the *client* side of the keep-alive negotiation allows
    /// another request on this connection.
    pub(crate) keep_alive: bool,
    /// A sane client-supplied `X-Request-Id`, already sanitised.
    pub(crate) request_id: Option<String>,
}

pub(crate) enum RequestError {
    /// The request violates HTTP framing; the connection must close.
    Malformed(String),
    /// Head or declared body size beyond the configured caps.
    TooLarge,
    /// Syntactically valid but using a feature this daemon refuses
    /// (currently any `Transfer-Encoding`); answered 501, then close.
    Unsupported(String),
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Answers a request that failed framing with its typed error, announcing
/// `Connection: close`, then lingers (see [`linger_close`]): after a
/// malformed head or a short body the next request's start is unknowable.
/// An I/O error is returned as is.
pub(crate) fn reject(stream: &mut TcpStream, err: RequestError) -> io::Result<()> {
    let (status, error, message) = match err {
        RequestError::TooLarge => (
            413,
            "too_large",
            "request head or body exceeds the size limit".to_string(),
        ),
        RequestError::Malformed(msg) => (400, "bad_http", msg),
        RequestError::Unsupported(msg) => (501, "unsupported_transfer_encoding", msg),
        RequestError::Io(e) => return Err(e),
    };
    let body = ErrorResponse::new(error, message).to_json();
    write_response(stream, status, &body, &[], false)?;
    linger_close(stream);
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one head line (CRLF- or LF-terminated) through the shrinking
/// `budget`. Returns `None` on EOF before any byte of this line.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut raw = Vec::new();
    // Allow one byte beyond the budget so "line exactly exhausts the
    // budget without terminating" is distinguishable from EOF.
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut raw)?;
    if n > *budget {
        return Err(RequestError::TooLarge);
    }
    *budget -= n;
    if n == 0 {
        return Ok(None);
    }
    if raw.last() != Some(&b'\n') {
        // More bytes would have been read if the stream had them: the
        // peer closed (or half-closed) mid-line.
        return Err(RequestError::Malformed(
            "premature EOF inside the request head".into(),
        ));
    }
    let line = String::from_utf8(raw)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

/// Reads and strictly frames one request: request line, headers, body.
///
/// Framing rules (each violation is typed, and closes the connection):
///
/// * the request line must be exactly `METHOD SP PATH SP HTTP/x.y`;
/// * EOF anywhere mid-head or mid-body is `Malformed` — a truncated
///   request must fail fast, not sit out the IO timeout in `read_exact`;
/// * `Content-Length` may appear at most once and must parse — duplicate
///   or conflicting values are the classic request-smuggling vector;
/// * any `Transfer-Encoding` is `Unsupported` (501): this daemon never
///   parses chunked bodies, and silently reading the body as empty would
///   poison every later request on the connection.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_head_line(reader, &mut budget)?
        .ok_or_else(|| RequestError::Malformed("EOF before the request line".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/") => {
            (m.to_string(), p.to_string(), v.to_string())
        }
        _ => {
            return Err(RequestError::Malformed(format!(
                "unreadable request line {request_line:?}"
            )))
        }
    };
    // Keep-alive default by version: 1.1 persists unless told otherwise,
    // 1.0 closes unless told otherwise. Anything else is refused rather
    // than guessed at.
    let mut keep_alive = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => {
            return Err(RequestError::Malformed(format!(
                "unsupported protocol version {v:?}"
            )))
        }
    };

    let mut content_length: Option<usize> = None;
    let mut request_id: Option<String> = None;
    let mut content_type: Option<String> = None;
    let mut accept_binary = false;
    loop {
        let line = read_head_line(reader, &mut budget)?
            .ok_or_else(|| RequestError::Malformed("premature EOF in headers".into()))?;
        if line.is_empty() {
            break; // blank line: end of head
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "header line without a colon: {line:?}"
            )));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| RequestError::Malformed(format!("bad Content-Length {value:?}")))?;
            match content_length {
                None => content_length = Some(parsed),
                Some(_) => {
                    return Err(RequestError::Malformed(
                        "duplicate Content-Length header".into(),
                    ))
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RequestError::Unsupported(format!(
                "Transfer-Encoding ({value}) is not supported; send a Content-Length body"
            )));
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("accept") {
            accept_binary = value
                .split(',')
                .any(|t| media_type(t).eq_ignore_ascii_case(wire_bin::CONTENT_TYPE));
        } else if name.eq_ignore_ascii_case("x-request-id") {
            // An insane id (empty, oversized, non-printable) is ignored —
            // the request still gets a generated trace id — rather than
            // rejected: the id is advisory, not part of the contract.
            request_id = trace::sanitize_client_id(value);
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            RequestError::Malformed("premature EOF in the request body".into())
        } else {
            RequestError::Io(e)
        }
    })?;
    // The body stays raw bytes: UTF-8 is a JSON-format concern, validated
    // by the service with a typed error that keeps the connection alive —
    // the framing here was fine.
    Ok(Request {
        method,
        path,
        body,
        content_type,
        accept_binary,
        keep_alive,
        request_id,
    })
}

/// The media type of a `Content-Type`/`Accept` value: the part before any
/// `;` parameters, trimmed.
fn media_type(value: &str) -> &str {
    value.split(';').next().unwrap_or("").trim()
}

/// Resolves the request's declared `Content-Type` to a wire format. An
/// absent header (or `application/json`) is the JSON compat path; anything
/// unrecognised is `None` → a typed 415.
fn negotiate_format(content_type: Option<&str>) -> Option<WireFormat> {
    match content_type.map(media_type) {
        None | Some("") => Some(WireFormat::Json),
        Some(t) if t.eq_ignore_ascii_case("application/json") => Some(WireFormat::Json),
        Some(t) if t.eq_ignore_ascii_case(wire_bin::CONTENT_TYPE) => Some(WireFormat::Binary),
        Some(_) => None,
    }
}

/// Writes one JSON response.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[&str],
    keep_alive: bool,
) -> io::Result<()> {
    let json = "application/json";
    write_response_bytes(
        stream,
        status,
        json,
        body.as_bytes(),
        extra_headers,
        keep_alive,
    )
}

/// Writes one response: status line (reason from [`reason_phrase`]),
/// framing headers, `extra_headers`, body.
pub(crate) fn write_response_bytes(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[&str],
    keep_alive: bool,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let start = format!("HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}");
    write_message(stream, &start, body, extra_headers, keep_alive)
}

/// Writes one HTTP/1.1 message, requests (see [`client::Conn::send`]) and
/// responses alike: `start` — the start line and any leading header lines,
/// without the last CRLF — then the framing headers, `extra_headers` and
/// `body`. Head and body go out in one write, so on a `TCP_NODELAY`
/// socket the peer wakes once per message, not once per part.
fn write_message(
    stream: &mut TcpStream,
    start: &str,
    body: &[u8],
    extra_headers: &[&str],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "{start}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let wake = |bound: &str| Shutdown::new(bound.parse().expect("address")).wake;
        assert_eq!(wake("0.0.0.0:8480"), "127.0.0.1:8480".parse().expect("v4"));
        assert_eq!(wake("[::]:8480"), "[::1]:8480".parse().expect("v6"));
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80".parse().expect("kept"));
    }
}
