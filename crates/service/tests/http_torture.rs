//! HTTP torture tests: keep-alive request loops, strict framing, and the
//! failure modes that become correctness-critical once two requests share
//! a connection — truncated heads and bodies, oversize heads, duplicate
//! `Content-Length`, `Transfer-Encoding`, per-connection request caps and
//! HTTP/1.0 semantics.

use batsched_service::http::client::{Conn, Response};
use batsched_service::http::{IDLE_TIMEOUT, MAX_HEAD_BYTES, MAX_REQUESTS_PER_CONNECTION};
use batsched_service::wire::ScheduleResponse;
use batsched_service::{HttpServer, ScheduleRequest, Service, ServiceConfig};
use batsched_taskgraph::paper::{g2, g3};
use std::io::Write;
use std::net::{Shutdown, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot() -> (Arc<Service>, HttpServer, SocketAddr) {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    (svc, server, addr)
}

fn schedule_body(deadline: f64) -> String {
    serde_json::to_string(&ScheduleRequest::new(g2(), deadline)).expect("serialises")
}

/// A test client on one connection: malformed requests go out as
/// hand-built bytes, well-formed ones through the framed client, which
/// also reads every response.
struct Client(Conn);

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client(Conn::connect(addr, Duration::from_secs(30)).expect("connect"))
    }

    fn send_raw(&mut self, raw: &str) {
        self.0.stream().write_all(raw.as_bytes()).expect("send");
    }

    /// Sends one well-formed request; `connection` is `keep-alive` or
    /// `close`.
    fn request_raw(&mut self, method: &str, path: &str, body: &str, connection: &str) {
        self.request_typed(method, path, None, body, connection);
    }

    /// [`Client::request_raw`] with an optional `Content-Type`.
    fn request_typed(
        &mut self,
        method: &str,
        path: &str,
        ct: Option<&str>,
        body: &str,
        conn: &str,
    ) {
        let ct = ct.map(|ct| format!("Content-Type: {ct}"));
        let headers: Vec<&str> = ct.iter().map(String::as_str).collect();
        let keep_alive = conn == "keep-alive";
        let sent = self
            .0
            .send(method, path, &headers, body.as_bytes(), keep_alive);
        sent.expect("send");
    }

    /// Reads one framed response with a UTF-8 body. Panics on a closed
    /// stream.
    fn read_response(&mut self) -> Response {
        let r = self.0.read_response().expect("read response");
        let r = r.expect("connection closed early");
        std::str::from_utf8(&r.body).expect("UTF-8 body");
        r
    }

    /// Asserts the server has closed: the next read returns EOF.
    fn assert_closed(&mut self) {
        let next = self.0.read_response().expect("clean EOF");
        assert!(
            next.is_none(),
            "expected the server to close the connection"
        );
    }
}

// ---------------------------------------------------------- keep-alive

#[test]
fn keep_alive_pipelines_hit_miss_and_error_on_one_connection() {
    let (svc, server, addr) = boot();
    let miss_body = schedule_body(75.0);
    let mut c = Client::connect(addr);

    // miss → hit → well-framed client error → another hit, all on ONE
    // connection; the client error must NOT poison the stream.
    c.request_raw("POST", "/v1/schedule", &miss_body, "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.head.contains("X-Cache: miss"), "{}", r.head);
    assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
    let first: ScheduleResponse = serde_json::from_str(&r.text()).expect("schedule body");

    c.request_raw("POST", "/v1/schedule", &miss_body, "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("X-Cache: hit"), "{}", r.head);
    let warm: ScheduleResponse = serde_json::from_str(&r.text()).expect("schedule body");
    assert_eq!(warm, first, "keep-alive hit replays identical content");

    c.request_raw("POST", "/v1/schedule", "{ nope", "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_json"), "{}", r.text());
    assert!(
        r.head.contains("Connection: keep-alive"),
        "a well-framed bad request keeps the connection: {}",
        r.head
    );

    c.request_raw("GET", "/v1/stats", "", "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("\"cache_hits\":1"), "{}", r.text());

    // Explicit close is honoured: response announces it, then EOF.
    c.request_raw("GET", "/healthz", "", "close");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("Connection: close"), "{}", r.head);
    c.assert_closed();

    // One TCP connection carried the whole conversation.
    assert_eq!(svc.stats().received, 3);
    drop(server);
    svc.shutdown();
}

#[test]
fn pipelined_requests_sent_back_to_back_are_answered_in_order() {
    let (svc, server, addr) = boot();
    let body = schedule_body(75.0);
    let mut c = Client::connect(addr);
    // Write three requests before reading any response.
    for _ in 0..3 {
        c.request_raw("POST", "/v1/schedule", &body, "keep-alive");
    }
    let r1 = c.read_response();
    let r2 = c.read_response();
    let r3 = c.read_response();
    assert_eq!((r1.status, r2.status, r3.status), (200, 200, 200));
    assert!(r1.head.contains("X-Cache: miss"));
    assert!(r2.head.contains("X-Cache: hit"));
    assert!(r3.head.contains("X-Cache: hit"));
    assert_eq!(r1.body, r2.body);
    assert_eq!(r2.body, r3.body);
    drop(server);
    svc.shutdown();
}

#[test]
fn http10_closes_by_default_but_keeps_alive_on_request() {
    let (svc, server, addr) = boot();

    let mut c = Client::connect(addr);
    c.send_raw("GET /healthz HTTP/1.0\r\nHost: localhost\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("Connection: close"), "{}", r.head);
    c.assert_closed();

    let mut c = Client::connect(addr);
    c.send_raw("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
    c.send_raw("GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    c.assert_closed();

    drop(server);
    svc.shutdown();
}

#[test]
fn request_cap_closes_the_connection_with_announcement() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    for k in 1..=MAX_REQUESTS_PER_CONNECTION {
        c.request_raw("GET", "/healthz", "", "keep-alive");
        let r = c.read_response();
        assert_eq!(r.status, 200);
        let expect_close = k == MAX_REQUESTS_PER_CONNECTION;
        assert_eq!(
            r.head.contains("Connection: close"),
            expect_close,
            "request {k}: {}",
            r.head
        );
    }
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

// ------------------------------------------------------- strict framing

#[test]
fn truncated_head_fails_fast_with_400() {
    let (svc, server, addr) = boot();
    let started = Instant::now();
    let mut c = Client::connect(addr);
    // Head cut off mid-headers (no blank line), then half-close: must be
    // answered 400 immediately, not after the 10 s IO timeout burns down.
    c.send_raw("POST /v1/schedule HTTP/1.1\r\nContent-Length: 10\r\n");
    c.0.stream().shutdown(Shutdown::Write).expect("half-close");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_http"), "{}", r.text());
    assert!(r.head.contains("Connection: close"), "{}", r.head);
    c.assert_closed();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "truncated head must fail fast, took {:?}",
        started.elapsed()
    );
    drop(server);
    svc.shutdown();
}

#[test]
fn truncated_request_line_fails_fast_with_400() {
    let (svc, server, addr) = boot();
    let started = Instant::now();
    let mut c = Client::connect(addr);
    c.send_raw("POST /v1/sched"); // no line terminator at all
    c.0.stream().shutdown(Shutdown::Write).expect("half-close");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(started.elapsed() < Duration::from_secs(5));
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

#[test]
fn truncated_body_fails_fast_with_400() {
    let (svc, server, addr) = boot();
    let started = Instant::now();
    let mut c = Client::connect(addr);
    c.send_raw("POST /v1/schedule HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"v\":1");
    c.0.stream().shutdown(Shutdown::Write).expect("half-close");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_http"), "{}", r.text());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "truncated body must fail fast, took {:?}",
        started.elapsed()
    );
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

#[test]
fn oversize_head_is_rejected_413() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    c.send_raw("GET /healthz HTTP/1.1\r\n");
    // One enormous header line, no newline in sight.
    let filler = "x".repeat(MAX_HEAD_BYTES + 64);
    c.send_raw(&format!("X-Filler: {filler}"));
    let r = c.read_response();
    assert_eq!(r.status, 413);
    assert!(r.text().contains("too_large"), "{}", r.text());
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

#[test]
fn duplicate_and_conflicting_content_length_are_rejected() {
    for (a, b) in [(10usize, 20usize), (10, 10)] {
        let (svc, server, addr) = boot();
        let mut c = Client::connect(addr);
        c.send_raw(&format!(
            "POST /v1/schedule HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n{}",
            "z".repeat(a.max(b))
        ));
        let r = c.read_response();
        assert_eq!(r.status, 400, "CL {a} vs {b}");
        assert!(
            r.text().contains("duplicate Content-Length"),
            "{}",
            r.text()
        );
        assert!(r.head.contains("Connection: close"), "{}", r.head);
        c.assert_closed();
        drop(server);
        svc.shutdown();
    }
}

#[test]
fn unparseable_content_length_is_rejected() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    c.send_raw("POST /v1/schedule HTTP/1.1\r\nContent-Length: 10, 10\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad Content-Length"), "{}", r.text());
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

#[test]
fn transfer_encoding_is_refused_with_501() {
    let (svc, server, addr) = boot();
    for te in ["chunked", "gzip, chunked", "identity"] {
        let mut c = Client::connect(addr);
        c.send_raw(&format!(
            "POST /v1/schedule HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n"
        ));
        let r = c.read_response();
        assert_eq!(r.status, 501, "TE {te:?}");
        assert!(
            r.text().contains("unsupported_transfer_encoding"),
            "{}",
            r.text()
        );
        assert!(r.head.contains("Connection: close"), "{}", r.head);
        c.assert_closed();
    }
    drop(server);
    svc.shutdown();
}

#[test]
fn unknown_content_type_is_415_and_keeps_the_connection() {
    let (svc, server, addr) = boot();
    let body = schedule_body(75.0);
    let mut c = Client::connect(addr);
    // Unknown media types are a client mistake, not a framing violation:
    // the typed 415 must not poison the keep-alive stream.
    for ct in ["text/plain", "application/xml", "application/json2"] {
        c.request_typed("POST", "/v1/schedule", Some(ct), &body, "keep-alive");
        let r = c.read_response();
        assert_eq!(r.status, 415, "{ct}");
        assert!(r.text().contains("unsupported_media_type"), "{}", r.text());
        assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
    }
    // The SAME connection still serves real requests; a charset parameter
    // on application/json is fine.
    let json = Some("application/json; charset=utf-8");
    c.request_typed("POST", "/v1/schedule", json, &body, "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 200, "{}", r.text());
    c.request_raw("POST", "/v1/schedule", &body, "close");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("X-Cache: hit"), "{}", r.head);
    c.assert_closed();
    // Rejected uploads never reach the service.
    assert_eq!(svc.stats().received, 2);
    drop(server);
    svc.shutdown();
}

#[test]
fn non_utf8_json_body_is_a_typed_400_not_a_framing_error() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    // A well-framed body that is not UTF-8: semantic error, typed answer,
    // connection preserved.
    c.send_raw("POST /v1/schedule HTTP/1.1\r\nContent-Length: 4\r\nConnection: keep-alive\r\n\r\n");
    c.0.stream()
        .write_all(&[0xff, 0xfe, 0x01, 0x02])
        .expect("send");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_json"), "{}", r.text());
    assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
    c.request_raw("GET", "/healthz", "", "close");
    assert_eq!(c.read_response().status, 200);
    c.assert_closed();
    drop(server);
    svc.shutdown();
}

#[test]
fn malformed_request_line_closes_after_400() {
    let (svc, server, addr) = boot();
    for raw in [
        "GARBAGE\r\n\r\n",
        "GET /x HTTP/1.1 extra\r\n\r\n",
        "GET /x SMTP/1.0\r\n\r\n",
        "GET /x HTTP/2.0\r\n\r\n",
        "GET /x HTTP/1.1\r\nno-colon-line\r\n\r\n",
    ] {
        let mut c = Client::connect(addr);
        c.send_raw(raw);
        let r = c.read_response();
        assert_eq!(r.status, 400, "raw {raw:?}");
        assert!(r.head.contains("Connection: close"), "{}", r.head);
        c.assert_closed();
    }
    drop(server);
    svc.shutdown();
}

// --------------------------------------------------- lifecycle details

#[test]
#[allow(clippy::assertions_on_constants)]
fn idle_timeout_constant_is_sane() {
    // The torture suite cannot afford to sit out a real idle window; pin
    // the contract instead so a config regression is at least loud.
    assert!(IDLE_TIMEOUT >= Duration::from_secs(1));
    assert!(IDLE_TIMEOUT <= Duration::from_secs(60));
    assert!(MAX_REQUESTS_PER_CONNECTION >= 8);
}

#[test]
fn clean_disconnect_between_requests_is_not_an_error() {
    let (svc, server, addr) = boot();
    {
        let mut c = Client::connect(addr);
        c.request_raw("GET", "/healthz", "", "keep-alive");
        let r = c.read_response();
        assert_eq!(r.status, 200);
        // Drop the connection at a request boundary (no close header).
    }
    // The daemon keeps serving fresh connections afterwards.
    let mut c = Client::connect(addr);
    c.request_raw("GET", "/healthz", "", "close");
    assert_eq!(c.read_response().status, 200);
    drop(server);
    svc.shutdown();
}

#[test]
fn shutdown_endpoint_closes_its_own_keep_alive_connection() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    c.request_raw("GET", "/healthz", "", "keep-alive");
    assert_eq!(c.read_response().status, 200);
    c.request_raw("POST", "/v1/shutdown", "", "keep-alive");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(r.head.contains("Connection: close"), "{}", r.head);
    c.assert_closed();
    server.wait(); // acceptor exits because the endpoint tripped the flag
    svc.shutdown();
}

#[test]
fn keep_alive_duplicate_stream_stays_on_one_connection_and_hits() {
    // The keep-alive gate: 20 requests of a duplicate-heavy stream go down
    // ONE connection (the client panics if the daemon closes it early),
    // all are cache hits after each body's first request, and every
    // response is bit-identical.
    let (svc, server, addr) = boot();
    let bodies = [schedule_body(75.0), {
        serde_json::to_string(&ScheduleRequest::new(g3(), 230.0)).expect("serialises")
    }];
    let mut c = Client::connect(addr);
    let mut first: Vec<Option<String>> = vec![None, None];
    for round in 0..10 {
        for (i, b) in bodies.iter().enumerate() {
            c.request_raw("POST", "/v1/schedule", b, "keep-alive");
            let r = c.read_response();
            assert_eq!(r.status, 200, "round {round}: {}", r.text());
            match &first[i] {
                None => first[i] = Some(r.text().into_owned()),
                Some(expect) => assert_eq!(&r.text(), expect, "round {round}"),
            }
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.received, 20);
    assert_eq!(stats.cache_hits, 18);
    drop(server);
    svc.shutdown();
}

// ------------------------------------------------------------- wake path

/// Runs `f` on its own thread and fails the test unless it returns within
/// `limit`: an acceptor that is never woken then fails the test instead of
/// hanging the suite.
fn within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    finished
        .recv_timeout(limit)
        .unwrap_or_else(|e| panic!("{what} did not return within {limit:?} ({e})"));
}

#[test]
fn server_on_an_unspecified_address_drops_without_a_connection() {
    // The wake connection must reach a listener bound to 0.0.0.0 through
    // the loopback address; no client ever connects here.
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "0.0.0.0:0").expect("bind");
    // Let the acceptor block in `accept` first: stopped before its first
    // look at the flag, it would leave without needing the wake.
    std::thread::sleep(Duration::from_millis(100));
    within(Duration::from_secs(2), "dropping the server", move || {
        drop(server)
    });
    svc.shutdown();
}

#[test]
fn stop_returns_with_an_idle_kept_alive_connection_open() {
    let (svc, server, addr) = boot();
    let mut c = Client::connect(addr);
    c.request_raw("GET", "/healthz", "", "keep-alive");
    assert_eq!(c.read_response().status, 200);
    within(Duration::from_secs(2), "stop + wait", move || {
        server.stop();
        server.wait();
    });
    // The idle connection's loop saw the flag and closed it.
    c.assert_closed();
    svc.shutdown();
}
