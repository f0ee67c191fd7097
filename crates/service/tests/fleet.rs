//! Fleet robustness tests: routing invariants (proptest), exactly-once
//! retry under a mid-body upstream drop, breaker-driven restart of a
//! wedged worker, kill/respawn with zero lost requests, drain/readyz
//! transitions and the typed `upstream_unavailable` budget.

use batsched_service::fleet::SlotFaults;
use batsched_service::http::client::{Conn, Response};
use batsched_service::http::MAX_HEAD_BYTES;
use batsched_service::wire::xxh64;
use batsched_service::{
    home_slot, route, FaultPlane, FaultRule, FaultSite, Fleet, FleetConfig, InProcessLauncher,
    ScheduleRequest, ServiceConfig,
};
use batsched_taskgraph::paper::g2;
use proptest::prelude::*;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- routing

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Routing is total (any live worker ⇒ some assignment), in range,
    /// stable (pure function of hash + liveness), and lands on the home
    /// slot whenever the home slot is live.
    #[test]
    fn routing_is_total_stable_and_home_preferring(
        hash in any::<u64>(),
        live in prop::collection::vec(any::<bool>(), 1..9),
    ) {
        let routed = route(hash, &live);
        prop_assert_eq!(route(hash, &live), routed, "stable");
        match routed {
            None => prop_assert!(live.iter().all(|&l| !l), "None only when nobody is live"),
            Some(s) => {
                prop_assert!(s < live.len());
                prop_assert!(live[s], "routes only to live workers");
                let home = home_slot(hash, live.len());
                if live[home] {
                    prop_assert_eq!(s, home, "a live home slot always wins");
                }
            }
        }
    }

    /// Marking one worker dead only remaps the hashes that routed to it;
    /// every other worker keeps its slice (minimal disruption — restarts
    /// don't shuffle warm caches fleet-wide).
    #[test]
    fn removing_one_worker_only_remaps_its_slice(
        hashes in prop::collection::vec(any::<u64>(), 1..64),
        live in prop::collection::vec(any::<bool>(), 2..9),
        dead_pick in any::<u64>(),
    ) {
        // The property needs a survivor: force at least two live slots.
        let mut live = live;
        live[0] = true;
        live[1] = true;
        let live_slots: Vec<usize> =
            (0..live.len()).filter(|&i| live[i]).collect();
        let dead = live_slots[dead_pick as usize % live_slots.len()];
        let mut after_mask = live.clone();
        after_mask[dead] = false;
        for hash in hashes {
            let before = route(hash, &live).expect("someone is live");
            let after = route(hash, &after_mask).expect("someone is still live");
            if before == dead {
                prop_assert!(after != dead, "the dead worker's slice fails over");
            } else {
                prop_assert_eq!(before, after, "survivors keep their slices");
            }
        }
    }
}

// ----------------------------------------------------------- harness

fn worker_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

fn fast_fleet_config(size: usize) -> FleetConfig {
    FleetConfig {
        size,
        retry_budget: 2,
        upstream_timeout: Duration::from_secs(2),
        probe_interval: Duration::from_millis(30),
        backoff_base: Duration::from_millis(50),
        backoff_max: Duration::from_millis(500),
        breaker_threshold: 2,
        drain_timeout: Duration::from_secs(5),
        start_timeout: Duration::from_secs(10),
    }
}

fn boot(cfg: FleetConfig, faults: Option<SlotFaults>) -> Fleet {
    let launcher = InProcessLauncher {
        config: worker_config(),
        disk_base: None,
        faults,
    };
    let fleet = Fleet::start(cfg, Box::new(launcher), "127.0.0.1:0").expect("fleet starts");
    assert!(
        fleet.wait_ready(Duration::from_secs(20)),
        "fleet must become ready"
    );
    fleet
}

/// A schedule-request body whose content hash homes on `target` in a
/// fleet of `size` (the router hashes the raw body bytes).
fn body_homing_on(target: usize, size: usize) -> String {
    for tenth in 600..4000u32 {
        let body = serde_json::to_string(&ScheduleRequest::new(g2(), f64::from(tenth) / 10.0))
            .expect("serialises");
        if home_slot(xxh64(body.as_bytes()), size) == target {
            return body;
        }
    }
    panic!("no deadline in range homes on slot {target}");
}

/// One request on a fresh connection; reads the framed response.
fn post_schedule(addr: SocketAddr, body: &str) -> Response {
    request(addr, "POST", "/v1/schedule", body)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut c = Conn::connect(addr, Duration::from_secs(30)).expect("connect");
    let r = c.call(method, path, &[], body.as_bytes(), false);
    let r = r.expect("exchange");
    std::str::from_utf8(&r.body).expect("UTF-8 body");
    r
}

fn readyz_status(addr: SocketAddr) -> u16 {
    request(addr, "GET", "/readyz", "").status
}

// ------------------------------------------------------- basic routing

#[test]
fn fleet_answers_and_pins_duplicates_to_one_worker() {
    let fleet = boot(fast_fleet_config(3), None);
    let addr = fleet.local_addr();

    for target in 0..3 {
        let body = body_homing_on(target, 3);
        let cold = post_schedule(addr, &body);
        assert_eq!(cold.status, 200, "{}", cold.text());
        assert_eq!(
            cold.header("X-Fleet-Worker"),
            Some(target.to_string()).as_deref()
        );
        assert_eq!(cold.header("X-Cache"), Some("miss"));

        let warm = post_schedule(addr, &body);
        assert_eq!(warm.status, 200);
        assert_eq!(
            warm.header("X-Fleet-Worker"),
            cold.header("X-Fleet-Worker"),
            "duplicates route to the same worker"
        );
        assert_eq!(warm.header("X-Cache"), Some("hit"), "its cache is warm");
        assert_eq!(
            warm.body, cold.body,
            "bit-identical replay through the router"
        );
    }

    let status = fleet.status();
    assert!(status.ready);
    assert_eq!(status.requests, 6);
    assert_eq!(status.retries, 0);
    assert_eq!(status.unavailable, 0);

    let metrics = fleet.metrics_text();
    assert!(metrics.contains("batsched_fleet_size 3"), "{metrics}");
    assert!(metrics.contains("batsched_fleet_ready 1"), "{metrics}");
    assert!(
        metrics.contains("batsched_fleet_worker_proxied_total{worker=\"0\"}"),
        "{metrics}"
    );

    let doc = request(addr, "GET", "/v1/fleet", "");
    assert_eq!(doc.status, 200);
    assert!(doc.text().contains("\"workers\""), "{}", doc.text());
    fleet.shutdown();
}

// ------------------------------------------- exactly-once under drop

#[test]
fn mid_body_drop_is_retried_exactly_once_on_a_survivor() {
    // Worker 0 severs the connection after the response head and half the
    // body — once, for the one poisoned document.
    let poisoned = body_homing_on(0, 3);
    let marker = poisoned.clone();
    let faults: SlotFaults = Arc::new(move |slot, _attempt| {
        if slot == 0 {
            FaultPlane::armed([FaultRule::always(FaultSite::ConnDrop)
                .count(1)
                .key_contains(marker.clone())])
        } else {
            FaultPlane::disarmed()
        }
    });
    let fleet = boot(fast_fleet_config(3), Some(faults));
    let addr = fleet.local_addr();

    // The client sees exactly one complete, correct response: the router
    // absorbs the severed upstream exchange and fails over.
    let resp = post_schedule(addr, &poisoned);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let survivor = resp.header("X-Fleet-Worker").expect("worker header");
    assert_ne!(survivor, "0", "answered by a failover worker");
    assert!(resp.text().contains("\"sigma\""), "{}", resp.text());

    let status = fleet.status();
    assert_eq!(status.retries, 1, "exactly one failover retry");
    assert_eq!(status.unavailable, 0);
    assert_eq!(status.workers[0].upstream_errors, 1);

    // The rule's budget is spent: the same document now routes home again
    // and answers first-try.
    let again = post_schedule(addr, &poisoned);
    assert_eq!(again.status, 200);
    assert_eq!(again.header("X-Fleet-Worker"), Some("0"));
    assert_eq!(fleet.status().retries, 1, "no further retries");
    fleet.shutdown();
}

// ------------------------------------------------- wedged worker breaker

#[test]
fn stalled_worker_trips_the_breaker_and_is_restarted() {
    // Worker 0's first incarnation stalls every schedule response past the
    // router's per-attempt budget; its restarted incarnation is healthy.
    let faults: SlotFaults = Arc::new(|slot, attempt| {
        if slot == 0 && attempt == 0 {
            FaultPlane::armed([
                FaultRule::always(FaultSite::ConnStall).latency(Duration::from_millis(800))
            ])
        } else {
            FaultPlane::disarmed()
        }
    });
    let cfg = FleetConfig {
        upstream_timeout: Duration::from_millis(200),
        ..fast_fleet_config(3)
    };
    let fleet = boot(cfg, Some(faults));
    let addr = fleet.local_addr();
    let body = body_homing_on(0, 3);

    // Two exchanges against the wedged worker: both still answer 200 via
    // failover, and together they trip the breaker (threshold 2).
    for _ in 0..2 {
        let resp = post_schedule(addr, &body);
        assert_eq!(
            resp.status,
            200,
            "failover hides the wedge: {}",
            resp.text()
        );
        assert_ne!(resp.header("X-Fleet-Worker"), Some("0"));
    }

    // The monitor kills the wedged incarnation and brings up a healthy
    // one; the fleet returns to fully ready.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = fleet.status();
        if s.workers[0].restarts >= 1 && s.ready {
            break;
        }
        assert!(Instant::now() < deadline, "worker 0 never restarted: {s:?}");
        std::thread::sleep(Duration::from_millis(30));
    }

    // Home routing resumes on the healthy incarnation.
    let resp = post_schedule(addr, &body);
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("X-Fleet-Worker"), Some("0"));
    fleet.shutdown();
}

// --------------------------------------------------- kill -9 drill

#[test]
fn killed_worker_loses_no_requests_and_respawns() {
    let fleet = boot(fast_fleet_config(3), None);
    let addr = fleet.local_addr();
    let bodies: Vec<String> = (0..3).map(|t| body_homing_on(t, 3)).collect();

    let mut answered = 0u32;
    for round in 0..10 {
        if round == 3 {
            assert!(fleet.kill_worker(1), "worker 1 was live to kill");
        }
        for body in &bodies {
            let resp = post_schedule(addr, body);
            // Zero loss: every accepted request is answered exactly once —
            // served by a survivor or (never here, with two live workers
            // and budget 2) a typed 503.
            assert_eq!(resp.status, 200, "{}", resp.text());
            answered += 1;
        }
    }
    assert_eq!(answered, 30);

    // The dead worker respawns with backoff and the fleet heals.
    assert!(
        fleet.wait_ready(Duration::from_secs(20)),
        "fleet must return to ready after the kill"
    );
    let status = fleet.status();
    assert!(status.workers[1].restarts >= 1, "{status:?}");
    assert_eq!(status.unavailable, 0);
    fleet.shutdown();
}

// --------------------------------------------------------- drain cycle

#[test]
fn drain_restarts_one_worker_without_dropping_the_fleet() {
    let fleet = boot(fast_fleet_config(3), None);
    let addr = fleet.local_addr();
    assert_eq!(readyz_status(addr), 200);

    let drained = request(addr, "POST", "/v1/fleet/drain/2", "");
    assert_eq!(drained.status, 200, "{}", drained.text());

    // While worker 2 cycles, /readyz reports the partial fleet…
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let code = readyz_status(addr);
        if code == 503 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "/readyz never reported the drain"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // …but requests keep answering: worker 2's slice fails over.
    let resp = post_schedule(addr, &body_homing_on(2, 3));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_ne!(resp.header("X-Fleet-Worker"), Some("2"));

    // The drained worker comes back and readiness recovers.
    assert!(
        fleet.wait_ready(Duration::from_secs(20)),
        "fleet must return to ready after the drain"
    );
    assert_eq!(readyz_status(addr), 200);
    let status = fleet.status();
    assert_eq!(status.workers[2].drains, 1);
    assert_eq!(status.unavailable, 0);

    // Refusals are typed: an out-of-range slot conflicts, a non-numeric
    // one is a bad request.
    let missing = request(addr, "POST", "/v1/fleet/drain/9", "");
    assert_eq!(missing.status, 409, "{}", missing.text());
    assert!(
        missing.text().contains("drain_rejected"),
        "{}",
        missing.text()
    );
    let garbled = request(addr, "POST", "/v1/fleet/drain/nope", "");
    assert_eq!(garbled.status, 400, "{}", garbled.text());
    fleet.shutdown();
}

// ------------------------------------------------ retry budget spent

#[test]
fn unavailable_is_typed_when_every_worker_is_down() {
    let cfg = FleetConfig {
        backoff_base: Duration::from_secs(3),
        ..fast_fleet_config(1)
    };
    let fleet = boot(cfg, None);
    let addr = fleet.local_addr();
    let body = body_homing_on(0, 1);
    assert_eq!(post_schedule(addr, &body).status, 200);

    assert!(fleet.kill_worker(0));
    // The lone worker is down and backoff holds it there: the retry
    // budget is unspendable, so the client gets the typed 503 — never a
    // dropped or hung connection.
    let resp = post_schedule(addr, &body);
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(
        resp.text().contains("upstream_unavailable"),
        "{}",
        resp.text()
    );
    assert!(fleet.status().unavailable >= 1);

    // Health stays answerable throughout, readiness reports the hole.
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
    assert_eq!(readyz_status(addr), 503);

    // Backoff elapses, the worker respawns, service resumes.
    assert!(
        fleet.wait_ready(Duration::from_secs(20)),
        "fleet must heal after backoff"
    );
    assert_eq!(post_schedule(addr, &body).status, 200);
    fleet.shutdown();
}

// ------------------------------------------------------------ shutdown

#[test]
fn shutdown_endpoint_makes_fleet_wait_return() {
    let fleet = boot(fast_fleet_config(2), None);
    let addr = fleet.local_addr();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        fleet.wait();
        let _ = done.send(());
    });
    let ack = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(ack.status, 200, "{}", ack.text());
    // The watchdog turns a never-woken acceptor into a failure, not a hang.
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("Fleet::wait returns after POST /v1/shutdown");
}

#[test]
fn oversize_head_is_rejected_413_through_the_router() {
    let fleet = boot(fast_fleet_config(1), None);
    let mut c = Conn::connect(fleet.local_addr(), Duration::from_secs(30)).expect("connect");
    // One header line twice the head limit, no newline in sight: the
    // router rejects it with ~64 KiB of request bytes still unread, so
    // closing without a linger resets the connection.
    let filler = "x".repeat(2 * MAX_HEAD_BYTES);
    let raw = format!("GET /healthz HTTP/1.1\r\nX-Filler: {filler}");
    c.stream().write_all(raw.as_bytes()).expect("send");
    let r = c.read_response().expect("the typed error, not a reset");
    let r = r.expect("connection closed early");
    assert_eq!(r.status, 413);
    assert!(r.text().contains("too_large"), "{}", r.text());
    let next = c.read_response().expect("clean EOF");
    assert!(
        next.is_none(),
        "expected the router to close the connection"
    );
}
