//! Chaos tests for `xmodel serve`: misbehaving clients and induced
//! queue stalls must surface as *typed, bounded* outcomes — timeouts,
//! 400s, and 429 shedding — never as hung connections or a dirty drain.
//!
//! Client misbehavior is driven by the shared fault grammar
//! (`serve-slow-client`, `serve-torn-body`, `serve-stall`) with fixed
//! seeds, so every run exercises the identical chaos schedule.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xmodel_serve::{ServeConfig, Server};
use xmodel_sim::{FaultInjector, FaultSpec};

/// Generous client-side cap: anything slower than this counts as hung.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

const GOOD_BODY: &str = "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"l1_kib\":16}";

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("bind ephemeral serve socket")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        io_timeout_ms: 250,
        samples: 512,
        ..ServeConfig::default()
    }
}

/// Send raw bytes, return `(status, headers+body text)`. Panics on a
/// hang: both socket directions carry [`CLIENT_TIMEOUT`].
fn raw_request(addr: std::net::SocketAddr, payload: &[u8], tear: bool) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(CLIENT_TIMEOUT))
        .expect("write timeout");
    stream.write_all(payload).expect("write request");
    if tear {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status line");
    (status, text)
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let payload = format!(
        "POST {path} HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, payload.as_bytes(), false)
}

#[test]
fn serve_fault_family_round_trips_and_is_deterministic() {
    let spec = FaultSpec::parse("seed=7,serve-slow-client=0.5,serve-torn-body=0.25,serve-stall=40")
        .expect("parse serve fault family");
    assert_eq!(spec.serve_slow_client_prob, 0.5);
    assert_eq!(spec.serve_torn_body_prob, 0.25);
    assert_eq!(spec.serve_stall_ms, 40);
    assert!(spec.perturbs_serve());

    // Display → parse → Display is stable.
    let round = FaultSpec::parse(&spec.to_string()).expect("round trip");
    assert_eq!(round, spec);

    // Two injectors from the same spec draw the identical chaos schedule.
    let mut a = FaultInjector::new(&spec);
    let mut b = FaultInjector::new(&spec);
    let draws_a: Vec<(bool, bool)> = (0..64)
        .map(|_| (a.serve_slow_client(), a.serve_torn_body()))
        .collect();
    let draws_b: Vec<(bool, bool)> = (0..64)
        .map(|_| (b.serve_slow_client(), b.serve_torn_body()))
        .collect();
    assert_eq!(draws_a, draws_b);
    assert!(draws_a.iter().any(|(slow, _)| *slow));
    assert!(draws_a.iter().any(|(_, torn)| *torn));
}

#[test]
fn slow_clients_time_out_instead_of_hanging_a_worker() {
    let server = start(test_config());
    let addr = server.addr();

    // A client that sends the head then dribbles nothing further: the
    // bounded read must cut it off with a typed 408 well inside the
    // client timeout, and the worker must be free to serve others.
    let head = format!(
        "POST /solve HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n",
        GOOD_BODY.len()
    );
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("read timeout");
    stream.write_all(head.as_bytes()).expect("write head");
    // Send a few bytes of body, then stall (but keep the socket open).
    stream.write_all(b"{\"gpu\"").expect("write fragment");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let elapsed = started.elapsed();
    assert!(
        text.contains("408"),
        "stalled client should get a 408, got: {text:?}"
    );
    assert!(
        elapsed < CLIENT_TIMEOUT,
        "server must enforce its own io timeout, took {elapsed:?}"
    );

    // The worker is healthy afterwards: a good request still succeeds.
    let (status, _) = post(addr, "/solve", GOOD_BODY);
    assert_eq!(status, 200);

    let (status, _) = post(addr, "/quitck", "");
    assert_eq!(status, 200);
    assert!(server.wait().clean_drain);
}

#[test]
fn torn_bodies_get_a_typed_400_not_a_hang() {
    let server = start(test_config());
    let addr = server.addr();

    // Declare the full body length but send half and half-close: the
    // read loop must classify this as malformed, not wait for bytes
    // that will never come.
    let sent = &GOOD_BODY[..GOOD_BODY.len() / 2];
    let payload = format!(
        "POST /solve HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{sent}",
        GOOD_BODY.len()
    );
    let started = Instant::now();
    let (status, text) = raw_request(addr, payload.as_bytes(), true);
    assert_eq!(status, 400, "torn body should be a 400, got: {text:?}");
    assert!(started.elapsed() < CLIENT_TIMEOUT);

    let (status, _) = post(addr, "/solve", GOOD_BODY);
    assert_eq!(status, 200);

    let (status, _) = post(addr, "/quitck", "");
    assert_eq!(status, 200);
    assert!(server.wait().clean_drain);
}

#[test]
fn queue_stall_sheds_with_429_and_drains_clean() {
    // One deliberately stalled worker (the serve-stall fault) and a
    // two-deep queue: a burst must overflow admission and be shed with
    // 429 + Retry-After while admitted requests still complete.
    let spec = FaultSpec::parse("seed=11,serve-stall=80").expect("parse stall");
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        stall_ms: spec.serve_stall_ms,
        ..test_config()
    });
    let addr = server.addr();

    const BURST: usize = 12;
    let started = Instant::now();
    let outcomes: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| scope.spawn(move || post(addr, "/solve", GOOD_BODY)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert!(ok >= 1, "some of the burst must be admitted and served");
    assert!(
        shed >= 1,
        "burst of {BURST} against queue of 2 must shed; statuses: {:?}",
        outcomes.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    for (status, text) in &outcomes {
        if *status == 429 {
            assert!(
                text.to_ascii_lowercase().contains("retry-after"),
                "429 must carry Retry-After: {text:?}"
            );
        }
    }
    // Shed, not hung: the whole burst resolves in bounded time even
    // though a single worker stalls 80 ms per request.
    assert!(
        elapsed < CLIENT_TIMEOUT,
        "burst must resolve quickly, took {elapsed:?}"
    );

    let (status, _) = post(addr, "/quitck", "");
    assert_eq!(status, 200);
    let report = server.wait();
    assert!(report.clean_drain, "drain must finish inside its deadline");
    assert_eq!(report.shed, shed as u64);
}
