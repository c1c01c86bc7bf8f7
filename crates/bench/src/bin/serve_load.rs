//! `serve-load` — deterministic load generator for `xmodel serve`.
//!
//! Fires a fixed, seed-reproducible mix of good / malformed /
//! deadline-doomed requests at a running daemon from a pool of client
//! threads, then reports throughput (req/s) and latency quantiles
//! (p50/p95/p99 of 2xx responses) and optionally writes them as an
//! `xmodel-bench/1` snapshot so `scripts/bench_gate.sh` can gate them
//! exactly like the micro-bench numbers.
//!
//! ```text
//! serve-load --addr HOST:PORT [--requests N] [--concurrency C]
//!            [--mix G:M:D] [--seed S] [--deadline-ms MS]
//!            [--fault-spec SPEC] [--label L] [--out FILE]
//! serve-load --addr HOST:PORT --get PATH
//! serve-load --addr HOST:PORT --post PATH [--body JSON]
//! ```
//!
//! The `--mix G:M:D` weights interleave request classes round-robin
//! (Good solve, Malformed body, Deadline-doomed solve with a 1 ms
//! budget); every class assignment and parameter jitter is a pure
//! function of `(--seed, request index)`. Client-side chaos comes from
//! the shared fault grammar: `--fault-spec serve-slow-client=P` dribbles
//! request bytes, `serve-torn-body=P` declares more body than it sends.
//!
//! One-shot `--get`/`--post` mode prints the response body to stdout and
//! exits 0 on a 2xx status, 1 otherwise — it exists so `scripts/ci.sh`
//! can scrape `/metrics` and trigger `/quitck` without assuming `curl`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xmodel::sim::{FaultInjector, FaultSpec};

/// Socket timeout for generated clients; a server that stops answering
/// shows up as timeout errors, not a hung generator.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestKind {
    Good,
    Malformed,
    DeadlineDoomed,
}

#[derive(Debug, Default, Clone)]
struct Tally {
    ok: u64,
    shed_429: u64,
    deadline_504: u64,
    client_error_4xx: u64,
    other: u64,
    transport_errors: u64,
    /// Latencies of 2xx responses, microseconds.
    latencies_us: Vec<f64>,
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return std::process::ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: serve-load --addr HOST:PORT [--requests N] [--concurrency C]\n\
         \u{20}                 [--mix G:M:D] [--seed S] [--deadline-ms MS]\n\
         \u{20}                 [--fault-spec SPEC] [--label L] [--out FILE]\n\
         \u{20}      serve-load --addr HOST:PORT --get PATH\n\
         \u{20}      serve-load --addr HOST:PORT --post PATH [--body JSON]\n\
         \n\
         Deterministic load generator for `xmodel serve`; writes req/s and\n\
         p50/p95/p99 as an xmodel-bench snapshot for bench_gate.sh. The\n\
         one-shot --get/--post mode prints the response body and exits 0\n\
         on 2xx (a curl substitute for CI scripts)."
    );
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run(args: &[String]) -> Result<std::process::ExitCode, String> {
    let addr = flag_value(args, "--addr").ok_or("--addr HOST:PORT required")?;

    if let Some(path) = flag_value(args, "--get") {
        return one_shot(&addr, "GET", &path, "");
    }
    if let Some(path) = flag_value(args, "--post") {
        let body = flag_value(args, "--body").unwrap_or_default();
        return one_shot(&addr, "POST", &path, &body);
    }

    let requests: u64 = parse_or(args, "--requests", 100)?;
    let concurrency: u64 = parse_or(args, "--concurrency", 8)?.max(1);
    let seed: u64 = parse_or(args, "--seed", 42)?;
    let doomed_deadline_ms: u64 = parse_or(args, "--deadline-ms", 1)?;
    let mix = parse_mix(&flag_value(args, "--mix").unwrap_or_else(|| "1:0:0".to_string()))?;
    let spec = match flag_value(args, "--fault-spec") {
        Some(text) => FaultSpec::parse(&text).map_err(|e| format!("--fault-spec: {e}"))?,
        None => FaultSpec::default(),
    };
    let label = flag_value(args, "--label").unwrap_or_else(|| "serve".to_string());

    let started = Instant::now();
    let mut tallies: Vec<Tally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..concurrency {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                // Per-worker injector: decisions are a pure function of
                // (spec seed, worker, per-worker request order).
                let mut chaos = FaultInjector::new(&FaultSpec {
                    seed: spec.seed ^ splitmix64(seed.wrapping_add(worker)),
                    ..spec
                });
                let mut tally = Tally::default();
                let mut index = worker;
                while index < requests {
                    let kind = kind_for(index, mix);
                    fire(
                        &addr,
                        index,
                        seed,
                        kind,
                        doomed_deadline_ms,
                        &mut chaos,
                        &mut tally,
                    );
                    index += concurrency;
                }
                tally
            }));
        }
        for handle in handles {
            if let Ok(tally) = handle.join() {
                tallies.push(tally);
            }
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut total = Tally::default();
    for t in &tallies {
        total.ok += t.ok;
        total.shed_429 += t.shed_429;
        total.deadline_504 += t.deadline_504;
        total.client_error_4xx += t.client_error_4xx;
        total.other += t.other;
        total.transport_errors += t.transport_errors;
        total.latencies_us.extend_from_slice(&t.latencies_us);
    }
    total
        .latencies_us
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let responses =
        total.ok + total.shed_429 + total.deadline_504 + total.client_error_4xx + total.other;
    let rps = if wall_s > 0.0 {
        responses as f64 / wall_s
    } else {
        0.0
    };
    let p50 = quantile(&total.latencies_us, 0.50);
    let p95 = quantile(&total.latencies_us, 0.95);
    let p99 = quantile(&total.latencies_us, 0.99);

    println!("serve-load: {requests} requests x{concurrency} in {wall_s:.2} s = {rps:.1} req/s");
    println!(
        "  2xx {}  429 {}  504 {}  4xx {}  other {}  transport-errors {}",
        total.ok,
        total.shed_429,
        total.deadline_504,
        total.client_error_4xx,
        total.other,
        total.transport_errors
    );
    println!("  admitted latency: p50 {p50:.0} us  p95 {p95:.0} us  p99 {p99:.0} us");

    if let Some(out) = flag_value(args, "--out") {
        write_snapshot(&out, &label, wall_s, rps, p50, p95, p99, &total)?;
        println!("wrote {out}");
    }
    Ok(std::process::ExitCode::SUCCESS)
}

fn parse_or(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|e| format!("{name}: {e}")),
        None => Ok(default),
    }
}

/// `G:M:D` weights for good / malformed / deadline-doomed requests.
fn parse_mix(text: &str) -> Result<(u64, u64, u64), String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [g, m, d] = parts.as_slice() else {
        return Err(format!("--mix: expected G:M:D, got {text:?}"));
    };
    let parse = |v: &str| v.parse::<u64>().map_err(|e| format!("--mix: {e}"));
    let mix = (parse(g)?, parse(m)?, parse(d)?);
    if mix.0 + mix.1 + mix.2 == 0 {
        return Err("--mix: at least one weight must be positive".to_string());
    }
    Ok(mix)
}

/// Round-robin class assignment: request `i` takes the class owning
/// slot `i mod (G+M+D)`. Pure in the index, so every run with the same
/// flags issues the same sequence.
fn kind_for(index: u64, (g, m, d): (u64, u64, u64)) -> RequestKind {
    let slot = index % (g + m + d);
    if slot < g {
        RequestKind::Good
    } else if slot < g + m {
        RequestKind::Malformed
    } else {
        let _ = d;
        RequestKind::DeadlineDoomed
    }
}

/// SplitMix64: the deterministic jitter source for request parameters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Issue one request and record the outcome. Transport failures (shed
/// connections the server reset, timeouts) are counted, not fatal.
fn fire(
    addr: &str,
    index: u64,
    seed: u64,
    kind: RequestKind,
    doomed_deadline_ms: u64,
    chaos: &mut FaultInjector,
    tally: &mut Tally,
) {
    // Jitter n across requests so the sharded cache sees both reuse
    // (same supply curve) and fresh demand curves.
    let n = 16 + (splitmix64(seed ^ index) % 48);
    let (path, body) = match kind {
        RequestKind::Good => (
            "/solve",
            format!("{{\"gpu\":\"fermi\",\"z\":20,\"n\":{n},\"l1_kib\":16}}"),
        ),
        RequestKind::Malformed => ("/solve", "{\"gpu\":\"fermi\",\"z\":20,".to_string()),
        RequestKind::DeadlineDoomed => (
            "/solve",
            format!(
                "{{\"gpu\":\"fermi\",\"z\":20,\"n\":{n},\"l1_kib\":16,\
                 \"samples\":65536,\"deadline_ms\":{doomed_deadline_ms}}}"
            ),
        ),
    };
    let torn = chaos.serve_torn_body();
    let slow = chaos.serve_slow_client();
    // A torn body declares the full length but sends half: the server
    // must answer with a typed 400, not wait forever.
    let declared = body.len();
    let sent: &str = if torn { &body[..declared / 2] } else { &body };
    let head = format!("POST {path} HTTP/1.1\r\nHost: load\r\nContent-Length: {declared}\r\n\r\n");

    let started = Instant::now();
    let outcome = (|| -> std::io::Result<u16> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.write_all(head.as_bytes())?;
        if slow {
            // Slow client: dribble the body in small chunks with pauses,
            // exercising the server's bounded-read timeout.
            for chunk in sent.as_bytes().chunks(8) {
                stream.write_all(chunk)?;
                stream.flush()?;
                std::thread::sleep(Duration::from_millis(20));
            }
        } else {
            stream.write_all(sent.as_bytes())?;
        }
        if torn {
            stream.shutdown(std::net::Shutdown::Write)?;
        }
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        text.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))
    })();

    match outcome {
        Ok(status) if (200..300).contains(&status) => {
            tally.ok += 1;
            tally
                .latencies_us
                .push(started.elapsed().as_micros() as f64);
        }
        Ok(429) => tally.shed_429 += 1,
        Ok(504) => tally.deadline_504 += 1,
        Ok(status) if (400..500).contains(&status) => tally.client_error_4xx += 1,
        Ok(_) => tally.other += 1,
        Err(_) => tally.transport_errors += 1,
    }
}

/// Nearest-rank quantile over an ascending slice (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(serde::Serialize)]
struct ServeBench {
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

#[derive(serde::Serialize)]
struct ServeSnapshot {
    schema: &'static str,
    label: String,
    version: String,
    os: String,
    arch: String,
    smoke: bool,
    wall_s: f64,
    serve_rps: f64,
    serve_p50_us: f64,
    serve_p95_us: f64,
    serve_p99_us: f64,
    responses_ok: u64,
    responses_shed: u64,
    responses_deadline: u64,
    responses_4xx: u64,
    transport_errors: u64,
    benches: Vec<ServeBench>,
}

/// Write the run as an `xmodel-bench/1` snapshot. The quantiles also
/// appear as `serve/request_p*` bench entries (latency in ns) so the
/// generic `bench-report --compare` path gates them with no special
/// cases; the `serve_*` top-level fields are the human-facing numbers
/// `bench_gate.sh` surfaces.
#[allow(clippy::too_many_arguments)]
fn write_snapshot(
    out: &str,
    label: &str,
    wall_s: f64,
    rps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    total: &Tally,
) -> Result<(), String> {
    let iters = total.ok.max(1);
    let bench = |name: &str, us: f64| ServeBench {
        name: name.to_string(),
        // ns_per_iter must be finite and positive for compare mode.
        ns_per_iter: (us * 1000.0).max(1.0),
        iters,
    };
    let snapshot = ServeSnapshot {
        schema: xmodel_bench::BENCH_SCHEMA,
        label: label.to_string(),
        version: xmodel_obs::manifest::describe_version(),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        smoke: false,
        wall_s,
        serve_rps: rps,
        serve_p50_us: p50,
        serve_p95_us: p95,
        serve_p99_us: p99,
        responses_ok: total.ok,
        responses_shed: total.shed_429,
        responses_deadline: total.deadline_504,
        responses_4xx: total.client_error_4xx,
        transport_errors: total.transport_errors,
        benches: vec![
            bench("serve/request_p50", p50),
            bench("serve/request_p95", p95),
            bench("serve/request_p99", p99),
        ],
    };
    let json = xmodel_obs::json::try_to_string(&snapshot).map_err(|e| e.to_string())?;
    std::fs::write(out, format!("{json}\n")).map_err(|e| format!("{out}: {e}"))
}

/// One request, response body to stdout, exit 0 on 2xx.
fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<std::process::ExitCode, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in response: {text:?}"))?;
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    print!("{payload}");
    if (200..300).contains(&status) {
        Ok(std::process::ExitCode::SUCCESS)
    } else {
        eprintln!("serve-load: {method} {path} -> {status}");
        Ok(std::process::ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_assignment_is_deterministic_and_weighted() {
        let mix = parse_mix("6:1:1").unwrap();
        let kinds: Vec<RequestKind> = (0..80).map(|i| kind_for(i, mix)).collect();
        assert_eq!(kinds, (0..80).map(|i| kind_for(i, mix)).collect::<Vec<_>>());
        let good = kinds.iter().filter(|k| **k == RequestKind::Good).count();
        let bad = kinds
            .iter()
            .filter(|k| **k == RequestKind::Malformed)
            .count();
        let doomed = kinds
            .iter()
            .filter(|k| **k == RequestKind::DeadlineDoomed)
            .count();
        assert_eq!((good, bad, doomed), (60, 10, 10));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn mix_rejects_nonsense() {
        assert!(parse_mix("1:2").is_err());
        assert!(parse_mix("0:0:0").is_err());
        assert!(parse_mix("a:b:c").is_err());
    }
}
