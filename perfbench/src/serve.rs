//! The `serve` workload: fresh `xmodel serve --workers <cores>` daemons
//! on OS-assigned ports, one per measured segment of at most 8 s, driven
//! as a closed loop by `<cores>` client connections from this process.
//! Each client waits for its reply before sending the next request, as
//! capacity-planning scripts do; the daemon answers one request per
//! connection.
//!
//! The traffic mix is an assumption (there is no production traffic):
//! about 80% `/solve`, 1 in 16 of them on a never-seen supply curve and
//! the rest on 12 hot curves (fewer than the daemon's 8 shards × 4 LRU
//! slots); about 10% `/sweep` of 64 points, each of which builds a
//! table; about 10% `/whatif`, which runs dense solves; `n` jittered
//! over 8–63. It keeps HTTP handling, the sharded cache, table building
//! and both solvers under load.
//!
//! Responses are checked off the clock: 2xx, `exact` degradation, and a
//! sample of points bit for bit against the dense solver. The daemon's
//! own `/metrics` is scraped before and after the measured phase for
//! the per-layer split.

use crate::sweep::{model, point_matches, row_matches};
use crate::trace::{self, Tracer};
use crate::util::{self, Rng};
use crate::{Args, Chunk, Outcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};
use xmodel::core::solver::DEFAULT_SAMPLES;
use xmodel::obs::json::{self, JsonValue};

/// Daemons started and stopped only to time start-up, before the
/// measured ones.
const SETUP_DAEMONS: usize = 2;
/// Longest stretch one daemon is measured for. The daemon answers one
/// request per connection; at ~1500 requests/s this keeps each daemon
/// well under the ~28k ephemeral ports, past which reused ports slowed
/// the closed loop by about a third.
const SEGMENT_S: f64 = 8.0;
/// Completions per measurement window (about 0.6 s at 1600/s).
const SLICE_OPS: usize = 1000;
const SWEEP_POINTS: usize = 64;
/// One `/solve` in this many uses a never-seen supply curve.
const FRESH_ONE_IN: usize = 16;
/// Every this many requests of a client is checked bit for bit.
const CHECK_EVERY: usize = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a daemon may take to become ready or to drain.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);

type Cache = Option<(u64, f64, f64)>;

/// The 12 hot supply curves: 3 presets × {no L1, three L1 shapes}.
fn hot_curves() -> Vec<(&'static str, Cache)> {
    let mut curves = Vec::new();
    for gpu in ["fermi", "kepler", "maxwell"] {
        for cache in [
            None,
            Some((16, 3.0, 2048.0)),
            Some((48, 3.0, 2048.0)),
            Some((16, 5.0, 3072.0)),
        ] {
            curves.push((gpu, cache));
        }
    }
    curves
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Route {
    Solve,
    Sweep,
    Whatif,
}

impl Route {
    fn path(self) -> &'static str {
        match self {
            Route::Solve => "/solve",
            Route::Sweep => "/sweep",
            Route::Whatif => "/whatif",
        }
    }

    fn kind(self) -> &'static str {
        &self.path()[1..]
    }
}

/// One generated request.
#[derive(Clone, Debug)]
struct Req {
    route: Route,
    gpu: &'static str,
    cache: Cache,
    z: f64,
    /// `n` (`n_max` for `/sweep`).
    n: f64,
    fresh: bool,
}

impl Req {
    fn generate(rng: &mut Rng, hot: &[(&'static str, Cache)]) -> Req {
        let r = rng.unit();
        let route = if r < 0.8 {
            Route::Solve
        } else if r < 0.9 {
            Route::Sweep
        } else {
            Route::Whatif
        };
        let fresh = route == Route::Solve && rng.below(FRESH_ONE_IN) == 0;
        let (gpu, cache) = if fresh {
            let gpu = ["fermi", "kepler", "maxwell"][rng.below(3)];
            let kib = [16, 48][rng.below(2)];
            (
                gpu,
                Some((kib, rng.range(2.0, 6.0), rng.range(1024.0, 4096.0))),
            )
        } else {
            hot[rng.below(hot.len())]
        };
        Req {
            route,
            gpu,
            cache,
            z: rng.range(4.0, 32.0),
            n: (8 + rng.below(56)) as f64,
            fresh,
        }
    }

    fn body(&self) -> String {
        let mut body = format!("{{\"gpu\":\"{}\",\"z\":{}", self.gpu, self.z);
        match self.route {
            Route::Sweep => {
                body.push_str(&format!(",\"n_max\":{},\"points\":{SWEEP_POINTS}", self.n))
            }
            _ => body.push_str(&format!(",\"n\":{}", self.n)),
        }
        if let Some((kib, alpha, beta)) = self.cache {
            body.push_str(&format!(
                ",\"l1_kib\":{kib},\"alpha\":{alpha},\"beta\":{beta}"
            ));
        }
        body.push('}');
        body
    }
}

/// One HTTP exchange on a fresh connection: `(status, body)`.
fn http(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::with_capacity(1024);
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without header end")?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or("response without status")?;
    Ok((status, response[head_end + 4..].to_vec()))
}

/// A running daemon.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

/// Spawn a daemon and wait until `/readyz` answers 200; returns it with
/// the time that took.
fn start(xmodel: &Path) -> Result<(Daemon, f64), String> {
    let spawned = Instant::now();
    let mut child = util::xmodel_command(xmodel)
        .args(["serve", "--workers", &util::cores().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn xmodel serve: {e}"))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("daemon has no stdout".to_string());
    };
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let port = stdout.read_line(&mut line).ok().and_then(|_| {
        line.trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse::<u16>().ok())
    });
    let mut daemon = Daemon {
        child,
        stdout,
        port: port.unwrap_or(0),
    };
    if port.is_none() {
        let _ = daemon.child.kill();
        let _ = daemon.child.wait();
        return Err(format!("daemon did not print its address: {line:?}"));
    }
    loop {
        if matches!(http(daemon.port, "GET", "/readyz", ""), Ok((200, _))) {
            return Ok((daemon, spawned.elapsed().as_secs_f64()));
        }
        if spawned.elapsed() > DAEMON_TIMEOUT {
            let _ = daemon.child.kill();
            let _ = daemon.child.wait();
            return Err("daemon never became ready".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Drain the daemon with `POST /quitck` and wait for it; an unclean
/// drain (non-zero exit) or a hang is an error.
fn stop(mut daemon: Daemon) -> Result<(), String> {
    let quit = http(daemon.port, "POST", "/quitck", "");
    let deadline = Instant::now() + DAEMON_TIMEOUT;
    let status = loop {
        match daemon.child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = daemon.child.kill();
                let _ = daemon.child.wait();
                break Err("daemon did not drain in time".to_string());
            }
            Err(e) => break Err(format!("wait daemon: {e}")),
        }
    };
    let mut rest = String::new();
    let _ = daemon.stdout.read_to_string(&mut rest);
    let status = status?;
    if !matches!(quit, Ok((200, _))) {
        return Err(format!("/quitck failed: {quit:?}"));
    }
    if !status.success() {
        return Err(format!(
            "daemon drain was unclean: exit {status}: {}",
            rest.trim()
        ));
    }
    Ok(())
}

/// Prometheus text → `series → value`.
fn scrape(port: u16) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(port, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// One request as a client saw it.
struct Obs {
    req: Req,
    /// Index of the request within its client's stream.
    index: usize,
    start_ns: u64,
    end_ns: u64,
    result: Result<(u16, Vec<u8>), String>,
}

impl Obs {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// `clients` closed-loop clients for `seconds`; returns every request
/// and the measured window in seconds. `segment` picks the request
/// streams, so each segment of a run sends different requests.
fn closed_loop(
    port: u16,
    seed: u64,
    segment: u64,
    clients: usize,
    seconds: f64,
) -> (Vec<Obs>, f64) {
    let hot = hot_curves();
    let epoch = Instant::now();
    let stop_at = epoch + Duration::from_secs_f64(seconds);
    let mut all: Vec<Obs> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let hot = &hot;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, (segment << 16) + client as u64);
                    let mut log = Vec::new();
                    while Instant::now() < stop_at {
                        let req = Req::generate(&mut rng, hot);
                        let body = req.body();
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        let result = http(port, "POST", req.route.path(), &body);
                        let end_ns = epoch.elapsed().as_nanos() as u64;
                        log.push(Obs {
                            req,
                            index: log.len(),
                            start_ns,
                            end_ns,
                            result,
                        });
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|o| o.start_ns);
    let window = all.iter().map(|o| o.end_ns).max().unwrap_or(0) as f64 / 1e9;
    (all, window)
}

/// Check one response off the clock; `accuracy` collects
/// `1 − |cs − cs_dense| / cs_dense` of the checked points.
fn check(obs: &Obs, accuracy: &mut Vec<f64>) -> Result<(), String> {
    let (status, body) = obs.result.as_ref().map_err(Clone::clone)?;
    if !(200..300).contains(status) {
        return Err(format!("{} answered {status}", obs.req.route.path()));
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let req = &obs.req;
    // The daemon writes `schema`, `kind` and `degradation` first. Only
    // sampled bodies are parsed whole: `obs::json::parse` takes time
    // quadratic in the length of a document with many strings.
    let head = text.get(..160).unwrap_or(text);
    if !head.contains(&format!("\"kind\":\"{}\"", req.route.kind())) {
        return Err(format!("{} answered {head}", req.route.path()));
    }
    if req.route != Route::Whatif && !head.contains("\"degradation\":\"exact\"") {
        return Err(format!("{} degraded: {head}", req.route.path()));
    }
    if !obs.index.is_multiple_of(CHECK_EVERY) {
        return Ok(());
    }
    let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let (served, n, roots, point) = match req.route {
        Route::Whatif => return Ok(()),
        Route::Solve => {
            let eq = model(req.gpu, req.z, req.n, req.cache)?.solve_with(DEFAULT_SAMPLES);
            let served = doc.get("point").ok_or("solve without point")?;
            let roots = doc.get("roots").and_then(JsonValue::as_f64);
            if roots != Some(eq.points().len() as f64) {
                return Err(format!(
                    "/solve roots {roots:?} differ from the dense solver"
                ));
            }
            (
                served.clone(),
                req.n,
                eq.points().len(),
                eq.operating_point(),
            )
        }
        Route::Sweep => {
            let rows = match doc.get("rows") {
                Some(JsonValue::Array(rows)) if rows.len() == SWEEP_POINTS => rows,
                _ => return Err("/sweep without its rows".to_string()),
            };
            let i = obs.index / CHECK_EVERY % SWEEP_POINTS;
            let n = 1.0 + (req.n - 1.0) * i as f64 / (SWEEP_POINTS - 1) as f64;
            let eq = model(req.gpu, req.z, n, req.cache)?.solve_with(DEFAULT_SAMPLES);
            (rows[i].clone(), n, eq.points().len(), eq.operating_point())
        }
    };
    let same = match req.route {
        Route::Sweep => row_matches(&served, n, roots, point),
        _ => point_matches(&served, point),
    };
    if !same {
        return Err(format!(
            "{} point differs from the dense solver: {req:?}",
            req.route.path()
        ));
    }
    if let Some(p) = point.filter(|p| p.cs_throughput > 0.0) {
        let cs = served
            .get("cs")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        accuracy.push(1.0 - (cs - p.cs_throughput).abs() / p.cs_throughput);
    }
    Ok(())
}

/// What one daemon's measured phase observed.
#[derive(Default)]
struct Phase {
    out: Outcome,
    setup_s: Vec<f64>,
    obs: Vec<Obs>,
    window_s: f64,
    /// `VmHWM` of each daemon before its drain.
    rss_mb: Vec<f64>,
    accuracy: Vec<f64>,
    /// `/metrics` after minus before the measured phase.
    delta: BTreeMap<String, f64>,
}

impl Phase {
    /// 2xx latencies in runs of `SLICE_OPS` consecutive completions, each
    /// with the time from the previous run's last completion to its own.
    fn chunks(&self) -> Vec<Chunk> {
        let mut ok: Vec<&Obs> = self
            .obs
            .iter()
            .filter(|o| matches!(o.result, Ok((200..=299, _))))
            .collect();
        ok.sort_by_key(|o| o.end_ns);
        let mut last_end = 0;
        ok.chunks(SLICE_OPS)
            .map(|slice| {
                let end = slice.last().map_or(last_end, |o| o.end_ns);
                let wall_s = end.saturating_sub(last_end) as f64 / 1e9;
                last_end = end;
                Chunk {
                    op_ms: slice.iter().map(|o| o.ms()).collect(),
                    wall_s,
                }
            })
            .collect()
    }

    fn route_ms(&self, route: Route) -> Vec<f64> {
        self.obs
            .iter()
            .filter(|o| o.req.route == route)
            .map(Obs::ms)
            .collect()
    }

    fn d(&self, series: &str) -> f64 {
        self.delta.get(series).copied().unwrap_or(0.0)
    }
}

/// Measure for `--seconds` in segments of at most `SEGMENT_S`, each on a
/// fresh daemon: `[untraced, traced]`. Without `--trace`, `SETUP_DAEMONS`
/// start-and-stop cycles that only time start-up come first; with it,
/// the segments alternate between the two phases, so drift in host
/// speed falls on both alike.
fn phases(args: &Args) -> Result<[Phase; 2], String> {
    let mut phases = [Phase::default(), Phase::default()];
    if !args.trace {
        for _ in 0..SETUP_DAEMONS {
            let (daemon, setup) = start(&args.xmodel)?;
            phases[0].setup_s.push(setup);
            if let Err(e) = stop(daemon) {
                phases[0].out.fail(e);
            }
        }
    }
    let mut segments = (args.seconds / SEGMENT_S).ceil().max(1.0) as u64;
    if args.trace {
        segments = segments.max(2).next_multiple_of(2);
    }
    for segment in 0..segments {
        let ph = &mut phases[usize::from(args.trace && segment % 2 == 1)];
        let (daemon, setup) = start(&args.xmodel)?;
        ph.setup_s.push(setup);
        let measured = (|| {
            let before = scrape(daemon.port)?;
            let (obs, window) = closed_loop(
                daemon.port,
                args.seed,
                segment,
                util::cores(),
                args.seconds / segments as f64,
            );
            let after = scrape(daemon.port)?;
            Ok::<_, String>((before, obs, window, after))
        })();
        ph.rss_mb
            .push(util::vm_hwm_mb(&daemon.child.id().to_string()).unwrap_or(0.0));
        let stopped = stop(daemon);
        let (before, obs, window, after) = measured?;
        if let Err(e) = stopped {
            ph.out.fail(e);
        }
        for (series, v) in &after {
            *ph.delta.entry(series.clone()).or_default() +=
                v - before.get(series).copied().unwrap_or(0.0);
        }
        ph.out.attempted += obs.len() as u64;
        for o in &obs {
            if let Err(e) = check(o, &mut ph.accuracy) {
                ph.out.fail(e);
            }
        }
        let offset_ns = (ph.window_s * 1e9) as u64;
        ph.obs.extend(obs.into_iter().map(|mut o| {
            o.start_ns += offset_ns;
            o.end_ns += offset_ns;
            o
        }));
        ph.window_s += window;
    }
    Ok(phases)
}

/// `|λ·W − N| / N`: λ responses per second, W mean latency, N clients.
fn littles_law_err(ph: &Phase, clients: usize) -> f64 {
    let lat: Vec<f64> = ph.obs.iter().map(Obs::ms).collect();
    let lambda = util::ratio(lat.len() as f64, ph.window_s);
    (lambda * util::mean(&lat) / 1e3 - clients as f64).abs() / clients as f64
}

fn span_sum_ms(ph: &Phase, span: &str) -> f64 {
    ph.d(&format!("xmodel_span_duration_us_sum{{span=\"{span}\"}}")) / 1e3
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let [a, b] = phases(args)?;
    out.absorb_counts(&a.out);
    out.absorb_counts(&b.out);
    crate::latency_metrics(&mut out, &a.chunks());
    if !args.trace {
        out.set("setup_s", util::median(&a.setup_s));
        out.set("peak_rss_mb", util::median(&a.rss_mb));
        out.set("mean_accuracy", 100.0 * util::mean(&a.accuracy));
        return Ok(out);
    }
    let requests = b.obs.len().max(1) as f64;
    let request_ms = util::ratio(
        span_sum_ms(&b, "serve.request"),
        b.d("xmodel_span_duration_us_count{span=\"serve.request\"}"),
    );
    let client_ms = util::mean(&b.obs.iter().map(Obs::ms).collect::<Vec<_>>());
    out.set("serve.request_ms", request_ms);
    out.set(
        "solver.dense_ms",
        span_sum_ms(&b, "solver.solve") / requests,
    );
    out.set(
        "solver.fast_ms",
        span_sum_ms(&b, "solver.solve_fast") / requests,
    );
    out.set(
        "serve.table_builds_per_req",
        b.d("xmodel_fastpath_table_builds") / requests,
    );
    let (hits, misses) = (
        b.d("xmodel_serve_cache_hits"),
        b.d("xmodel_serve_cache_misses"),
    );
    out.set("serve.cache_hit_rate", util::ratio(hits, hits + misses));
    out.set("serve.forced_degrade", b.d("xmodel_serve_forced_degrade"));
    let solves: Vec<&Obs> = b
        .obs
        .iter()
        .filter(|o| o.req.route == Route::Solve)
        .collect();
    let fresh = solves.iter().filter(|o| o.req.fresh).count();
    out.set(
        "serve.fresh_share",
        util::ratio(fresh as f64, solves.len() as f64),
    );
    out.set("serve.outside_ms", client_ms - request_ms);
    out.set(
        "serve.solve_p50_ms",
        util::median(&b.route_ms(Route::Solve)),
    );
    out.set(
        "serve.sweep_p50_ms",
        util::median(&b.route_ms(Route::Sweep)),
    );
    out.set(
        "serve.whatif_p50_ms",
        util::median(&b.route_ms(Route::Whatif)),
    );
    out.set("serve.littles_law_err", littles_law_err(&b, util::cores()));
    out.set("unattributed_ms", client_ms - request_ms);
    out.set(
        "unattributed_share",
        util::ratio(client_ms - request_ms, client_ms),
    );
    out.set(
        "trace_overhead",
        crate::trace_overhead(&a.chunks(), &b.chunks()),
    );
    eprintln!(
        "perfbench: serve: {} requests in {:.2} s ({:.0}/s); client mean {:.3} ms = daemon serve.request {:.3} ms + outside {:.3} ms; cache hit rate {:.3}; table builds/req {:.3}; Little's law error {:.3}",
        b.obs.len(),
        b.window_s,
        requests / b.window_s,
        client_ms,
        request_ms,
        client_ms - request_ms,
        out.metrics["serve.cache_hit_rate"],
        out.metrics["serve.table_builds_per_req"],
        out.metrics["serve.littles_law_err"],
    );
    let mut tr = Tracer::new(true);
    for (i, o) in b.obs.iter().enumerate() {
        tr.op = i as u64;
        tr.record(None, "op", o.start_ns, o.end_ns);
    }
    trace::write_jsonl(&crate::spans_path("serve"), &tr.spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_its_stated_shares() {
        let hot = hot_curves();
        let mut rng = Rng::new(11, 0);
        let reqs: Vec<Req> = (0..20_000).map(|_| Req::generate(&mut rng, &hot)).collect();
        let share = |f: &dyn Fn(&Req) -> bool| {
            reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
        };
        assert!((share(&|r| r.route == Route::Solve) - 0.8).abs() < 0.02);
        assert!((share(&|r| r.route == Route::Sweep) - 0.1).abs() < 0.02);
        let fresh = share(&|r| r.fresh) / share(&|r| r.route == Route::Solve);
        assert!((fresh - 1.0 / 16.0).abs() < 0.01, "{fresh}");
        assert!(reqs.iter().all(|r| (8.0..=63.0).contains(&r.n)));
        for r in &reqs[..64] {
            assert!(json::parse(&r.body()).is_ok());
            assert!(model(r.gpu, r.z, r.n, r.cache).is_ok());
        }
    }
}
