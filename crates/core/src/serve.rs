//! `xmodel serve`: an overload-safe solve/sweep/what-if daemon.
//!
//! The ROADMAP's north star is the model as a capacity-planning API
//! under heavy traffic; this module is that API's robustness core. It
//! is a std-only HTTP server (listener plumbing shared with the
//! Prometheus exporter via [`xmodel_obs::http`]) engineered for
//! overload from day one — queueing theory says latency explodes as
//! utilization approaches 1, so every stage bounds its work:
//!
//! 1. **Admission control.** A fixed worker pool drains a bounded
//!    request queue. Past capacity the accept thread sheds with
//!    `429 Too Many Requests` + `Retry-After` instead of queueing
//!    without bound (the M/M/1 collapse).
//! 2. **Deadline propagation.** Every request carries a budget
//!    (`X-Deadline-Ms` header or `deadline_ms` JSON field, default
//!    [`ServeConfig::default_deadline_ms`]) measured from *accept*, so
//!    queueing time counts. Workers check it at rung boundaries and
//!    convert exhaustion into a typed `504` ([`ServeError`]), the
//!    watchdog idiom — never a hung connection.
//! 3. **Degradation-ladder load-shedding.** Rising queue depth forces
//!    [`crate::degrade::DegradeForce`] down the ladder (exact →
//!    grid-scan → baseline estimate); every response carries its
//!    [`Degradation`] provenance in the body and an `X-Degradation`
//!    header, so clients know what they got.
//! 4. **Sharded [`SolveCache`].** Requests for the same supply curve
//!    ([`CurveKey`]) reuse one tabulation; independent curves land on
//!    independent shards, so the lock a solve holds is per-curve, not
//!    global.
//! 5. **Graceful drain.** `POST /quitck` (signals are out of std
//!    reach) stops accepting, drains queued + in-flight requests under
//!    [`ServeConfig::drain_deadline_ms`], and flushes trace/metric
//!    sinks.
//!
//! `GET /healthz` answers liveness, `GET /readyz` readiness (503 while
//! draining or saturated), and `GET /metrics` the same Prometheus text
//! as the standalone exporter, including the `serve.*` admission /
//! queue-depth / shed / latency series from `obs::names`.

use crate::cache::CacheParams;
use crate::degrade::{self, Degradation, DegradeForce, ResolvedOperatingPoint};
use crate::fastpath::{solve_fast, CurveKey, CurveTable, SolveCache};
use crate::model::XModel;
use crate::params::{MachineParams, WorkloadParams};
use crate::presets::{GpuSpec, Precision};
use crate::solver::{Intersection, DEFAULT_SAMPLES};
use crate::whatif::{Optimization, WhatIf};
use serde::ser::{SerializeStruct, Serializer};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xmodel_obs::http::{self, HttpLimits, Request, Response};
use xmodel_obs::json::JsonValue;
use xmodel_obs::names::{metric, span};

/// Schema tag carried by every JSON body the daemon emits.
pub const SERVE_SCHEMA: &str = "xmodel-serve/1";

/// JSON content type for API responses.
const JSON_TEXT: &str = "application/json";

/// Plain-text content type for health endpoints.
const PLAIN_TEXT: &str = "text/plain; charset=utf-8";

/// Prometheus exposition content type (matches `obs::export`).
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// How often parked workers re-check the drain flag.
const WORKER_PARK: Duration = Duration::from_millis(50);

/// Accept-loop poll interval (the listener is non-blocking so drain can
/// interrupt it).
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Deadline checks during a sweep happen every this many rows.
const SWEEP_CHECK_EVERY: usize = 32;

/// Hard cap on sweep rows per request (the request-level deadline
/// bounds time; this bounds memory).
const MAX_SWEEP_POINTS: usize = 4096;

/// Configuration for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue capacity; admission sheds past this depth.
    pub queue_capacity: usize,
    /// Default per-request budget in milliseconds, measured from
    /// accept; overridable per request.
    pub default_deadline_ms: u64,
    /// Budget for draining queued + in-flight work at shutdown.
    pub drain_deadline_ms: u64,
    /// Queue-depth fraction (of capacity) past which the exact rung is
    /// skipped (grid-scan responses).
    pub grid_watermark: f64,
    /// Queue-depth fraction past which solves drop straight to the
    /// baseline-estimate rung.
    pub baseline_watermark: f64,
    /// Fault injection: sleep this long before handling each request
    /// (the `serve-stall` fault token), simulating a stalled worker.
    pub stall_ms: u64,
    /// Number of [`SolveCache`] shards.
    pub cache_shards: usize,
    /// Per-connection socket read/write timeout in milliseconds.
    pub io_timeout_ms: u64,
    /// Solver scan resolution for requests that don't specify one.
    pub samples: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 2_000,
            drain_deadline_ms: 5_000,
            grid_watermark: 0.5,
            baseline_watermark: 0.8,
            stall_ms: 0,
            cache_shards: 8,
            io_timeout_ms: 2_000,
            samples: DEFAULT_SAMPLES,
        }
    }
}

/// Typed request-handling failure; each variant maps to an HTTP status
/// so overload and bad input surface as responses, never hangs.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request's budget expired mid-solve (504).
    DeadlineExceeded {
        /// Time consumed when the check fired, ms.
        elapsed_ms: u64,
        /// The budget that was exceeded, ms.
        budget_ms: u64,
    },
    /// The request body is not a valid request (400).
    BadRequest(String),
    /// Model parameters were rejected by the domain layer (400).
    Model(String),
}

impl ServeError {
    /// HTTP status for this error.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::DeadlineExceeded { .. } => 504,
            ServeError::BadRequest(_) | ServeError::Model(_) => 400,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms spent of {budget_ms} ms budget"
            ),
            ServeError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            ServeError::Model(reason) => write!(f, "model error: {reason}"),
        }
    }
}

/// A request budget measured from the moment the connection was
/// accepted, so time spent queued counts against it (the watchdog
/// idiom: workers poll [`Deadline::check`] at rung boundaries).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A budget of `budget_ms` starting at `start`.
    pub fn new(start: Instant, budget_ms: u64) -> Self {
        Self {
            start,
            budget: Duration::from_millis(budget_ms),
        }
    }

    /// Typed-error check: `Err(DeadlineExceeded)` once the budget is
    /// spent.
    pub fn check(&self) -> Result<(), ServeError> {
        let elapsed = self.start.elapsed();
        if elapsed > self.budget {
            Err(ServeError::DeadlineExceeded {
                elapsed_ms: elapsed.as_millis() as u64,
                budget_ms: self.budget.as_millis() as u64,
            })
        } else {
            Ok(())
        }
    }
}

/// Supply curves kept warm per shard: enough for a handful of machine
/// configurations to alternate without thrashing, small enough that an
/// adversarial key stream cannot pin unbounded tabulations in memory.
const SHARD_LRU_CAPACITY: usize = 4;

/// [`SolveCache`]s sharded by [`CurveKey`], so concurrent requests for
/// the same supply curve reuse one tabulation while independent curves
/// never contend on the same lock.
///
/// Each shard holds a small most-recently-used list of
/// `(CurveKey, SolveCache)` entries ([`SHARD_LRU_CAPACITY`]), so traffic
/// that alternates between a few machine configurations — the A/B
/// capacity-planning pattern — no longer rebuilds the table on every
/// curve switch, which the single-slot cache of the first serve cut did.
/// The key is exact (`f64` bit patterns), so a cache entry can never be
/// served for a different curve and results stay bit-identical to the
/// dense reference solver.
pub struct ShardedSolveCache {
    shards: Vec<Mutex<Vec<(CurveKey, SolveCache)>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

impl ShardedSolveCache {
    /// A cache with `shards` independent shards (minimum 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
        }
    }

    /// FNV-1a over the bit patterns of the supply-curve determinants.
    /// Equal keys always hash equal (`to_bits` is exact), so one curve
    /// maps to exactly one shard.
    fn shard_index(&self, key: &CurveKey) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: f64| {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(key.r);
        mix(key.l);
        if let Some(cache) = &key.cache {
            mix(cache.s_cache);
            mix(cache.l_cache);
            mix(cache.alpha);
            mix(cache.beta);
        }
        (h % self.shards.len().max(1) as u64) as usize
    }

    /// Solve through the shard owning `model`'s supply curve. The LRU
    /// entry for the curve is moved to the front (created cold if
    /// absent, evicting the least-recent entry past capacity); domain
    /// growth within an entry is handled by the underlying
    /// [`SolveCache`]. The result is bit-identical to the dense
    /// reference solver by the fastpath guarantee.
    pub fn solve_with(&self, model: &XModel, samples: usize) -> crate::solver::Equilibria {
        let key = CurveKey::of(model);
        let index = self.shard_index(&key);
        let mut shard = match self.shards.get(index) {
            // xlint: allow(lock-in-result-path, per-key shard serializing table reuse; the solve output is a pure function of (model, samples), independent of lock order)
            Some(shard) => shard.lock().unwrap_or_else(|e| e.into_inner()),
            // Unreachable (shards is non-empty and index is reduced
            // modulo its length); solve uncached rather than panic.
            None => return model.solve_with(samples),
        };
        match shard.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_HITS, 1);
                // Move-to-front keeps the list in recency order so
                // eviction below can simply pop the tail.
                let entry = shard.remove(pos);
                shard.insert(0, entry);
            }
            None => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_MISSES, 1);
                shard.insert(0, (key, SolveCache::new()));
                while shard.len() > SHARD_LRU_CAPACITY {
                    shard.pop();
                    self.cache_evictions.fetch_add(1, Ordering::Relaxed);
                    xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_EVICTIONS, 1);
                }
            }
        }
        match shard.first_mut() {
            Some((_, cache)) => cache.solve_with(model, samples),
            // Unreachable (an entry was just inserted or moved to the
            // front); solve uncached rather than panic.
            None => model.solve_with(samples),
        }
    }

    /// Total table (re)builds across all resident cache entries.
    pub fn rebuilds(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|(_, cache)| cache.rebuilds())
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Total table reuses across all resident cache entries.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|(_, cache)| cache.hits())
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Solves answered by an entry already resident in its shard's LRU.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Solves that inserted a fresh LRU entry (cold fill).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Entries evicted because a shard exceeded [`SHARD_LRU_CAPACITY`].
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }
}

/// One accepted connection waiting in the queue.
struct Conn {
    stream: TcpStream,
    accepted: Instant,
}

/// Monotonic counters mirrored into `obs::metrics` (the atomics are the
/// source of truth for [`ServeReport`]; the metrics registry may be
/// disabled).
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    malformed: AtomicU64,
    forced_degrade: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
    draining: AtomicBool,
    accept_done: AtomicBool,
    counters: Counters,
    cache: ShardedSolveCache,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn limits(&self) -> HttpLimits {
        HttpLimits {
            io_timeout: Duration::from_millis(self.cfg.io_timeout_ms.max(1)),
            ..HttpLimits::default()
        }
    }
}

/// Final tally returned by [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests admitted and answered (any status).
    pub served: u64,
    /// Connections shed at admission (429/503).
    pub shed: u64,
    /// Requests answered `504` after their budget expired.
    pub deadline_exceeded: u64,
    /// Connections rejected while reading (400/408/413).
    pub malformed: u64,
    /// Requests forced below the exact rung by queue pressure.
    pub forced_degrade: u64,
    /// Whether every worker exited within the drain deadline.
    pub clean_drain: bool,
}

/// A running daemon: an accept thread feeding a bounded queue drained
/// by a fixed worker pool. Construct with [`Server::start`], stop with
/// `POST /quitck` (or [`Server::drain`]) followed by [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and spawn the accept thread + worker pool.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shards = cfg.cache_shards;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            counters: Counters::default(),
            cache: ShardedSolveCache::new(shards),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xmodel-serve-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("xmodel-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers: pool,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic drain trigger, equivalent to `POST /quitck`.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// True once a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until a drain is requested, then join the accept thread,
    /// give workers [`ServeConfig::drain_deadline_ms`] to finish queued
    /// and in-flight work, flush observability sinks and report.
    /// Workers still running past the deadline are abandoned (detached)
    /// and the report says `clean_drain: false`.
    pub fn wait(mut self) -> ServeReport {
        while !self.shared.draining() {
            std::thread::sleep(WORKER_PARK);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let drain_deadline =
            Instant::now() + Duration::from_millis(self.shared.cfg.drain_deadline_ms);
        let mut clean = true;
        while !self.workers.is_empty() {
            self.workers.retain(|w| !w.is_finished());
            if self.workers.is_empty() {
                break;
            }
            if Instant::now() > drain_deadline {
                clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        xmodel_obs::flush();
        let c = &self.shared.counters;
        ServeReport {
            served: c.served.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            forced_degrade: c.forced_degrade.load(Ordering::Relaxed),
            clean_drain: clean,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => admit(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    shared.accept_done.store(true, Ordering::Release);
    shared.ready.notify_all();
}

/// Admission control: enqueue within capacity, shed past it. Shedding
/// answers on the accept thread (a bounded write; the response is tiny)
/// so workers never see work that was never admitted.
fn admit(shared: &Shared, stream: TcpStream) {
    let accepted = Instant::now();
    if shared.draining() {
        shed(shared, stream, 503, "draining: not accepting new requests");
        return;
    }
    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if queue.len() >= shared.cfg.queue_capacity {
        drop(queue);
        shed(shared, stream, 429, "queue at capacity");
        return;
    }
    queue.push_back(Conn { stream, accepted });
    let depth = queue.len();
    drop(queue);
    xmodel_obs::metrics::gauge_set(metric::SERVE_QUEUE_DEPTH, depth as f64);
    shared.ready.notify_one();
}

fn shed(shared: &Shared, mut stream: TcpStream, status: u16, reason: &str) {
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    xmodel_obs::metrics::counter_add(metric::SERVE_SHED, 1);
    let limits = shared.limits();
    let _ = stream.set_write_timeout(Some(limits.io_timeout));
    let _ = stream.set_read_timeout(Some(limits.io_timeout));
    let response = error_response(status, reason).header("Retry-After", "1");
    let _ = http::write_response(&mut stream, &response);
    // Drain whatever request bytes the client already sent before
    // closing. Dropping a socket with unread data triggers an RST that
    // can destroy the in-flight 429 — the one byte of backpressure the
    // client most needs to see. Bounded by the head limit + io timeout.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > limits.max_head_bytes + limits.max_body_bytes {
            break;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(conn) = queue.pop_front() {
                    xmodel_obs::metrics::gauge_set(metric::SERVE_QUEUE_DEPTH, queue.len() as f64);
                    break Some(conn);
                }
                if shared.draining() && shared.accept_done.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(queue, WORKER_PARK)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        let Some(conn) = conn else { return };
        handle_conn(shared, conn);
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn) {
    if shared.cfg.stall_ms > 0 {
        // Fault injection (`serve-stall=MS`): a worker that lost its CPU
        // or is blocked on a slow dependency. Admission control and
        // deadlines must absorb this without hanging clients.
        std::thread::sleep(Duration::from_millis(shared.cfg.stall_ms));
    }
    let limits = shared.limits();
    let request = match http::read_request(&mut conn.stream, &limits) {
        Ok(request) => request,
        Err(e) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            xmodel_obs::metrics::counter_add(metric::SERVE_MALFORMED, 1);
            let (status, _) = e.status();
            let _ = http::write_response(&mut conn.stream, &error_response(status, &e.to_string()));
            return;
        }
    };

    let depth = shared.queue_depth();
    let _span = xmodel_obs::span!(span::SERVE_REQUEST);
    let response = route(shared, &request, conn.accepted, depth);

    if response.status == 504 {
        shared
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        xmodel_obs::metrics::counter_add(metric::SERVE_DEADLINE_EXCEEDED, 1);
    }
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    xmodel_obs::metrics::counter_add(metric::SERVE_REQUESTS, 1);
    xmodel_obs::metrics::histogram_observe(
        metric::SERVE_LATENCY_US,
        xmodel_obs::metrics::latency_edges_us(),
        conn.accepted.elapsed().as_micros() as f64,
    );
    let _ = http::write_response(&mut conn.stream, &response);
}

/// Map queue pressure to a ladder forcing: past the grid watermark the
/// exact rung is skipped, past the baseline watermark solves drop
/// straight to the roofline estimate. This is the load-shedding rung
/// between "answer exactly" and "shed with 429".
fn force_for_depth(cfg: &ServeConfig, depth: usize) -> DegradeForce {
    let capacity = cfg.queue_capacity.max(1) as f64;
    let fill = depth as f64 / capacity;
    if fill >= cfg.baseline_watermark {
        DegradeForce::SkipGrid
    } else if fill >= cfg.grid_watermark {
        DegradeForce::SkipExact
    } else {
        DegradeForce::None
    }
}

/// Dispatch one parsed request to its handler and assemble the response
/// bytes. Everything reachable from here decides what clients see, so
/// the whole call tree is under the determinism lints: response bytes
/// must be a pure function of (request, queue depth, configuration).
// xlint: determinism-root
fn route(shared: &Shared, request: &Request, accepted: Instant, depth: usize) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::ok(PLAIN_TEXT, "ok\n".to_string()),
        ("GET", "/readyz") => {
            if shared.draining() {
                Response::with_status(503, PLAIN_TEXT, "draining\n".to_string())
            } else if depth >= shared.cfg.queue_capacity {
                Response::with_status(503, PLAIN_TEXT, "saturated\n".to_string())
            } else {
                Response::ok(PLAIN_TEXT, "ready\n".to_string())
            }
        }
        ("GET", "/metrics") => {
            Response::ok(PROMETHEUS_TEXT, xmodel_obs::export::render_prometheus())
        }
        ("POST", "/quitck") => {
            shared.begin_drain();
            json_response(
                200,
                &DrainBody {
                    schema: SERVE_SCHEMA,
                    kind: "drain",
                    status: "draining",
                },
            )
        }
        ("POST", "/solve") | ("POST", "/sweep") | ("POST", "/whatif") => {
            let force = force_for_depth(&shared.cfg, depth);
            if force != DegradeForce::None {
                shared
                    .counters
                    .forced_degrade
                    .fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_FORCED_DEGRADE, 1);
            }
            let result = match request.path.as_str() {
                "/solve" => handle_solve(shared, request, accepted, force),
                "/sweep" => handle_sweep(shared, request, accepted, force),
                _ => handle_whatif(shared, request, accepted),
            };
            match result {
                Ok(response) => response,
                Err(e) => error_response(e.status(), &e.to_string()),
            }
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/quitck" | "/solve" | "/sweep" | "/whatif") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "not found"),
    }
}

/// The per-request knobs shared by every POST route, plus the parsed
/// body for the route-specific fields.
struct ParsedRequest {
    json: JsonValue,
    model: XModel,
    samples: usize,
    deadline: Deadline,
}

/// Parse the request body (and `X-Deadline-Ms` header) into a model,
/// scan resolution and deadline. The body grammar mirrors the CLI's
/// model flags: `{"gpu":"fermi"}` or `{"m":..,"r":..,"l":..}`, plus
/// `z` (required), `e` (default 1), `n` (required), optional
/// `l1_kib`/`l1_latency`/`alpha`/`beta`, `samples` and `deadline_ms`.
fn parse_request(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
) -> Result<ParsedRequest, ServeError> {
    let json = xmodel_obs::json::parse(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("body is not JSON: {e}")))?;

    let field = |key: &str| json.get(key).and_then(|v| v.as_f64());

    let machine = if let Some(gpu) = json.get("gpu").and_then(|v| v.as_str()) {
        let spec = match gpu {
            "fermi" => GpuSpec::fermi_gtx570(),
            "kepler" => GpuSpec::kepler_k40(),
            "maxwell" => GpuSpec::maxwell_gtx750ti(),
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown gpu `{other}` (fermi|kepler|maxwell)"
                )))
            }
        };
        let precision = match json.get("dp").map(|v| matches!(v, JsonValue::Bool(true))) {
            Some(true) => Precision::Double,
            _ => Precision::Single,
        };
        spec.machine_params(precision)
    } else {
        let m = field("m").ok_or_else(|| ServeError::BadRequest("`m` or `gpu` required".into()))?;
        let r = field("r").ok_or_else(|| ServeError::BadRequest("`r` required".into()))?;
        let l = field("l").ok_or_else(|| ServeError::BadRequest("`l` required".into()))?;
        MachineParams::try_new(m, r, l).map_err(|e| ServeError::Model(e.to_string()))?
    };

    let z = field("z").ok_or_else(|| ServeError::BadRequest("`z` required".into()))?;
    let e = field("e").unwrap_or(1.0);
    // Sweeps grid over [1, n_max], so `n_max` alone is a complete
    // demand-side description there; for /solve and /whatif `n` is the
    // operating point and stays mandatory.
    let n = field("n")
        .or_else(|| field("n_max"))
        .ok_or_else(|| ServeError::BadRequest("`n` required".into()))?;
    let workload =
        WorkloadParams::try_new(z, e, n).map_err(|e| ServeError::Model(e.to_string()))?;

    let model = match field("l1_kib") {
        Some(kib) if kib > 0.0 => {
            let alpha = field("alpha").unwrap_or(3.0);
            let beta = field("beta").unwrap_or(2048.0);
            let l1_latency = field("l1_latency").unwrap_or(30.0);
            XModel::with_cache(
                machine,
                workload,
                CacheParams::try_new(kib * 1024.0, l1_latency, alpha, beta)
                    .map_err(|e| ServeError::Model(e.to_string()))?,
            )
        }
        _ => XModel::new(machine, workload),
    };

    let samples = json
        .get("samples")
        .and_then(|v| v.as_u64())
        .map(|s| (s as usize).clamp(64, 65_536))
        .unwrap_or(shared.cfg.samples);

    let budget_ms = request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .or_else(|| json.get("deadline_ms").and_then(|v| v.as_u64()))
        .unwrap_or(shared.cfg.default_deadline_ms)
        .max(1);

    Ok(ParsedRequest {
        json,
        model,
        samples,
        deadline: Deadline::new(accepted, budget_ms),
    })
}

/// Resolve one operating point through the ladder. At the exact rung
/// the sharded cache answers (bit-identical to the dense reference);
/// forced or failed rungs fall through to [`degrade::resolve`], which
/// carries its own provenance counters. Returns the resolution plus the
/// exact root count (0 when the exact rung did not run or found none).
fn resolve_point(
    shared: &Shared,
    model: &XModel,
    samples: usize,
    deadline: &Deadline,
    force: DegradeForce,
) -> Result<(ResolvedOperatingPoint, usize), ServeError> {
    deadline.check()?;
    if force == DegradeForce::None {
        let eq = shared.cache.solve_with(model, samples);
        let roots = eq.points().len();
        if let Some(point) = eq.operating_point() {
            if point.k.is_finite() && point.ms_throughput.is_finite() {
                let residual = (model.fk(point.k) - model.g_hat(point.x)).abs();
                return Ok((
                    ResolvedOperatingPoint {
                        point,
                        degradation: Degradation::Exact,
                        residual,
                    },
                    roots,
                ));
            }
        }
        deadline.check()?;
        // The fast path is bit-identical to the dense exact rung, so a
        // miss here is a miss there too: enter the ladder below exact.
        let resolved = degrade::resolve(model, samples, DegradeForce::SkipExact)
            .map_err(|e| ServeError::Model(e.to_string()))?;
        return Ok((resolved, roots));
    }
    let resolved =
        degrade::resolve(model, samples, force).map_err(|e| ServeError::Model(e.to_string()))?;
    Ok((resolved, 0))
}

fn handle_solve(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
    force: DegradeForce,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let (resolved, roots) = resolve_point(
        shared,
        &parsed.model,
        parsed.samples,
        &parsed.deadline,
        force,
    )?;
    parsed.deadline.check()?;
    let body = SolveBody {
        schema: SERVE_SCHEMA,
        kind: "solve",
        degradation: resolved.degradation.as_str(),
        residual: resolved.residual,
        roots,
        point: resolved.point.into(),
    };
    Ok(json_response(200, &body).header("X-Degradation", resolved.degradation.as_str()))
}

fn handle_sweep(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
    force: DegradeForce,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let n_max = parsed
        .json
        .get("n_max")
        .and_then(|v| v.as_f64())
        .unwrap_or(parsed.model.workload.n);
    if !(n_max.is_finite() && n_max >= 1.0) {
        return Err(ServeError::BadRequest("`n_max` must be >= 1".into()));
    }
    let points = parsed
        .json
        .get("points")
        .and_then(|v| v.as_u64())
        .map(|p| p as usize)
        .unwrap_or(64)
        .clamp(2, MAX_SWEEP_POINTS);

    parsed.deadline.check()?;
    // One tabulation covers every row at the exact rung: the supply
    // curve does not depend on `n`, only the scan domain does.
    let table = (force == DegradeForce::None).then(|| CurveTable::build(&parsed.model, n_max));

    let mut rows = Vec::with_capacity(points);
    let mut worst = Degradation::Exact;
    for i in 0..points {
        if i % SWEEP_CHECK_EVERY == 0 {
            parsed.deadline.check()?;
        }
        let n = 1.0 + (n_max - 1.0) * i as f64 / (points - 1).max(1) as f64;
        let model_n = XModel {
            workload: parsed.model.workload.with_n(n),
            ..parsed.model
        };
        let (roots, point, rung) = match &table {
            Some(table) => {
                let eq = solve_fast(&model_n, table, parsed.samples);
                (eq.points().len(), eq.operating_point(), Degradation::Exact)
            }
            None => {
                let resolved = degrade::resolve(&model_n, parsed.samples, force)
                    .map_err(|e| ServeError::Model(e.to_string()))?;
                (0, Some(resolved.point), resolved.degradation)
            }
        };
        if rung.is_degraded() && !worst.is_degraded() {
            worst = rung;
        }
        rows.push(SweepRow {
            n,
            roots,
            point: point.map(PointBody::from),
        });
    }
    parsed.deadline.check()?;
    let body = SweepBody {
        schema: SERVE_SCHEMA,
        kind: "sweep",
        degradation: worst.as_str(),
        n_max,
        points,
        rows,
    };
    Ok(json_response(200, &body).header("X-Degradation", worst.as_str()))
}

fn handle_whatif(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let model = parsed.model;
    let what_if = WhatIf::new(model);
    parsed.deadline.check()?;

    let mut candidates: Vec<(&'static str, Optimization)> = Vec::new();
    if let Some(n) = what_if.optimal_throttle() {
        candidates.push(("throttle", Optimization::ThreadThrottle { n }));
    }
    candidates.push((
        "bypass",
        Optimization::CacheBypass {
            r: model.machine.r * 3.0,
        },
    ));
    candidates.push((
        "intensity",
        Optimization::IncreaseIntensity {
            z: model.workload.z * 2.0,
        },
    ));
    candidates.push((
        "reduce-ilp",
        Optimization::ReduceIlp {
            e: model.workload.e * 0.5,
        },
    ));
    if let Some(cache) = model.cache {
        candidates.push((
            "enlarge-cache",
            Optimization::EnlargeCache {
                s_cache: cache.s_cache * 3.0,
            },
        ));
    }

    let mut evaluated = Vec::with_capacity(candidates.len());
    for (name, opt) in candidates {
        parsed.deadline.check()?;
        let effect = what_if.evaluate(opt);
        evaluated.push(CandidateBody {
            name,
            ms_speedup: effect.map(|e| e.ms_speedup()),
            cs_speedup: effect.map(|e| e.cs_speedup()),
        });
    }
    let body = WhatIfBody {
        schema: SERVE_SCHEMA,
        kind: "whatif",
        thrashing: what_if.is_thrashing(),
        candidates: evaluated,
    };
    Ok(json_response(200, &body))
}

/// A JSON error body (`kind: "error"`) with the status repeated inside,
/// so clients that only log bodies still see the contract.
fn error_response(status: u16, reason: &str) -> Response {
    let body = ErrorBody {
        schema: SERVE_SCHEMA,
        kind: "error",
        status,
        error: reason.to_string(),
    };
    json_response(status, &body)
}

/// `body` through the shared JSON writer, newline-terminated.
fn json_response(status: u16, body: &impl Serialize) -> Response {
    let mut text = xmodel_obs::json::to_string(body);
    text.push('\n');
    Response::with_status(status, JSON_TEXT, text)
}

// Response bodies. Every one opens with `schema` (always
// `SERVE_SCHEMA`) and `kind`; field order is wire order.

#[derive(Serialize)]
struct SolveBody {
    schema: &'static str,
    kind: &'static str,
    degradation: &'static str,
    residual: f64,
    roots: usize,
    point: PointBody,
}

#[derive(Serialize)]
struct PointBody {
    k: f64,
    x: f64,
    ms: f64,
    cs: f64,
    stability: &'static str,
}

impl From<Intersection> for PointBody {
    fn from(p: Intersection) -> Self {
        Self {
            k: p.k,
            x: p.x,
            ms: p.ms_throughput,
            cs: p.cs_throughput,
            stability: p.stability.as_str(),
        }
    }
}

#[derive(Serialize)]
struct SweepBody {
    schema: &'static str,
    kind: &'static str,
    degradation: &'static str,
    n_max: f64,
    points: usize,
    rows: Vec<SweepRow>,
}

/// One sweep row: `n` and `roots`, then the point's fields inline, or
/// nothing more when the row has no operating point. The derive has no
/// flatten or skip attributes, so this shape is written by hand.
struct SweepRow {
    n: f64,
    roots: usize,
    point: Option<PointBody>,
}

impl Serialize for SweepRow {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut row = serializer.serialize_struct("SweepRow", 7)?;
        row.serialize_field("n", &self.n)?;
        row.serialize_field("roots", &self.roots)?;
        if let Some(p) = &self.point {
            row.serialize_field("k", &p.k)?;
            row.serialize_field("x", &p.x)?;
            row.serialize_field("ms", &p.ms)?;
            row.serialize_field("cs", &p.cs)?;
            row.serialize_field("stability", p.stability)?;
        }
        row.end()
    }
}

#[derive(Serialize)]
struct WhatIfBody {
    schema: &'static str,
    kind: &'static str,
    thrashing: bool,
    candidates: Vec<CandidateBody>,
}

/// Speedups are `null` when the candidate has no equilibrium.
#[derive(Serialize)]
struct CandidateBody {
    name: &'static str,
    ms_speedup: Option<f64>,
    cs_speedup: Option<f64>,
}

#[derive(Serialize)]
struct ErrorBody {
    schema: &'static str,
    kind: &'static str,
    status: u16,
    error: String,
}

#[derive(Serialize)]
struct DrainBody {
    schema: &'static str,
    kind: &'static str,
    status: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        }
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, text.clone(), body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    const FERMI_BODY: &str = "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"l1_kib\":16}";

    #[test]
    fn solve_whatif_health_and_drain_round_trip() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, _, body) = request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _, body) = request(addr, "GET /readyz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ready\n"));

        let (status, head, body) = post(addr, "/solve", FERMI_BODY);
        assert_eq!(status, 200, "solve failed: {body}");
        assert!(head.contains("X-Degradation: exact"), "{head}");
        assert!(body.contains("\"schema\":\"xmodel-serve/1\""));
        assert!(body.contains("\"degradation\":\"exact\""));
        assert!(body.contains("\"kind\":\"solve\""));

        let (status, _, body) = post(addr, "/whatif", FERMI_BODY);
        assert_eq!(status, 200, "whatif failed: {body}");
        assert!(body.contains("\"kind\":\"whatif\""));
        assert!(body.contains("\"name\":\"enlarge-cache\""));

        let (status, _, body) = post(
            addr,
            "/sweep",
            "{\"gpu\":\"fermi\",\"z\":16,\"n\":48,\"l1_kib\":16,\"n_max\":32,\"points\":8}",
        );
        assert_eq!(status, 200, "sweep failed: {body}");
        assert!(body.contains("\"kind\":\"sweep\""));
        assert!(body.matches("\"n\":").count() >= 8);

        let (status, _, _) = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let (status, _, _) = request(addr, "DELETE /solve HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _, _) = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);

        let (status, _, body) = post(addr, "/quitck", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"draining\""));
        let report = server.wait();
        assert!(report.clean_drain);
        assert!(report.served >= 7);
        assert_eq!(report.malformed, 0);
    }

    #[test]
    fn malformed_and_model_errors_are_typed() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, _, body) = post(addr, "/solve", "this is not json");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"error\""));

        let (status, _, body) = post(addr, "/solve", "{\"gpu\":\"fermi\",\"n\":48}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("`z` required"));

        let (status, _, body) = post(
            addr,
            "/solve",
            "{\"m\":6,\"r\":0.1,\"l\":520,\"z\":-2,\"n\":48}",
        );
        assert_eq!(status, 400, "{body}");

        // Nesting past the parser's cap is a 400, not a stack overflow
        // that takes the worker and the daemon down with it.
        let (status, _, body) = post(addr, "/solve", &"[".repeat(60_000));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");
        let (status, _, body) = post(addr, "/solve", FERMI_BODY);
        assert_eq!(status, 200, "{body}");

        server.drain();
        let report = server.wait();
        assert!(report.clean_drain);
    }

    #[test]
    fn deadline_exhaustion_is_a_typed_504() {
        let mut cfg = test_config();
        cfg.stall_ms = 50;
        let server = Server::start(cfg).expect("start");
        let addr = server.addr();
        let (status, _, body) = post(
            addr,
            "/solve",
            "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"deadline_ms\":1}",
        );
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline exceeded"));
        server.drain();
        let report = server.wait();
        assert_eq!(report.deadline_exceeded, 1);
    }

    #[test]
    fn depth_maps_to_ladder_rungs() {
        let cfg = ServeConfig {
            queue_capacity: 10,
            ..ServeConfig::default()
        };
        assert_eq!(force_for_depth(&cfg, 0), DegradeForce::None);
        assert_eq!(force_for_depth(&cfg, 4), DegradeForce::None);
        assert_eq!(force_for_depth(&cfg, 5), DegradeForce::SkipExact);
        assert_eq!(force_for_depth(&cfg, 8), DegradeForce::SkipGrid);
        assert_eq!(force_for_depth(&cfg, 10), DegradeForce::SkipGrid);
    }

    #[test]
    fn sharded_cache_routes_same_key_to_same_shard() {
        let cache = ShardedSolveCache::new(8);
        let model = XModel::new(
            MachineParams::try_new(6.0, 0.107, 520.0).expect("machine"),
            WorkloadParams::try_new(20.0, 1.0, 48.0).expect("workload"),
        );
        let key = CurveKey::of(&model);
        assert_eq!(cache.shard_index(&key), cache.shard_index(&key));
        let eq = cache.solve_with(&model, 512);
        let again = cache.solve_with(&model, 512);
        assert_eq!(eq.points().len(), again.points().len());
        assert!(cache.hits() >= 1);
        assert!(cache.rebuilds() >= 1);
    }

    #[test]
    fn shard_lru_hits_misses_and_evicts() {
        // One shard so every curve lands in the same LRU list.
        let cache = ShardedSolveCache::new(1);
        let model_for = |l: f64| {
            XModel::new(
                MachineParams::try_new(6.0, 0.107, l).expect("machine"),
                WorkloadParams::try_new(20.0, 1.0, 48.0).expect("workload"),
            )
        };
        // Fill past capacity: each distinct L is a distinct supply curve.
        let curves: Vec<XModel> = (0..=SHARD_LRU_CAPACITY)
            .map(|i| model_for(500.0 + 10.0 * i as f64))
            .collect();
        for model in &curves {
            cache.solve_with(model, 512);
        }
        assert_eq!(cache.cache_misses(), SHARD_LRU_CAPACITY as u64 + 1);
        assert_eq!(cache.cache_hits(), 0);
        assert_eq!(cache.cache_evictions(), 1);

        // The most recent curve is resident; re-solving is an LRU hit
        // and bit-identical to the reference solver.
        let last = curves.last().expect("non-empty");
        let warm = cache.solve_with(last, 512);
        assert_eq!(cache.cache_hits(), 1);
        let reference = last.solve_with(512);
        assert_eq!(warm.points().len(), reference.points().len());

        // The oldest curve was the one evicted: solving it again is a
        // miss (and evicts the now-oldest survivor).
        cache.solve_with(&curves[0], 512);
        assert_eq!(cache.cache_misses(), SHARD_LRU_CAPACITY as u64 + 2);
        assert_eq!(cache.cache_evictions(), 2);
    }

    #[test]
    fn sweep_row_without_a_point_is_n_and_roots() {
        let row = SweepRow {
            n: 1.5,
            roots: 0,
            point: None,
        };
        assert_eq!(xmodel_obs::json::to_string(&row), r#"{"n":1.5,"roots":0}"#);
    }

    /// Whole response bodies, byte for byte. The wire format is the
    /// contract `xmodel-serve/1` names, so a change to any body's keys,
    /// key order, number formatting or escaping fails here.
    #[test]
    fn bodies_match_pinned_bytes() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();
        let kepler = r#"{"gpu":"kepler","z":20,"n":48}"#;
        let cases = [
            (
                "POST /solve",
                kepler,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"solve","degradation":"exact","residual":0.0000000000010850348397539733,"roots":1,"point":{"k":46.44664215815283,"x":1.5533578418471734,"ms":0.0776678920934437,"cs":1.553357841868874,"stability":"stable"}}"#,
            ),
            (
                "POST /solve",
                FERMI_BODY,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"solve","degradation":"exact","residual":0.000000000000004926614671774132,"roots":1,"point":{"k":28.611135103226843,"x":19.388864896773157,"ms":0.05000000000000493,"cs":1.0000000000000986,"stability":"stable"}}"#,
            ),
            (
                "POST /solve",
                r#"{"m":6,"r":0.107,"l":520,"z":20,"e":1.5,"n":48,"samples":512}"#,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"solve","degradation":"exact","residual":0.0000000000003358147093734942,"roots":1,"point":{"k":46.799999999995634,"x":1.2000000000043656,"ms":0.0899999999999916,"cs":1.799999999999832,"stability":"stable"}}"#,
            ),
            (
                "POST /sweep",
                r#"{"gpu":"fermi","z":16,"n":48,"l1_kib":16,"n_max":32,"points":4}"#,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"sweep","degradation":"exact","n_max":32,"points":4,"rows":[{"n":1,"roots":1,"k":0.6898981974968592,"x":0.3101018025031408,"ms":0.01938136265643376,"cs":0.31010180250294017,"stability":"stable"},{"n":11.333333333333334,"roots":1,"k":10.798365152688046,"x":0.5349681806452882,"ms":0.03343551129038053,"cs":0.5349681806460885,"stability":"stable"},{"n":21.666666666666668,"roots":1,"k":20.988820921398506,"x":0.6778457452681614,"ms":0.04236535907964711,"cs":0.6778457452743537,"stability":"stable"},{"n":32,"roots":1,"k":31.158066992196837,"x":0.8419330078031635,"ms":0.052620812987577634,"cs":0.8419330078012421,"stability":"stable"}]}"#,
            ),
            (
                "POST /sweep",
                r#"{"gpu":"maxwell","z":4,"n_max":64,"points":3}"#,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"sweep","degradation":"exact","n_max":64,"points":3,"rows":[{"n":1,"roots":1,"k":0.9920152061631597,"x":0.007984793836840254,"ms":0.0019961984591288923,"cs":0.007984793836515569,"stability":"stable"},{"n":32.5,"roots":1,"k":32.24049420031747,"x":0.25950579968252896,"ms":0.06487644992171875,"cs":0.259505799686875,"stability":"stable"},{"n":64,"roots":1,"k":63.54925241865567,"x":0.4507475813443307,"ms":0.11268689533861037,"cs":0.4507475813544415,"stability":"stable"}]}"#,
            ),
            (
                "POST /whatif",
                FERMI_BODY,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"whatif","thrashing":false,"candidates":[{"name":"throttle","ms_speedup":1.0000000000000113,"cs_speedup":1.0000000000000113},{"name":"bypass","ms_speedup":1,"cs_speedup":1},{"name":"intensity","ms_speedup":0.49999999999983624,"cs_speedup":0.9999999999996725},{"name":"reduce-ilp","ms_speedup":1,"cs_speedup":1},{"name":"enlarge-cache","ms_speedup":1.0000000000000506,"cs_speedup":1.0000000000000506}]}"#,
            ),
            (
                "POST /whatif",
                kepler,
                200,
                r#"{"schema":"xmodel-serve/1","kind":"whatif","thrashing":false,"candidates":[{"name":"bypass","ms_speedup":1,"cs_speedup":1},{"name":"intensity","ms_speedup":0.9686528237533311,"cs_speedup":1.9373056475066621},{"name":"reduce-ilp","ms_speedup":0.9686528237533311,"cs_speedup":0.9686528237533311}]}"#,
            ),
            (
                "POST /solve",
                r#"{"gpu":"a\"b\nc","z":20,"n":48}"#,
                400,
                r#"{"schema":"xmodel-serve/1","kind":"error","status":400,"error":"bad request: unknown gpu `a\"b\nc` (fermi|kepler|maxwell)"}"#,
            ),
            (
                "GET /nope",
                "",
                404,
                r#"{"schema":"xmodel-serve/1","kind":"error","status":404,"error":"not found"}"#,
            ),
            (
                "DELETE /solve",
                "",
                405,
                r#"{"schema":"xmodel-serve/1","kind":"error","status":405,"error":"method not allowed"}"#,
            ),
            (
                "POST /quitck",
                "",
                200,
                r#"{"schema":"xmodel-serve/1","kind":"drain","status":"draining"}"#,
            ),
        ];
        for (route, body, want_status, want) in cases {
            let (status, _, got) = request(
                addr,
                &format!(
                    "{route} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert_eq!(status, want_status, "{route} {body}: {got}");
            assert_eq!(got, format!("{want}\n"), "{route} {body}");
        }
        assert!(server.wait().clean_drain);
    }
}
