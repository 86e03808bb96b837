//! The `lis-server` daemon: accept loop, connection handlers, routing, and
//! graceful shutdown.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  accept loop ──spawns──▶ connection handler (1/conn, keep-alive loop)
//!                              │  cache hit ──▶ respond from ResultCache
//!                              │  cache miss ─▶ WorkerPool (bounded queue)
//!                              │                   │ analysis job
//!                              ◀── recv_timeout ───┘ (result also cached)
//! ```
//!
//! Handlers never run analysis themselves: they parse, consult the
//! content-addressed cache, and otherwise wait (with a deadline) on a
//! worker. A full queue is answered with a typed 503 immediately — the
//! daemon sheds load instead of queueing unboundedly. `POST /shutdown`
//! flips a flag: the accept loop stops, handlers finish their in-flight
//! request and close, and the pool drains every queued job before
//! [`Server::run`] returns.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use lis_core::parse_netlist;

use crate::cache::{CacheKey, CachedResponse, ResultCache};
use crate::error::ServerError;
use crate::fault::{FaultPlan, WriteFault, GARBAGE_BYTES};
use crate::http::{
    finish_chunked, read_request, render_response_with, write_chunked_head, write_response,
    write_response_with, ChunkBatcher, DeadlineReader, Request, REQUEST_ID_HEADER,
};
use crate::jobs::{
    add_qs_work, sweep_header_json, sweep_row_json, sweep_trailer_json, RequestKind,
};
use crate::metrics::{Metrics, QsWork, Route};
use crate::net::{
    residual_reader, Completion, Completions, ConnPermit, EventLoop, FrontConfig, Outcome,
    Rendered, SlotKey,
};
use crate::pool::{DrainReport, SubmitError, WorkerPool};
use crate::store::{key_hex, parse_key_hex, ResultStore, Spiller};
use crate::wire::{obj, Json};

/// How long an idle keep-alive connection sleeps between shutdown-flag
/// checks while waiting for the next request.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Which connection front answers the listening socket.
///
/// Both fronts speak the same protocol byte-for-byte; they differ only in
/// how many OS threads the connection count costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontTier {
    /// One handler thread per connection. Simple, and fine up to a few
    /// hundred concurrent peers.
    Threaded,
    /// A single readiness event loop ([`EventLoop`]) multiplexing every
    /// connection, with requests dispatched onto the worker pool. Holds
    /// tens of thousands of keep-alive peers on one thread.
    #[default]
    Epoll,
}

impl FrontTier {
    /// Parses a CLI spelling (`"epoll"` / `"threaded"`).
    pub fn parse(value: &str) -> Option<FrontTier> {
        match value {
            "epoll" => Some(FrontTier::Epoll),
            "threaded" => Some(FrontTier::Threaded),
            _ => None,
        }
    }
}

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running analysis jobs. Defaults to
    /// [`lis_par::max_threads`], which honors the CLI `--threads` flag and
    /// the `LIS_THREADS` environment variable.
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it are shed with a
    /// typed 503.
    pub queue_capacity: usize,
    /// Per-request deadline: a job not finished by then answers 504.
    pub request_timeout: Duration,
    /// Maximum cached responses (content-addressed; 0 disables caching).
    pub cache_capacity: usize,
    /// Concurrent-connection cap; connections beyond it are answered with
    /// a typed 429 and closed before a handler thread is spawned.
    pub max_connections: usize,
    /// Wall-clock budget for one request to fully arrive once its first
    /// byte lands (slow-loris defense). Exceeding it answers a typed 408
    /// and closes the connection.
    pub read_deadline: Duration,
    /// Concurrent `/sweep` jobs allowed. Sweeps run on their connection
    /// handler (streaming rows as they are solved) and parallelize
    /// internally, so a small cap keeps them from starving the worker
    /// pool's cores; excess sweeps are shed with a typed 503 carrying a
    /// `Retry-After` hint. `0` sheds every sweep — a kill switch for
    /// operators (and a deterministic shed path for tests).
    pub max_concurrent_sweeps: usize,
    /// Deterministic fault-injection schedule, if chaos-testing. `None`
    /// (production) costs one pointer check per injection site.
    pub faults: Option<Arc<FaultPlan>>,
    /// Test instrumentation: sleep this long inside every analysis job.
    /// `None` in production; the end-to-end tests use it to exercise the
    /// overload-shed and timeout paths deterministically.
    pub job_delay_for_tests: Option<Duration>,
    /// Which connection front serves the socket.
    pub front: FrontTier,
    /// Test instrumentation: cap every event-loop socket write at this many
    /// bytes, forcing the partial-write/re-registration path.
    pub net_write_chunk_for_tests: Option<usize>,
    /// Durable result store directory (`lis serve --store DIR`). `None`
    /// keeps the cache RAM-only. When set, finished answers spill to disk
    /// write-through and the cache is warm-loaded from disk at startup.
    pub store_dir: Option<PathBuf>,
    /// Maximum entries the durable store keeps before FIFO GC (0 =
    /// unbounded).
    pub store_capacity: usize,
    /// Test instrumentation: sleep this long inside every background
    /// store write, so drain tests observe a non-empty spill queue.
    pub spill_delay_for_tests: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: lis_par::max_threads(),
            queue_capacity: 256,
            request_timeout: Duration::from_secs(30),
            cache_capacity: 4096,
            max_connections: 1024,
            read_deadline: Duration::from_secs(10),
            max_concurrent_sweeps: 4,
            faults: None,
            job_delay_for_tests: None,
            front: FrontTier::default(),
            net_write_chunk_for_tests: None,
            store_dir: None,
            store_capacity: 65536,
            spill_delay_for_tests: None,
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct State {
    metrics: Metrics,
    cache: ResultCache,
    /// Durable write-behind spill under the cache (`--store DIR` only).
    store: Option<Spiller>,
    pool: WorkerPool,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    sweeps_in_flight: AtomicUsize,
    config: ServerConfig,
    started: Instant,
}

impl State {
    /// Cache probe with durable fall-through: a RAM miss (counted as a
    /// miss) re-checks the on-disk store and, on a disk hit, re-warms the
    /// RAM cache without re-spilling.
    fn lookup(&self, key: CacheKey) -> Option<Arc<CachedResponse>> {
        if let Some(hit) = self.cache.get(key, &self.metrics) {
            return Some(hit);
        }
        let spiller = self.store.as_ref()?;
        let response = Arc::new(spiller.store().get(key)?);
        self.cache.insert(key, Arc::clone(&response));
        Some(response)
    }

    /// Caches a finished answer and (with `--store`) spills it to disk
    /// write-through via the background spill queue.
    fn remember(&self, key: CacheKey, response: Arc<CachedResponse>) {
        if let Some(spiller) = &self.store {
            spiller.spill(key, Arc::clone(&response));
        }
        self.cache.insert(key, response);
    }
}

/// The analysis daemon. Bind with [`Server::bind`], serve with
/// [`Server::run`] (blocks until `POST /shutdown`).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listening socket and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        if config.faults.is_some() {
            // Injected panics are expected events during chaos runs; keep
            // them out of the logs (real panics still report normally).
            crate::fault::silence_injected_panics();
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let pool = WorkerPool::new(config.workers.max(1), config.queue_capacity.max(1));
        let cache = ResultCache::new(config.cache_capacity);
        let store = match &config.store_dir {
            Some(dir) => {
                let store = Arc::new(ResultStore::open(dir, config.store_capacity)?);
                // Warm load: every durable answer goes straight into the
                // RAM cache (FIFO keeps the newest `cache_capacity`), so a
                // respawned shard serves its hot set without recomputing.
                for (key, response) in store.warm_entries() {
                    cache.insert(key, response);
                }
                Some(Spiller::new(store, config.spill_delay_for_tests))
            }
            None => None,
        };
        let state = Arc::new(State {
            metrics: Metrics::new(),
            cache,
            store,
            pool,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            sweeps_in_flight: AtomicUsize::new(0),
            config,
            started: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`, then drains (pool jobs first, then
    /// any pending store spills) and returns what the drain observed.
    ///
    /// # Errors
    ///
    /// Returns fatal accept-loop errors; per-connection errors are handled
    /// in the connection's own thread (threaded front) or swallowed per
    /// connection by the event loop (epoll front).
    pub fn run(self) -> io::Result<DrainReport> {
        match self.state.config.front {
            FrontTier::Threaded => self.run_threaded(),
            FrontTier::Epoll => self.run_event_loop(),
        }
    }

    /// The readiness-event-loop front: one thread holds every connection.
    fn run_event_loop(self) -> io::Result<DrainReport> {
        // Best effort: lift the fd soft limit toward the hard limit so the
        // loop's connection cap, not the process rlimit, is the ceiling.
        let _ = crate::net::raise_nofile_limit();
        let Server { listener, state } = self;
        let config = FrontConfig {
            max_connections: state.config.max_connections,
            read_deadline: state.config.read_deadline,
            slow_read: state.config.faults.as_ref().and_then(|p| p.slow_read()),
            drain_grace: state.config.request_timeout + Duration::from_secs(5),
            write_chunk_for_tests: state.config.net_write_chunk_for_tests,
        };
        let stats = Arc::clone(&state.metrics.net);
        let handler = ServerHandler {
            state: Arc::clone(&state),
            pending: Arc::new(Mutex::new(HashMap::new())),
            fast: Arc::new(Mutex::new(FastCache::new(state.config.cache_capacity))),
        };
        EventLoop::new(listener, handler, config, stats)?.run()?;
        // Every queued job runs to completion before the pool stops, and
        // every spill those jobs enqueued lands on disk before exit.
        let mut report = state.pool.drain();
        if let Some(spiller) = &state.store {
            report.spilled = spiller.flush();
        }
        Ok(report)
    }

    /// The classic thread-per-connection front.
    fn run_threaded(self) -> io::Result<DrainReport> {
        let mut handler_threads = Vec::new();
        while !self.state.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((mut stream, _peer)) => {
                    let active = self.state.active_connections.load(Ordering::Acquire);
                    if active >= self.state.config.max_connections {
                        // At the cap: answer a typed 429 on the accept
                        // thread and close, without spawning a handler.
                        self.state
                            .metrics
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        let e = ServerError::TooManyConnections {
                            limit: self.state.config.max_connections,
                        };
                        let body = e.to_json().to_string();
                        let _ = write_response(
                            &mut stream,
                            e.status(),
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                        self.state
                            .metrics
                            .record_request(Route::Other, e.status(), Duration::ZERO);
                        continue;
                    }
                    let state = Arc::clone(&self.state);
                    state.active_connections.fetch_add(1, Ordering::AcqRel);
                    state
                        .metrics
                        .net
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    handler_threads.push(std::thread::spawn(move || {
                        let _ = handle_connection(stream, &state);
                        state.active_connections.fetch_sub(1, Ordering::AcqRel);
                        state
                            .metrics
                            .net
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            // Reap finished handlers so long-running servers don't
            // accumulate joinable threads.
            handler_threads.retain(|h| !h.is_finished());
        }
        // Drain: handlers notice the flag within IDLE_POLL and wind down
        // after at most one more request each; give stragglers a deadline.
        let deadline = Instant::now() + self.state.config.request_timeout + Duration::from_secs(5);
        while self.state.active_connections.load(Ordering::Acquire) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        for h in handler_threads {
            if h.is_finished() {
                let _ = h.join();
            }
        }
        // Every queued job runs to completion before the pool stops, and
        // every spill those jobs enqueued lands on disk before exit.
        let mut report = self.state.pool.drain();
        if let Some(spiller) = &self.state.store {
            report.spilled = spiller.flush();
        }
        Ok(report)
    }
}

/// Serves one connection's keep-alive request loop.
fn handle_connection(stream: TcpStream, state: &Arc<State>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    serve_loop(reader, &mut writer, state, None)
}

/// The blocking request loop shared by the threaded front and event-loop
/// takeovers. `pending` is a request already parsed elsewhere (the event
/// loop migrates `/sweep` connections here with the parsed request and any
/// residual pipelined bytes baked into `reader`).
fn serve_loop<R: BufRead>(
    mut reader: R,
    writer: &mut TcpStream,
    state: &Arc<State>,
    mut pending: Option<Request>,
) -> io::Result<()> {
    let slow_read = state.config.faults.as_ref().and_then(|p| p.slow_read());
    loop {
        let request = match pending.take() {
            Some(request) => request,
            None => {
                // Idle wait: poll for the first byte so the shutdown flag is
                // observed between requests without dropping partial reads.
                loop {
                    match reader.fill_buf() {
                        Ok([]) => return Ok(()), // clean EOF
                        Ok(_) => break,
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            if state.shutdown.load(Ordering::Acquire) {
                                return Ok(());
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                if let Some(delay) = slow_read {
                    // Fault injection: pretend the peer's bytes trickle in.
                    std::thread::sleep(delay);
                }
                // The first byte arrived; the rest of the request must land
                // within the read deadline. The socket keeps its short poll
                // timeout — the DeadlineReader retries those polls until the
                // wall-clock budget is spent, so a slow-loris peer cannot pin
                // this handler.
                let deadline = Instant::now() + state.config.read_deadline;
                match read_request(&mut DeadlineReader::new(&mut reader, deadline)) {
                    Ok(Some(request)) => request,
                    Ok(None) => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        // Protocol violation: answer 400 and hang up.
                        let body = ServerError::BadRequest(e.to_string()).to_json().to_string();
                        write_response(writer, 400, "application/json", body.as_bytes(), false)?;
                        return Ok(());
                    }
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                        // Slow client: answer a typed 408 and hang up.
                        let err = ServerError::SlowClient {
                            deadline_ms: state.config.read_deadline.as_millis() as u64,
                        };
                        state.metrics.record_request(
                            Route::Other,
                            err.status(),
                            state.config.read_deadline,
                        );
                        let body = err.to_json().to_string();
                        write_response(
                            writer,
                            err.status(),
                            "application/json",
                            body.as_bytes(),
                            false,
                        )?;
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
            }
        };

        let started = Instant::now();
        // Correlate this exchange across tiers: a client- (or gateway-)
        // supplied X-LIS-Request-Id is echoed verbatim in the response.
        let request_id = request.header(REQUEST_ID_HEADER).map(str::to_string);
        if request.method == "POST" && request.path == "/sweep" {
            // Sweeps stream their rows, so they need the writer directly
            // and bypass the buffered dispatch/worker-pool path entirely.
            let keep_alive = !request.wants_close() && !state.shutdown.load(Ordering::Acquire);
            sweep_request(
                &request,
                state,
                writer,
                keep_alive,
                request_id.as_deref(),
                started,
            )?;
            if !keep_alive {
                return Ok(());
            }
            continue;
        }
        if request.method == "POST" && request.path == "/batch" {
            // Batches stream one NDJSON row per item as items finish.
            let keep_alive = !request.wants_close() && !state.shutdown.load(Ordering::Acquire);
            batch_request(
                &request,
                state,
                writer,
                keep_alive,
                request_id.as_deref(),
                started,
            )?;
            if !keep_alive {
                return Ok(());
            }
            continue;
        }
        let (route, status, content_type, body, cache_key) = dispatch(&request, state);
        let shutting_down = state.shutdown.load(Ordering::Acquire);
        let keep_alive = !request.wants_close() && !shutting_down;
        state
            .metrics
            .record_request(route, status, started.elapsed());
        let key_header = cache_key.map(key_hex);
        let mut extra_headers: Vec<(&str, &str)> = request_id
            .iter()
            .map(|id| ("X-LIS-Request-Id", id.as_str()))
            .collect();
        if let Some(hex) = key_header.as_deref() {
            // The content address of this answer — the gateway's
            // replication write-back keys its /store/put on it.
            extra_headers.push(("X-LIS-Cache-Key", hex));
        }
        // Fault injection on the write side, analysis routes only — the
        // control plane (/metrics, /healthz, /shutdown) stays reliable so
        // chaos runs can still observe and drain the daemon.
        let analysis_route = matches!(
            route,
            Route::Analyze | Route::Qs | Route::Insert | Route::Dot
        );
        let write_fault = match &state.config.faults {
            Some(plan) if analysis_route => plan.write_fault(),
            _ => WriteFault::None,
        };
        match write_fault {
            WriteFault::None => write_response_with(
                &mut *writer,
                status,
                content_type,
                &body,
                keep_alive,
                &extra_headers,
            )?,
            WriteFault::Truncate => {
                let wire =
                    render_response_with(status, content_type, &body, keep_alive, &extra_headers);
                writer.write_all(&wire[..wire.len() / 2])?;
                writer.flush()?;
                return Ok(());
            }
            WriteFault::Garbage => {
                writer.write_all(GARBAGE_BYTES)?;
                writer.flush()?;
                return Ok(());
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Routes one request. Returns `(route label, status, content type, body,
/// cache key)` — the key is `Some` only for answers with a content address
/// (the analysis routes), and is echoed as `X-LIS-Cache-Key`.
fn dispatch(
    request: &Request,
    state: &Arc<State>,
) -> (Route, u16, &'static str, Vec<u8>, Option<CacheKey>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => {
            state
                .metrics
                .queue_depth
                .store(state.pool.queue_depth() as i64, Ordering::Relaxed);
            // Pool- and plan-owned counters are mirrored at scrape time.
            state
                .metrics
                .worker_panics
                .store(state.pool.panics(), Ordering::Relaxed);
            state
                .metrics
                .worker_respawns
                .store(state.pool.respawns(), Ordering::Relaxed);
            if let Some(plan) = &state.config.faults {
                state
                    .metrics
                    .faults_injected
                    .store(plan.injected(), Ordering::Relaxed);
            }
            if let Some(spiller) = &state.store {
                let store = spiller.store();
                let m = &state.metrics;
                m.store_spills.store(store.spills(), Ordering::Relaxed);
                m.store_disk_hits
                    .store(store.disk_hits(), Ordering::Relaxed);
                m.store_warm_loaded
                    .store(store.warm_loaded(), Ordering::Relaxed);
                m.store_quarantined
                    .store(store.quarantined(), Ordering::Relaxed);
                m.store_gc_evictions
                    .store(store.gc_evictions(), Ordering::Relaxed);
                m.store_entries.store(store.len() as u64, Ordering::Relaxed);
                m.store_bytes.store(store.bytes(), Ordering::Relaxed);
            }
            (
                Route::Metrics,
                200,
                "text/plain; version=0.0.4",
                state.metrics.render().into_bytes(),
                None,
            )
        }
        ("GET", "/healthz") => {
            // The gateway's readiness probe, also useful standalone: one
            // JSON object summarizing load and configuration. `ok` stays
            // first for humans; machines should key on the named fields.
            let body = obj([
                ("ok", Json::Bool(true)),
                ("role", Json::str("server")),
                (
                    "engine",
                    Json::str(marked_graph::McmEngine::default().as_str()),
                ),
                ("workers", Json::num(state.pool.workers() as f64)),
                ("queue_depth", Json::num(state.pool.queue_depth() as f64)),
                ("queue_capacity", Json::num(state.pool.capacity() as f64)),
                ("cache_entries", Json::num(state.cache.len() as f64)),
                (
                    "cache_capacity",
                    Json::num(state.config.cache_capacity as f64),
                ),
                (
                    "sweeps_in_flight",
                    Json::num(state.sweeps_in_flight.load(Ordering::Acquire) as f64),
                ),
                (
                    "sweep_rows_streamed",
                    Json::num(state.metrics.sweep_rows.load(Ordering::Relaxed) as f64),
                ),
                (
                    "connections_open",
                    Json::num(
                        state
                            .metrics
                            .net
                            .connections_open
                            .load(Ordering::Relaxed)
                            .max(0) as f64,
                    ),
                ),
                (
                    "uptime_ms",
                    Json::num(state.started.elapsed().as_millis() as f64),
                ),
                (
                    "draining",
                    Json::Bool(state.shutdown.load(Ordering::Acquire)),
                ),
            ]);
            let mut body = body;
            if let (Json::Obj(fields), Some(spiller)) = (&mut body, &state.store) {
                let store = spiller.store();
                fields.push(("store_entries".to_string(), Json::num(store.len() as f64)));
                fields.push(("store_bytes".to_string(), Json::num(store.bytes() as f64)));
                fields.push(("store_spills".to_string(), Json::num(store.spills() as f64)));
                fields.push((
                    "store_warm_loaded".to_string(),
                    Json::num(store.warm_loaded() as f64),
                ));
                fields.push((
                    "store_quarantined".to_string(),
                    Json::num(store.quarantined() as f64),
                ));
                fields.push((
                    "store_pending_spills".to_string(),
                    Json::num(spiller.pending() as f64),
                ));
            }
            (
                Route::Healthz,
                200,
                "application/json",
                body.to_string().into_bytes(),
                None,
            )
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            (
                Route::Shutdown,
                200,
                "application/json",
                obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))])
                    .to_string()
                    .into_bytes(),
                None,
            )
        }
        ("GET", "/store/index") => {
            // NDJSON: one content address per line — the warm-handoff diff
            // document. With a durable store the index is the store's;
            // RAM-only servers expose the cache so handoff still works.
            let keys = match &state.store {
                Some(spiller) => spiller.store().keys(),
                None => state.cache.keys(),
            };
            let mut body = String::with_capacity(keys.len() * 44);
            for key in keys {
                body.push_str("{\"key\":\"");
                body.push_str(&key_hex(key));
                body.push_str("\"}\n");
            }
            (
                Route::Store,
                200,
                "application/x-ndjson",
                body.into_bytes(),
                None,
            )
        }
        ("POST", "/store/get") => {
            let (status, body) = store_get(request, state);
            (Route::Store, status, "application/json", body, None)
        }
        ("POST", "/store/put") => {
            let (status, body) = store_put(request, state);
            (Route::Store, status, "application/json", body, None)
        }
        ("POST", path @ ("/analyze" | "/qs" | "/insert" | "/dot")) => {
            let route = match path {
                "/analyze" => Route::Analyze,
                "/qs" => Route::Qs,
                "/insert" => Route::Insert,
                _ => Route::Dot,
            };
            match analysis_request(&path[1..], request, state) {
                Ok((status, body, key)) => (route, status, "application/json", body, Some(key)),
                Err(e) => (
                    route,
                    e.status(),
                    "application/json",
                    e.to_json().to_string().into_bytes(),
                    None,
                ),
            }
        }
        (
            _,
            "/metrics" | "/healthz" | "/shutdown" | "/analyze" | "/qs" | "/insert" | "/dot"
            | "/sweep" | "/batch" | "/store/index" | "/store/get" | "/store/put",
        ) => {
            let e = ServerError::MethodNotAllowed;
            (
                Route::Other,
                e.status(),
                "application/json",
                e.to_json().to_string().into_bytes(),
                None,
            )
        }
        (_, path) => {
            let e = ServerError::NotFound(path.to_string());
            (
                Route::Other,
                e.status(),
                "application/json",
                e.to_json().to_string().into_bytes(),
                None,
            )
        }
    }
}

/// Serves `POST /store/get`: `{"key":"<hex>"}` → the cached entry at that
/// content address (`{"found":true,"status":...,"body":...}`), probing the
/// RAM cache first and the durable store second. The peer-read half of the
/// gateway's top-2 replication and warm handoff.
fn store_get(request: &Request, state: &Arc<State>) -> (u16, Vec<u8>) {
    let key = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|envelope| {
            envelope
                .get("key")
                .and_then(Json::as_str)
                .and_then(parse_key_hex)
        });
    let Some(key) = key else {
        let e = ServerError::BadRequest("store body must be {\"key\":\"<32-hex>\"}".into());
        return (e.status(), e.to_json().to_string().into_bytes());
    };
    let cached = state.cache.peek(key).or_else(|| {
        state
            .store
            .as_ref()
            .and_then(|spiller| spiller.store().get(key).map(Arc::new))
    });
    match cached {
        Some(response) => {
            // Response bodies are JSON text by construction; a non-UTF-8
            // body would be corruption, answered as a miss, never served.
            let Ok(text) = std::str::from_utf8(&response.body) else {
                return (
                    404,
                    obj([("found", Json::Bool(false))]).to_string().into_bytes(),
                );
            };
            let body = obj([
                ("found", Json::Bool(true)),
                ("status", Json::num(f64::from(response.status))),
                ("body", Json::str(text)),
            ]);
            (200, body.to_string().into_bytes())
        }
        None => (
            404,
            obj([("found", Json::Bool(false))]).to_string().into_bytes(),
        ),
    }
}

/// Serves `POST /store/put`: `{"key","status","body"}` → caches (and, with
/// `--store`, durably spills) a finished answer computed elsewhere. The
/// write-back half of replication. First write wins: an address already
/// present is left untouched, so a confused peer can never flip the bytes
/// under an existing content address.
fn store_put(request: &Request, state: &Arc<State>) -> (u16, Vec<u8>) {
    let decoded = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|envelope| {
            let key = envelope
                .get("key")
                .and_then(Json::as_str)
                .and_then(parse_key_hex)?;
            let status = envelope.get("status").and_then(Json::as_u64)?;
            let status = u16::try_from(status).ok()?;
            let body = envelope.get("body").and_then(Json::as_str)?.to_string();
            Some((key, status, body))
        });
    let Some((key, status, body)) = decoded else {
        let e = ServerError::BadRequest(
            "store body must be {\"key\":\"<32-hex>\",\"status\":N,\"body\":\"...\"}".into(),
        );
        return (e.status(), e.to_json().to_string().into_bytes());
    };
    let stored = if state.cache.peek(key).is_none() {
        state.remember(
            key,
            Arc::new(CachedResponse {
                status,
                body: body.into_bytes(),
            }),
        );
        true
    } else {
        false
    };
    let reply = obj([
        ("ok", Json::Bool(true)),
        ("stored", Json::Bool(stored)),
        ("durable", Json::Bool(state.store.is_some())),
    ]);
    (200, reply.to_string().into_bytes())
}

/// Serves one analysis request: decode → cache probe → worker pool.
fn analysis_request(
    route: &str,
    request: &Request,
    state: &Arc<State>,
) -> Result<(u16, Vec<u8>, CacheKey), ServerError> {
    if state.shutdown.load(Ordering::Acquire) {
        return Err(ServerError::ShuttingDown);
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
    let envelope = Json::parse(text).map_err(|e| ServerError::BadRequest(format!("body: {e}")))?;
    let (netlist, kind) = RequestKind::decode(route, &envelope)?;
    let sys = parse_netlist(&netlist)?;
    let key = kind.cache_key(&sys);

    if let Some(cached) = state.lookup(key) {
        return Ok((cached.status, cached.body.clone(), key));
    }

    // Cache miss: hand the analysis to the pool and wait with a deadline.
    // The worker populates the cache itself, so a computation whose
    // handler timed out is still paid for only once.
    let (tx, rx) = mpsc::sync_channel::<Arc<CachedResponse>>(1);
    let job_state = Arc::clone(state);
    let job = move || {
        if let Some(d) = job_state.config.job_delay_for_tests {
            std::thread::sleep(d);
        }
        let executed = Instant::now();
        // Isolate the analysis: a panic (injected or real) answers the
        // waiting handler with a typed 500 *before* re-raising, so the
        // pool can count it and respawn the worker. Crash responses are
        // deliberately not cached — the fault is not a property of the
        // (system, kind) pair.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &job_state.config.faults {
                plan.maybe_panic();
            }
            let mut work = QsWork::default();
            let result = kind.execute_measured(&sys, &mut work);
            (result, work)
        }));
        let (result, work) = match outcome {
            Ok(done) => done,
            Err(payload) => {
                let e = ServerError::WorkerCrashed;
                let _ = tx.send(Arc::new(CachedResponse {
                    status: e.status(),
                    body: e.to_json().to_string().into_bytes(),
                }));
                std::panic::resume_unwind(payload);
            }
        };
        let (status, body) = match result {
            Ok(json) => (200, json.to_string().into_bytes()),
            Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
        };
        record_job(&job_state.metrics, &kind, executed.elapsed(), work);
        // Results are deterministic in (system, kind), so failures are as
        // cacheable as successes.
        let response = Arc::new(CachedResponse { status, body });
        job_state.remember(key, Arc::clone(&response));
        // The handler may have timed out and dropped the receiver; the
        // cache insert above already preserved the work.
        let _ = tx.send(response);
    };
    match state.pool.submit(job) {
        Ok(()) => {}
        Err(SubmitError::Overloaded) => {
            state.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Overloaded {
                queue_capacity: state.pool.capacity(),
            });
        }
        Err(SubmitError::ShuttingDown) => return Err(ServerError::ShuttingDown),
    }
    match rx.recv_timeout(state.config.request_timeout) {
        Ok(response) => Ok((response.status, response.body.clone(), key)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
            Err(ServerError::Timeout {
                timeout_ms: state.config.request_timeout.as_millis() as u64,
            })
        }
        // The worker dropped the sender without answering: it died outside
        // the isolated section. Same contract as an isolated crash.
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServerError::WorkerCrashed),
    }
}

/// Releases one sweep slot when the handler unwinds or returns.
struct SweepSlot<'a>(&'a State);

impl Drop for SweepSlot<'_> {
    fn drop(&mut self) {
        self.0.sweeps_in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serves `POST /sweep`: decode → cache probe → stream NDJSON rows.
///
/// The response is chunked: one header line, one line per grid point (in
/// dense point order, written as each row is solved), and a trailer line
/// with the Pareto front. The concatenated lines are also cached under the
/// sweep's content identity, so a repeat sweep — or a gateway failover
/// replay — is answered from the cache byte-for-byte (with `Content-Length`
/// framing, since the whole body is then known up front).
fn sweep_request(
    request: &Request,
    state: &Arc<State>,
    writer: &mut impl Write,
    keep_alive: bool,
    request_id: Option<&str>,
    started: Instant,
) -> io::Result<()> {
    let extra_headers: Vec<(&str, &str)> = request_id
        .iter()
        .map(|id| ("X-LIS-Request-Id", *id))
        .collect();
    // Typed failures before the first streamed byte are ordinary
    // Content-Length responses, exactly like the buffered routes.
    let fail = |writer: &mut dyn Write, e: &ServerError, retry_after: bool| -> io::Result<()> {
        state
            .metrics
            .record_request(Route::Sweep, e.status(), started.elapsed());
        let mut headers = extra_headers.clone();
        if retry_after {
            headers.push(("Retry-After", "1"));
        }
        writer.write_all(&render_response_with(
            e.status(),
            "application/json",
            e.to_json().to_string().as_bytes(),
            keep_alive,
            &headers,
        ))?;
        writer.flush()
    };

    let decoded = (|| -> Result<_, ServerError> {
        if state.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
        let envelope =
            Json::parse(text).map_err(|e| ServerError::BadRequest(format!("body: {e}")))?;
        let (netlist, kind) = RequestKind::decode("sweep", &envelope)?;
        let sys = parse_netlist(&netlist)?;
        Ok((sys, kind))
    })();
    let (sys, kind) = match decoded {
        Ok(d) => d,
        Err(e) => return fail(writer, &e, false),
    };
    let RequestKind::Sweep { spec } = &kind else {
        unreachable!("the sweep route decodes a sweep kind");
    };
    let key = kind.cache_key(&sys);
    // Sweeps carry their content address too: a gateway can replicate the
    // finished table to the runner-up exactly like a single-shot answer.
    let key_header = key_hex(key);
    let mut stream_headers = extra_headers.clone();
    stream_headers.push(("X-LIS-Cache-Key", key_header.as_str()));

    if let Some(cached) = state.lookup(key) {
        // Replay the whole NDJSON body. Rows = lines minus header/trailer.
        let lines = cached.body.iter().filter(|&&b| b == b'\n').count() as u64;
        state.metrics.sweep_jobs.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .sweep_rows
            .fetch_add(lines.saturating_sub(2), Ordering::Relaxed);
        state.metrics.sweep_latency.observe(started.elapsed());
        state
            .metrics
            .record_request(Route::Sweep, cached.status, started.elapsed());
        return write_response_with(
            writer,
            cached.status,
            "application/x-ndjson",
            &cached.body,
            keep_alive,
            &stream_headers,
        );
    }

    // Sweeps parallelize internally and stream from this handler thread, so
    // a small concurrency cap takes the place of the worker-pool queue.
    let limit = state.config.max_concurrent_sweeps;
    if state.sweeps_in_flight.fetch_add(1, Ordering::AcqRel) >= limit {
        state.sweeps_in_flight.fetch_sub(1, Ordering::AcqRel);
        state.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
        return fail(writer, &ServerError::SweepsBusy { limit }, true);
    }
    let _slot = SweepSlot(state);

    let sweep = match lis_sweep::Sweep::new(sys, spec.clone()) {
        Ok(sweep) => sweep,
        Err(e) => return fail(writer, &ServerError::BadRequest(e.to_string()), false),
    };

    // Test instrumentation: pace the stream so e2e tests can kill a shard
    // mid-sweep deterministically.
    let row_delay = std::env::var("LIS_SWEEP_ROW_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);

    write_chunked_head(
        writer,
        200,
        "application/x-ndjson",
        keep_alive,
        &stream_headers,
    )?;
    // Rows coalesce into ~8 KiB chunk frames (one socket write apiece);
    // paced test streams flush every row so a kill lands mid-stream.
    let mut chunks = ChunkBatcher::new(if row_delay.is_some() { 0 } else { 8192 });
    let mut body = sweep_header_json(&sweep).to_string();
    body.push('\n');
    // A dead client must not abort the sweep: the finished table is still
    // cached, so the retry (or the gateway's failover replay) is free.
    let mut write_err = chunks.push(writer, body.as_bytes()).err();
    let executed = Instant::now();
    let engine = spec.engine;
    let mut objectives = Vec::with_capacity(sweep.point_count());
    let mut work = QsWork::default();
    let mut sink = |row: lis_sweep::SweepRow| {
        add_qs_work(&mut work, &row);
        objectives.push(lis_sweep::objectives(&row));
        let mut line = sweep_row_json(&row, engine).to_string();
        line.push('\n');
        if write_err.is_none() {
            if let Some(delay) = row_delay {
                std::thread::sleep(delay);
            }
            write_err = chunks.push(&mut *writer, line.as_bytes()).err();
        }
        state.metrics.sweep_rows.fetch_add(1, Ordering::Relaxed);
        body.push_str(&line);
    };
    let summary = sweep.run(&mut sink);
    state
        .metrics
        .record_engine(engine.as_str(), executed.elapsed());
    state.metrics.record_qs_work(work);
    let pareto = lis_sweep::pareto_front_objectives(&objectives);
    let mut trailer = sweep_trailer_json(&pareto, &summary).to_string();
    trailer.push('\n');
    body.push_str(&trailer);
    if write_err.is_none() {
        write_err = chunks
            .push(&mut *writer, trailer.as_bytes())
            .and_then(|()| chunks.flush(&mut *writer))
            .and_then(|()| finish_chunked(&mut *writer))
            .err();
    }
    state.remember(
        key,
        Arc::new(CachedResponse {
            status: 200,
            body: body.into_bytes(),
        }),
    );
    state.metrics.sweep_jobs.fetch_add(1, Ordering::Relaxed);
    state.metrics.sweep_latency.observe(started.elapsed());
    state
        .metrics
        .record_request(Route::Sweep, 200, started.elapsed());
    match write_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Records one executed (cache-miss) job: the per-engine analysis latency,
/// the `/analyze` schedule options, and the queue-sizing work.
fn record_job(metrics: &Metrics, kind: &RequestKind, elapsed: Duration, work: QsWork) {
    if let Some(label) = kind.engine_label() {
        metrics.record_engine(label, elapsed);
    }
    if let RequestKind::Analyze {
        schedule, burst, ..
    } = kind
    {
        metrics.record_schedule(*schedule, burst.is_some());
    }
    metrics.record_qs_work(work);
}

/// Request-level validation for `POST /batch`: UTF-8 NDJSON with at least
/// one non-blank line, refused outright while draining.
fn batch_lines(state: &Arc<State>, body: &[u8]) -> Result<Vec<String>, ServerError> {
    if state.shutdown.load(Ordering::Acquire) {
        return Err(ServerError::ShuttingDown);
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err(ServerError::BadRequest(
            "batch body must be NDJSON: one request envelope per line".into(),
        ));
    }
    Ok(lines)
}

/// Serves one batch item. Returns the exact `(status, body)` the item's
/// standalone route would answer, so batch rows are byte-identical to
/// individual responses. Items share the result cache with the standalone
/// routes, and crashes are isolated per item: a poisoned line answers the
/// typed 500 row and the rest of the batch carries on.
fn batch_row(state: &Arc<State>, line: &str) -> (u16, Vec<u8>) {
    let result = (|| -> Result<(u16, Vec<u8>), ServerError> {
        let envelope =
            Json::parse(line).map_err(|e| ServerError::BadRequest(format!("batch line: {e}")))?;
        let route = match envelope.get("route") {
            None => "analyze",
            Some(v) => v.as_str().ok_or_else(|| {
                ServerError::BadRequest("batch \"route\" must be a string".into())
            })?,
        };
        if !matches!(route, "analyze" | "qs" | "insert" | "dot") {
            return Err(ServerError::BadRequest(format!(
                "route {route:?} is not batchable"
            )));
        }
        let (netlist, kind) = RequestKind::decode(route, &envelope)?;
        let sys = parse_netlist(&netlist)?;
        let key = kind.cache_key(&sys);
        if let Some(cached) = state.lookup(key) {
            return Ok((cached.status, cached.body.clone()));
        }
        if let Some(d) = state.config.job_delay_for_tests {
            std::thread::sleep(d);
        }
        let executed = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &state.config.faults {
                plan.maybe_panic();
            }
            let mut work = QsWork::default();
            let result = kind.execute_measured(&sys, &mut work);
            (result, work)
        }));
        let (result, work) = match outcome {
            Ok(done) => done,
            // Crash rows are not cached — the fault is not a property of
            // the (system, kind) pair.
            Err(_) => return Err(ServerError::WorkerCrashed),
        };
        let (status, body) = match result {
            Ok(json) => (200, json.to_string().into_bytes()),
            Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
        };
        record_job(&state.metrics, &kind, executed.elapsed(), work);
        state.remember(
            key,
            Arc::new(CachedResponse {
                status,
                body: body.clone(),
            }),
        );
        Ok((status, body))
    })();
    match result {
        Ok(row) => row,
        Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
    }
}

/// Serves `POST /batch` on the threaded front: NDJSON request envelopes
/// in, one chunked NDJSON row per item out.
fn batch_request(
    request: &Request,
    state: &Arc<State>,
    writer: &mut impl Write,
    keep_alive: bool,
    request_id: Option<&str>,
    started: Instant,
) -> io::Result<()> {
    let extra_headers: Vec<(&str, &str)> = request_id
        .iter()
        .map(|id| ("X-LIS-Request-Id", *id))
        .collect();
    let lines = match batch_lines(state, &request.body) {
        Ok(lines) => lines,
        Err(e) => {
            state
                .metrics
                .record_request(Route::Batch, e.status(), started.elapsed());
            return write_response_with(
                writer,
                e.status(),
                "application/json",
                e.to_json().to_string().as_bytes(),
                keep_alive,
                &extra_headers,
            );
        }
    };
    write_chunked_head(
        writer,
        200,
        "application/x-ndjson",
        keep_alive,
        &extra_headers,
    )?;
    // Rows coalesce into ~8 KiB chunk frames, like sweep streaming.
    let mut chunks = ChunkBatcher::new(8192);
    for line in &lines {
        let (_status, mut row) = batch_row(state, line);
        row.push(b'\n');
        chunks.push(&mut *writer, &row)?;
    }
    chunks.flush(&mut *writer)?;
    finish_chunked(&mut *writer)?;
    state
        .metrics
        .record_request(Route::Batch, 200, started.elapsed());
    Ok(())
}

/// FNV-1a over path + body, the fast-cache bucket key.
fn fnv(path: &str, body: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in path.as_bytes().iter().chain(body) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

struct FastEntry {
    path: String,
    body: Vec<u8>,
    route: Route,
    /// Canonical content address of the shadowed cache entry, echoed as
    /// `X-LIS-Cache-Key` so fast-path hits replicate like canonical hits.
    key: CacheKey,
    response: Arc<CachedResponse>,
}

/// Loop-side fast path: exact request bytes → finished response, bounded
/// FIFO. A hit skips UTF-8/JSON/netlist decoding entirely, which is what
/// lets the event loop answer hot repeat queries at connection scale. Only
/// canonical-cache-backed responses are stored, so a fast hit counts in
/// the metrics exactly like the canonical cache hit it shadows — and two
/// textually different requests with the same canonical identity simply
/// fall through to the canonical cache, never diverge.
struct FastCache {
    buckets: HashMap<u64, Vec<FastEntry>>,
    order: VecDeque<u64>,
    capacity: usize,
    len: usize,
}

impl FastCache {
    fn new(capacity: usize) -> FastCache {
        FastCache {
            buckets: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            len: 0,
        }
    }

    fn get(&self, path: &str, body: &[u8]) -> Option<(Route, CacheKey, Arc<CachedResponse>)> {
        let entries = self.buckets.get(&fnv(path, body))?;
        entries
            .iter()
            .find(|e| e.path == path && e.body == body)
            .map(|e| (e.route, e.key, Arc::clone(&e.response)))
    }

    fn insert(
        &mut self,
        path: &str,
        body: &[u8],
        route: Route,
        key: CacheKey,
        response: Arc<CachedResponse>,
    ) {
        if self.capacity == 0 || self.get(path, body).is_some() {
            return;
        }
        let hash = fnv(path, body);
        self.buckets.entry(hash).or_default().push(FastEntry {
            path: path.to_string(),
            body: body.to_vec(),
            route,
            key,
            response,
        });
        self.order.push_back(hash);
        self.len += 1;
        while self.len > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.buckets.get_mut(&old) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&old);
                }
            }
            self.len -= 1;
        }
    }
}

/// Bookkeeping for one in-flight event-loop analysis job. Whoever removes
/// the entry — the worker on completion or the loop's 504 timer — records
/// the request, so each request is recorded exactly once.
struct PendingJob {
    route: Route,
    started: Instant,
    request_id: Option<String>,
}

/// `X-LIS-Request-Id` echo headers for a response.
fn id_headers(request_id: &Option<String>) -> Vec<(String, String)> {
    request_id
        .iter()
        .map(|id| ("X-LIS-Request-Id".to_string(), id.clone()))
        .collect()
}

/// `id_headers` plus the answer's `X-LIS-Cache-Key` content address.
fn id_key_headers(request_id: &Option<String>, key: CacheKey) -> Vec<(String, String)> {
    let mut headers = id_headers(request_id);
    headers.push(("X-LIS-Cache-Key".to_string(), key_hex(key)));
    headers
}

/// The event-loop face of the daemon: routing and worker handoff for the
/// epoll front. It shares [`State`] (cache, pool, metrics, flags) with the
/// threaded front, so the two tiers answer byte-identically.
struct ServerHandler {
    state: Arc<State>,
    pending: Arc<Mutex<HashMap<SlotKey, PendingJob>>>,
    fast: Arc<Mutex<FastCache>>,
}

impl ServerHandler {
    /// Records and renders one typed-error response.
    fn respond_error(
        &self,
        route: Route,
        e: &ServerError,
        started: Instant,
        request_id: &Option<String>,
        fault_eligible: bool,
    ) -> Outcome {
        self.state
            .metrics
            .record_request(route, e.status(), started.elapsed());
        Outcome::Respond(Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: id_headers(request_id),
            fault_eligible,
            force_close: false,
        })
    }

    /// One analysis request on the loop: fast-path probe → decode →
    /// canonical cache probe → worker-pool job with a loop-side deadline.
    fn analysis(
        &self,
        route: Route,
        request: &Request,
        key: SlotKey,
        completions: &Completions,
        started: Instant,
        request_id: Option<String>,
    ) -> Outcome {
        let state = &self.state;
        if state.shutdown.load(Ordering::Acquire) {
            return self.respond_error(
                route,
                &ServerError::ShuttingDown,
                started,
                &request_id,
                true,
            );
        }
        // Fast path: these exact request bytes were answered before.
        if state.config.cache_capacity > 0 {
            let hit = self.fast.lock().unwrap().get(&request.path, &request.body);
            if let Some((_route, fast_key, cached)) = hit {
                state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                state
                    .metrics
                    .record_request(route, cached.status, started.elapsed());
                return Outcome::Respond(Rendered {
                    status: cached.status,
                    content_type: "application/json".to_string(),
                    body: cached.body.clone(),
                    extra_headers: id_key_headers(&request_id, fast_key),
                    fault_eligible: true,
                    force_close: false,
                });
            }
        }
        let decoded = (|| -> Result<_, ServerError> {
            let text = std::str::from_utf8(&request.body)
                .map_err(|_| ServerError::BadRequest("body is not UTF-8".into()))?;
            let envelope =
                Json::parse(text).map_err(|e| ServerError::BadRequest(format!("body: {e}")))?;
            let (netlist, kind) = RequestKind::decode(&request.path[1..], &envelope)?;
            let sys = parse_netlist(&netlist)?;
            Ok((sys, kind))
        })();
        let (sys, kind) = match decoded {
            Ok(d) => d,
            Err(e) => return self.respond_error(route, &e, started, &request_id, true),
        };
        let cache_key = kind.cache_key(&sys);
        if let Some(cached) = state.lookup(cache_key) {
            state
                .metrics
                .record_request(route, cached.status, started.elapsed());
            if state.config.cache_capacity > 0 {
                self.fast.lock().unwrap().insert(
                    &request.path,
                    &request.body,
                    route,
                    cache_key,
                    Arc::clone(&cached),
                );
            }
            return Outcome::Respond(Rendered {
                status: cached.status,
                content_type: "application/json".to_string(),
                body: cached.body.clone(),
                extra_headers: id_key_headers(&request_id, cache_key),
                fault_eligible: true,
                force_close: false,
            });
        }
        // Cache miss: queue the job; the worker answers through the
        // completion channel and the loop re-sequences pipelined replies.
        self.pending.lock().unwrap().insert(
            key,
            PendingJob {
                route,
                started,
                request_id: request_id.clone(),
            },
        );
        let job_state = Arc::clone(state);
        let pending = Arc::clone(&self.pending);
        let fast = Arc::clone(&self.fast);
        let completions = completions.clone();
        let raw_path = request.path.clone();
        let raw_body = request.body.clone();
        let job = move || {
            if let Some(d) = job_state.config.job_delay_for_tests {
                std::thread::sleep(d);
            }
            let executed = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = &job_state.config.faults {
                    plan.maybe_panic();
                }
                let mut work = QsWork::default();
                let result = kind.execute_measured(&sys, &mut work);
                (result, work)
            }));
            let answer = |status: u16, body: Vec<u8>| {
                // Whoever removes the pending entry records the request; if
                // the loop's 504 timer won the race this answer is dropped
                // and must not double-count.
                let entry = pending.lock().unwrap().remove(&key);
                if let Some(entry) = entry {
                    job_state
                        .metrics
                        .record_request(entry.route, status, entry.started.elapsed());
                    completions.send(
                        key,
                        Completion::Full(Rendered {
                            status,
                            content_type: "application/json".to_string(),
                            body,
                            extra_headers: id_key_headers(&entry.request_id, cache_key),
                            fault_eligible: true,
                            force_close: false,
                        }),
                    );
                }
            };
            let (result, work) = match outcome {
                Ok(done) => done,
                Err(payload) => {
                    // Answer the typed 500 *before* re-raising so the pool
                    // can count the panic and respawn the worker.
                    let e = ServerError::WorkerCrashed;
                    answer(e.status(), e.to_json().to_string().into_bytes());
                    std::panic::resume_unwind(payload);
                }
            };
            let (status, body) = match result {
                Ok(json) => (200, json.to_string().into_bytes()),
                Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
            };
            record_job(&job_state.metrics, &kind, executed.elapsed(), work);
            let response = Arc::new(CachedResponse {
                status,
                body: body.clone(),
            });
            job_state.remember(cache_key, Arc::clone(&response));
            if job_state.config.cache_capacity > 0 {
                fast.lock()
                    .unwrap()
                    .insert(&raw_path, &raw_body, route, cache_key, response);
            }
            answer(status, body);
        };
        match state.pool.submit(job) {
            Ok(()) => Outcome::Pending {
                timeout: Some(state.config.request_timeout),
            },
            Err(SubmitError::Overloaded) => {
                self.pending.lock().unwrap().remove(&key);
                state.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                let e = ServerError::Overloaded {
                    queue_capacity: state.pool.capacity(),
                };
                self.respond_error(route, &e, started, &request_id, true)
            }
            Err(SubmitError::ShuttingDown) => {
                self.pending.lock().unwrap().remove(&key);
                self.respond_error(
                    route,
                    &ServerError::ShuttingDown,
                    started,
                    &request_id,
                    true,
                )
            }
        }
    }

    /// `POST /batch` on the loop: one pool job streams every row back.
    fn batch(
        &self,
        request: &Request,
        key: SlotKey,
        completions: &Completions,
        started: Instant,
        request_id: Option<String>,
    ) -> Outcome {
        let state = Arc::clone(&self.state);
        let completions = completions.clone();
        let body = request.body.clone();
        let rid = request_id.clone();
        let job = move || {
            match batch_lines(&state, &body) {
                Err(e) => {
                    state
                        .metrics
                        .record_request(Route::Batch, e.status(), started.elapsed());
                    completions.send(
                        key,
                        Completion::Full(Rendered {
                            status: e.status(),
                            content_type: "application/json".to_string(),
                            body: e.to_json().to_string().into_bytes(),
                            extra_headers: id_headers(&rid),
                            fault_eligible: false,
                            force_close: false,
                        }),
                    );
                }
                Ok(lines) => {
                    completions.send(
                        key,
                        Completion::StreamHead {
                            status: 200,
                            content_type: "application/x-ndjson".to_string(),
                            extra_headers: id_headers(&rid),
                        },
                    );
                    // Rows coalesce into ~8 KiB frames, like sweep chunks.
                    let mut buffer: Vec<u8> = Vec::new();
                    for line in &lines {
                        let (_status, mut row) = batch_row(&state, line);
                        row.push(b'\n');
                        buffer.extend_from_slice(&row);
                        if buffer.len() >= 8192 {
                            completions
                                .send(key, Completion::StreamChunk(std::mem::take(&mut buffer)));
                        }
                    }
                    if !buffer.is_empty() {
                        completions.send(key, Completion::StreamChunk(buffer));
                    }
                    state
                        .metrics
                        .record_request(Route::Batch, 200, started.elapsed());
                    completions.send(key, Completion::StreamEnd);
                }
            }
        };
        match self.state.pool.submit(job) {
            Ok(()) => Outcome::Pending { timeout: None },
            Err(SubmitError::Overloaded) => {
                self.state
                    .metrics
                    .shed_total
                    .fetch_add(1, Ordering::Relaxed);
                let e = ServerError::Overloaded {
                    queue_capacity: self.state.pool.capacity(),
                };
                self.respond_error(Route::Batch, &e, started, &request_id, false)
            }
            Err(SubmitError::ShuttingDown) => self.respond_error(
                Route::Batch,
                &ServerError::ShuttingDown,
                started,
                &request_id,
                false,
            ),
        }
    }
}

impl crate::net::Handler for ServerHandler {
    fn dispatch(&self, request: Request, key: SlotKey, completions: &Completions) -> Outcome {
        let started = Instant::now();
        let request_id = request.header(REQUEST_ID_HEADER).map(str::to_string);
        let method = request.method.clone();
        let path = request.path.clone();
        match (method.as_str(), path.as_str()) {
            // Sweeps stream from a blocking handler; migrate the whole
            // connection onto its own thread.
            ("POST", "/sweep") => Outcome::TakeOver(Box::new(request)),
            ("POST", "/batch") => self.batch(&request, key, completions, started, request_id),
            ("POST", "/analyze" | "/qs" | "/insert" | "/dot") => {
                let route = match path.as_str() {
                    "/analyze" => Route::Analyze,
                    "/qs" => Route::Qs,
                    "/insert" => Route::Insert,
                    _ => Route::Dot,
                };
                self.analysis(route, &request, key, completions, started, request_id)
            }
            _ => {
                // Control plane and error routes answer inline.
                let (route, status, content_type, body, cache_key) =
                    dispatch(&request, &self.state);
                self.state
                    .metrics
                    .record_request(route, status, started.elapsed());
                let extra_headers = match cache_key {
                    Some(key) => id_key_headers(&request_id, key),
                    None => id_headers(&request_id),
                };
                Outcome::Respond(Rendered {
                    status,
                    content_type: content_type.to_string(),
                    body,
                    extra_headers,
                    fault_eligible: false,
                    force_close: false,
                })
            }
        }
    }

    fn bad_request(&self, error: &io::Error) -> Rendered {
        // Parity with the threaded front: protocol-violation 400s close
        // the connection and are deliberately not recorded.
        let e = ServerError::BadRequest(error.to_string());
        Rendered {
            status: 400,
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn slow_client(&self) -> Rendered {
        let e = ServerError::SlowClient {
            deadline_ms: self.state.config.read_deadline.as_millis() as u64,
        };
        self.state.metrics.record_request(
            Route::Other,
            e.status(),
            self.state.config.read_deadline,
        );
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn reject_connection(&self) -> Rendered {
        self.state
            .metrics
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
        let e = ServerError::TooManyConnections {
            limit: self.state.config.max_connections,
        };
        self.state
            .metrics
            .record_request(Route::Other, e.status(), Duration::ZERO);
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: true,
        }
    }

    fn job_timeout(&self, key: SlotKey) -> Rendered {
        let entry = self.pending.lock().unwrap().remove(&key);
        let e = ServerError::Timeout {
            timeout_ms: self.state.config.request_timeout.as_millis() as u64,
        };
        let mut extra_headers = Vec::new();
        if let Some(entry) = entry {
            self.state
                .metrics
                .timeouts_total
                .fetch_add(1, Ordering::Relaxed);
            self.state
                .metrics
                .record_request(entry.route, e.status(), entry.started.elapsed());
            extra_headers = id_headers(&entry.request_id);
        }
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers,
            fault_eligible: true,
            force_close: false,
        }
    }

    fn write_fault(&self) -> WriteFault {
        match &self.state.config.faults {
            Some(plan) => plan.write_fault(),
            None => WriteFault::None,
        }
    }

    fn shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    fn take_over(
        &self,
        stream: TcpStream,
        request: Request,
        residual: Vec<u8>,
        permit: ConnPermit,
    ) {
        let state = Arc::clone(&self.state);
        std::thread::spawn(move || {
            let _permit = permit;
            let _ = (|| -> io::Result<()> {
                // Back to blocking I/O with the threaded front's idle poll.
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(IDLE_POLL))?;
                let mut writer = stream.try_clone()?;
                let reader = residual_reader(residual, stream);
                serve_loop(reader, &mut writer, &state, Some(request))
            })();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lis-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The latent RAM-only drain gap, closed: `POST /shutdown` must flush
    /// spills still sitting in the write-behind queue before `run` returns,
    /// and report how many it saved in `DrainReport::spilled`.
    #[test]
    fn shutdown_drain_flushes_pending_spills_and_reports_them() {
        let dir = scratch("drain");
        let config = ServerConfig {
            store_dir: Some(dir.clone()),
            // Slow spill worker: the queue is observably non-empty when the
            // drain starts, exactly the window the old code lost.
            spill_delay_for_tests: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr).expect("connect");
        for rs in 1..=3u32 {
            let netlist = format!("block A\nblock B\nchannel A -> B rs={rs}\nchannel A -> B\n");
            let (status, _) = client
                .analysis("analyze", &netlist, Json::Null)
                .expect("analyze");
            assert_eq!(status, 200);
        }
        client.shutdown().expect("shutdown");
        let report = daemon.join().expect("join").expect("run");
        assert!(
            report.spilled >= 1,
            "drain must report the spills it flushed, got {report:?}"
        );

        // Every answer is durable: a reopened store holds all three.
        let reopened = ResultStore::open(&dir, 0).expect("reopen");
        assert_eq!(reopened.len(), 3, "flushed spills survive on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
