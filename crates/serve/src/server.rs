//! The detection server: a `TcpListener` accept loop feeding a bounded
//! queue of connections into a pool of worker threads, which parse HTTP,
//! route, and run each scan themselves. Every worker scans through one
//! [`CachePool`] the server owns for its whole life, so pattern caches
//! and memoized NPMI scores stay warm across requests and workers.
//!
//! Operational properties:
//!
//! - **Backpressure.** The accept queue is bounded; when it is full the
//!   acceptor answers `503` inline and drops the connection instead of
//!   queueing unbounded work.
//! - **Panic isolation.** Each request is routed under `catch_unwind`;
//!   a panicking handler costs that request a `500`, never the process.
//!   (Engine worker panics are already converted to errors upstream.)
//! - **Timeouts.** Sockets carry read/write timeouts, so a stalled or
//!   malicious peer cannot pin a worker forever.
//! - **Graceful shutdown.** `POST /v1/shutdown` (or
//!   [`ServerHandle::shutdown`], which the CLI can wire to a signal flag)
//!   flips an atomic checked between accepts and wakes the acceptor with
//!   a self-connection. The acceptor stops, queued connections drain,
//!   in-flight requests complete and are answered, then workers and the
//!   learner exit and [`Server::run`] returns.

use crate::http::{read_request, write_response, HttpError, Request};
use crate::json::{self, Json};
use crate::learn::{self, LearnConfig};
use crate::protocol;
use crate::registry::{ModelHandle, ModelRegistry};
use crate::stats::ServerStats;
use adt_baselines::parse_ensemble;
use adt_core::{
    rank_table_findings, AdtError, CachePool, ColumnFinding, ColumnSummary, EnsembleEngine,
    ScanEngine, TableFinding,
};
use adt_corpus::Column;
use adt_stats::resolve_threads;
use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// HTTP worker threads (0 = available cores).
    pub workers: usize,
    /// Scan-engine threads per request. `0` gives each HTTP worker an
    /// even share of the cores (`max(1, cores / workers)`), since every
    /// worker may be scanning at once.
    pub engine_threads: usize,
    /// Bounded accept queue depth; beyond it connections get `503`.
    pub queue_capacity: usize,
    /// Hard request-body limit (enforced before the body is read).
    pub max_body_bytes: usize,
    /// Socket read/write timeout — bounds how long a stalled peer can
    /// hold a worker (and how long shutdown waits on idle keep-alives).
    pub io_timeout: Duration,
    /// Online learning loop; `None` disables `POST /v1/learn` and the
    /// scan tap.
    pub learn: Option<LearnConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            engine_threads: 0,
            queue_capacity: 128,
            max_body_bytes: 8 << 20,
            io_timeout: Duration::from_secs(10),
            learn: None,
        }
    }
}

/// Remote control for a running server: trigger shutdown from another
/// thread (tests, a CLI signal flag, the shutdown endpoint).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the acceptor. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway self-connection.
        // adt-allow(error-path): the wake-up connection is best-effort; the acceptor also exits on its own accept timeout
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A bound-but-not-yet-running detection server.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Caches every worker's scans check out and return.
    cache_pool: Arc<CachePool>,
    /// Registry model the learn loop retrains, resolved and validated
    /// at bind time; `None` when learning is disabled.
    learn_target: Option<String>,
}

impl Server {
    /// Binds the listener. The server starts serving on [`Server::run`].
    ///
    /// A learn-enabled configuration is validated here: the training
    /// knobs must pass [`adt_core::AutoDetectConfig::validate`], both
    /// absorb thresholds must be positive, and the target model must
    /// resolve to a loaded registry entry — a learner that could never
    /// swap is a deployment error worth failing fast on.
    pub fn bind(config: ServeConfig, registry: ModelRegistry) -> Result<Server, AdtError> {
        let learn_target = match &config.learn {
            None => None,
            Some(learn) => {
                learn.train.validate()?;
                if learn.absorb_columns == 0 {
                    return Err(AdtError::Config(
                        "learn absorb_columns must be positive".into(),
                    ));
                }
                if learn.absorb_interval.is_zero() {
                    return Err(AdtError::Config(
                        "learn absorb_interval must be positive".into(),
                    ));
                }
                let name = learn
                    .model
                    .clone()
                    .or_else(|| registry.default_name())
                    .ok_or_else(|| {
                        AdtError::Config(
                            "learn target is ambiguous: multiple models are loaded and none \
                             is named \"default\"; set LearnConfig::model"
                                .into(),
                        )
                    })?;
                if registry.path_of(&name).is_none() {
                    return Err(AdtError::Config(format!(
                        "learn target {name:?} is not a loaded model (have {:?})",
                        registry.names()
                    )));
                }
                Some(name)
            }
        };
        let addrs: Vec<SocketAddr> = config
            .addr
            .to_socket_addrs()
            .map_err(|e| AdtError::Config(format!("bad address {:?}: {e}", config.addr)))?
            .collect();
        let listener = TcpListener::bind(&addrs[..])?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            config,
            registry: Arc::new(registry),
            stats: Arc::new(ServerStats::default()),
            listener,
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            cache_pool: CachePool::new(),
            learn_target,
        })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr,
        }
    }

    /// The shared stats (also served at `GET /v1/stats`).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Runs the server on a background thread; returns the bound address,
    /// the control handle, and the join handle. Convenience for tests,
    /// benches, and embedding.
    #[allow(clippy::type_complexity)]
    pub fn spawn(
        self,
    ) -> (
        SocketAddr,
        ServerHandle,
        thread::JoinHandle<Result<(), AdtError>>,
    ) {
        let addr = self.local_addr();
        let handle = self.handle();
        let join = thread::spawn(move || self.run());
        (addr, handle, join)
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> Result<(), AdtError> {
        let workers = resolve_threads(self.config.workers).max(1);
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.config.queue_capacity.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let engine_threads =
            engine_threads_per_scan(self.config.engine_threads, workers, resolve_threads(0));

        // The learn loop: a bounded ingest queue feeding one background
        // learner thread. Workers hold the only senders after spawn, so
        // worker drain disconnects the learner too.
        let (learn_tx, learner) = match (&self.config.learn, &self.learn_target) {
            (Some(cfg), Some(target)) => {
                let (tx, rx) = mpsc::sync_channel::<Vec<Column>>(cfg.queue_capacity.max(1));
                let cfg = cfg.clone();
                let target = target.clone();
                let registry = Arc::clone(&self.registry);
                let stats = Arc::clone(&self.stats);
                let handle = self.handle();
                let join = thread::Builder::new()
                    .name("adt-learner".into())
                    .spawn(move || learn::run_learner(rx, cfg, target, registry, stats, handle))
                    .map_err(AdtError::Io)?;
                (Some(tx), Some(join))
            }
            _ => (None, None),
        };

        let mut worker_joins = Vec::with_capacity(workers);
        for i in 0..workers {
            let ctx = WorkerCtx {
                conn_rx: Arc::clone(&conn_rx),
                registry: Arc::clone(&self.registry),
                stats: Arc::clone(&self.stats),
                cache_pool: Arc::clone(&self.cache_pool),
                learn_tx: learn_tx.clone(),
                handle: self.handle(),
                max_body: self.config.max_body_bytes,
                engine_threads,
            };
            worker_joins.push(
                thread::Builder::new()
                    .name(format!("adt-worker-{i}"))
                    .spawn(move || worker_loop(ctx))
                    .map_err(AdtError::Io)?,
            );
        }
        // Workers own the only remaining learn senders; when the last
        // worker exits, the learner's receiver disconnects and it stops.
        drop(learn_tx);

        // Accept loop: runs on the calling thread until shutdown.
        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if self.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a late client) is dropped
            }
            // adt-allow(error-path): socket-option failures only cost the options themselves; the worker's request parsing still bounds the connection
            let _ = stream.set_read_timeout(Some(self.config.io_timeout));
            // adt-allow(error-path): same — a stream without a write timeout still ends with the response
            let _ = stream.set_write_timeout(Some(self.config.io_timeout));
            // adt-allow(error-path): nodelay is a latency hint; losing it is harmless
            let _ = stream.set_nodelay(true);
            match conn_tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut stream)) => {
                    // Backpressure: answer 503 inline and shed the load.
                    self.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    shed(&mut stream);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }

        // Drain: closing the connection channel lets workers finish the
        // queued and in-flight connections, then exit.
        drop(conn_tx);
        for join in worker_joins {
            // adt-allow(error-path): a worker that panicked already failed its own requests; drain just waits it out
            let _ = join.join();
        }
        if let Some(join) = learner {
            // adt-allow(error-path): learner failures are isolated into `learn.errors` while it runs; at drain only the join matters
            let _ = join.join();
        }
        Ok(())
    }
}

/// Engine threads per scan: `configured`, or for `0` an even share of
/// `cores` over the `workers` that may all be scanning at once (at least
/// one each), so a loaded server asks for about `cores` scan threads in
/// total rather than `workers × cores`.
fn engine_threads_per_scan(configured: usize, workers: usize, cores: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        (cores / workers.max(1)).max(1)
    }
}

/// How long the acceptor keeps reading a shed connection's request
/// after its 503. The bound is acceptable because a shed only happens
/// while every worker is busy and the connection queue is full: the
/// workers keep draining the queue while the acceptor waits, and the
/// connections arriving meanwhile queue in the kernel's listen backlog
/// and would most likely be shed too. Writing the 503 itself may
/// already block for the whole `io_timeout`, which is seconds, not
/// milliseconds. A well-behaved client closes as soon as it has read
/// the 503, which ends the drain well before the deadline.
const SHED_DRAIN_DEADLINE: Duration = Duration::from_millis(50);
/// Most request bytes read and discarded from one shed connection.
const SHED_DRAIN_BYTES: usize = 64 << 10;

/// Answers a connection the queue had no room for with a 503 and closes
/// it without a reset. Closing a socket whose request is still unread
/// makes the kernel send RST instead of FIN, and the client then loses
/// the 503 (`ECONNRESET`) or fails writing its request (`EPIPE`). So
/// the write side shuts down first (the client sees the response end),
/// then the request is read and discarded until the client closes,
/// [`SHED_DRAIN_BYTES`] arrive, or [`SHED_DRAIN_DEADLINE`] passes.
fn shed(stream: &mut TcpStream) {
    let body = protocol::error_to_json("server busy, try again").to_text();
    // adt-allow(error-path): a client that vanished before its 503 needs no 503
    let _ = write_response(stream, 503, &body, false);
    // adt-allow(error-path): a failed half-close leaves only the RST this drain would have avoided
    let _ = stream.shutdown(Shutdown::Write);
    // adt-allow(determinism): wall-clock bounds the shed drain only, never a response
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    while drained < SHED_DRAIN_BYTES {
        let left = SHED_DRAIN_DEADLINE.saturating_sub(start.elapsed());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained = drained.saturating_add(n),
        }
    }
}

struct WorkerCtx {
    conn_rx: Arc<Mutex<Receiver<TcpStream>>>,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    cache_pool: Arc<CachePool>,
    /// Present on learn-enabled servers: the bounded ingest queue.
    learn_tx: Option<mpsc::SyncSender<Vec<Column>>>,
    handle: ServerHandle,
    max_body: usize,
    /// Resolved by [`engine_threads_per_scan`]; never `0`.
    engine_threads: usize,
}

fn worker_loop(ctx: WorkerCtx) {
    loop {
        // Disconnection means the acceptor is done.
        let stream = match next_conn(&ctx) {
            Ok(s) => s,
            Err(_) => break,
        };
        serve_connection(&ctx, stream);
    }
}

/// Takes the next queued connection off the shared receiver — the
/// standard shared-receiver pattern: the lock exists only to serialize
/// `recv` calls. Poison can only mean a sibling worker panicked between
/// lock and recv, which leaves the receiver itself intact, so the guard
/// is recovered rather than cascading the panic.
fn next_conn(ctx: &WorkerCtx) -> Result<TcpStream, mpsc::RecvError> {
    let rx = ctx.conn_rx.lock().unwrap_or_else(PoisonError::into_inner);
    // adt-allow(lock-discipline): intentional shared-receiver recv; the guard exists only for this recv
    rx.recv()
}

fn serve_connection(ctx: &WorkerCtx, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader, ctx.max_body) {
            Ok(Some(req)) => req,
            Ok(None) => return, // peer closed cleanly
            Err(e) => {
                let (status, msg) = match &e {
                    HttpError::Malformed(m) => (400, m.clone()),
                    HttpError::BodyTooLarge { declared, limit } => (
                        413,
                        format!("request body of {declared} bytes exceeds limit of {limit}"),
                    ),
                    HttpError::LengthRequired => {
                        (411, "requests must use Content-Length framing".into())
                    }
                    HttpError::Io(_) => return, // timeout / reset: just close
                };
                ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
                ctx.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                let body = protocol::error_to_json(&msg).to_text();
                // adt-allow(error-path): the error response is best-effort; a gone client cannot receive its 4xx
                let _ = write_response(&mut writer, status, &body, false);
                return;
            }
        };
        let keep_alive = req.keep_alive() && !ctx.handle.is_shutting_down();
        // Panic isolation: a handler bug costs this request a 500.
        let (status, body) = match catch_unwind(AssertUnwindSafe(|| route(ctx, &req))) {
            Ok(outcome) => outcome,
            Err(_) => {
                ctx.stats.server_errors.fetch_add(1, Ordering::Relaxed);
                error(500, "internal error")
            }
        };
        if write_response(&mut writer, status, &body, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// An error response: the status and its `{"error": ...}` body text.
fn error(status: u16, message: &str) -> (u16, String) {
    (status, protocol::error_to_json(message).to_text())
}

/// Routes one request; returns `(status, body text)`. Scans encode their
/// own bodies, so the encode time lands in their phase counters.
fn route(ctx: &WorkerCtx, req: &Request) -> (u16, String) {
    ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
    let outcome = if (req.method.as_str(), req.path.as_str()) == ("POST", "/v1/scan") {
        handle_scan(ctx, req)
    } else {
        let (status, body) = route_json(ctx, req);
        (status, body.to_text())
    };
    match outcome.0 {
        400..=499 => {
            ctx.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        500..=599 => {
            ctx.stats.server_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    outcome
}

/// Every route but `POST /v1/scan`; returns `(status, body)`.
fn route_json(ctx: &WorkerCtx, req: &Request) -> (u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => (
            200,
            Json::obj(vec![
                ("status", Json::str("ok")),
                (
                    "models",
                    Json::Arr(ctx.registry.names().into_iter().map(Json::Str).collect()),
                ),
            ]),
        ),
        ("GET", "/v1/stats") => {
            let mut v = ctx.stats.to_json();
            if let Json::Obj(members) = &mut v {
                members.push((
                    "model_reloads".into(),
                    Json::num(ctx.registry.reloads() as f64),
                ));
                members.push((
                    "model_reload_errors".into(),
                    Json::num(ctx.registry.reload_errors() as f64),
                ));
                // What the warm scan caches hold between requests.
                members.push((
                    "cache_values".into(),
                    Json::num(ctx.cache_pool.values() as f64),
                ));
                members.push((
                    "cache_bytes".into(),
                    Json::num(ctx.cache_pool.bytes() as f64),
                ));
            }
            (200, v)
        }
        ("GET", "/v1/models") => {
            let rows = ctx
                .registry
                .describe()
                .into_iter()
                .map(|(name, generation, languages, bytes)| {
                    Json::obj(vec![
                        ("name", Json::str(name)),
                        ("generation", Json::num(generation as f64)),
                        ("languages", Json::num(languages as f64)),
                        ("size_bytes", Json::num(bytes as f64)),
                    ])
                })
                .collect();
            (200, Json::obj(vec![("models", Json::Arr(rows))]))
        }
        ("POST", "/v1/learn") => handle_learn(ctx, req),
        ("POST", "/v1/shutdown") => {
            ctx.handle.shutdown();
            (200, Json::obj(vec![("status", Json::str("shutting down"))]))
        }
        (
            _,
            "/v1/healthz" | "/v1/stats" | "/v1/models" | "/v1/scan" | "/v1/learn" | "/v1/shutdown",
        ) => (
            405,
            protocol::error_to_json(&format!("method {} not allowed here", req.method)),
        ),
        (_, path) => (
            404,
            protocol::error_to_json(&format!("no such route {path}")),
        ),
    }
}

/// `POST /v1/scan`. The single-model path scans on this worker through
/// the server's [`CachePool`] and times its decode, scan and encode
/// phases; the ensemble path goes to [`handle_ensemble_scan`]. With
/// `"learn": true` the columns move to the learner after a successful
/// scan.
fn handle_scan(ctx: &WorkerCtx, req: &Request) -> (u16, String) {
    // adt-allow(determinism): wall-clock feeds the latency histogram and phase counters only, never scan results
    let start = Instant::now();
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error(400, "body is not UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return error(400, &format!("invalid JSON: {e}")),
    };
    let scan = match protocol::parse_scan_request(value) {
        Ok(s) => s,
        Err(e) => return error(400, &e.to_string()),
    };
    let decoded = start.elapsed();
    let name = match scan.model.or_else(|| ctx.registry.default_name()) {
        Some(n) => n,
        None => {
            return error(
                400,
                "multiple models are loaded and none is named \"default\"; \
                 pass \"model\" in the request",
            )
        }
    };
    let handle = match ctx.registry.get(&name) {
        Some(h) => h,
        None => return error(404, &format!("unknown model {name:?}")),
    };
    if scan.learn && ctx.learn_tx.is_none() {
        return error(
            400,
            "\"learn\": true requires a server started with online learning enabled",
        );
    }
    let (status, body) = match &scan.detectors {
        Some(detectors) => {
            let (status, body) = handle_ensemble_scan(
                ctx,
                &handle,
                detectors,
                scan.merge.as_deref(),
                &scan.columns,
            );
            (status, body.to_text())
        }
        None => handle_single_scan(ctx, &handle, &scan.columns, decoded),
    };
    if status == 200 {
        ctx.stats.latency.record(start.elapsed());
        if scan.learn {
            tap_for_learning(ctx, scan.columns);
        }
    }
    (status, body)
}

/// The single-model path of `POST /v1/scan`: one engine call on this
/// worker through the server's [`CachePool`], then the response text.
/// `decoded` is the request's decode time; on success the three phases
/// are added to the stats.
fn handle_single_scan(
    ctx: &WorkerCtx,
    handle: &ModelHandle,
    columns: &[Column],
    decoded: Duration,
) -> (u16, String) {
    // adt-allow(determinism): wall-clock feeds the phase counters only, never scan results
    let scan_start = Instant::now();
    let result = ScanEngine::new(Arc::clone(&handle.model))
        .with_threads(ctx.engine_threads)
        .with_cache_pool(Arc::clone(&ctx.cache_pool))
        .scan_columns(columns);
    ctx.stats.batches.fetch_add(1, Ordering::Relaxed);
    let report = match result {
        Ok(r) => r,
        Err(e) => return error(500, &format!("scan failed: {e}")),
    };
    let scanned = scan_start.elapsed();
    // adt-allow(determinism): wall-clock feeds the phase counters only, never scan results
    let encode_start = Instant::now();
    let body = protocol::scan_response_to_json(
        &handle.name,
        handle.generation,
        &report.findings,
        &report.columns,
    )
    .to_text();
    let encoded = encode_start.elapsed();

    let stats = &ctx.stats;
    stats.record_scan(&handle.name, report.findings.len(), &report.columns);
    let add = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
    add(&stats.npmi_probes, report.stats.npmi_probes);
    add(&stats.npmi_memo_hits, report.stats.npmi_memo_hits);
    add(
        &stats.kernel_group_columns,
        report.stats.kernel_choices.group,
    );
    add(
        &stats.kernel_direct_columns,
        report.stats.kernel_choices.direct,
    );
    add(&stats.scan_decode_nanos, nanos(decoded));
    add(&stats.scan_engine_nanos, nanos(scanned));
    add(&stats.scan_encode_nanos, nanos(encoded));
    (200, body)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The opt-in learn tap of a scan: hands the scanned columns to the
/// learner. Best-effort — a full queue sheds them (counted) rather than
/// failing or slowing the scan.
fn tap_for_learning(ctx: &WorkerCtx, columns: Vec<Column>) {
    let Some(tx) = &ctx.learn_tx else {
        return;
    };
    let tapped = columns.len() as u64;
    let counter = match tx.try_send(columns) {
        Ok(()) => &ctx.stats.learn_ingested_columns,
        Err(_) => &ctx.stats.learn_dropped_columns,
    };
    counter.fetch_add(tapped, Ordering::Relaxed);
}

/// `POST /v1/learn`: queue uploaded columns for the background learner.
/// `202` with the accepted count on success; `503` when the bounded
/// ingest queue is full (backpressure, mirroring the accept queue);
/// `409` when the server runs without a learn loop.
fn handle_learn(ctx: &WorkerCtx, req: &Request) -> (u16, Json) {
    let Some(tx) = &ctx.learn_tx else {
        return (
            409,
            protocol::error_to_json(
                "online learning is disabled; start the server with learning enabled \
                 (autodetect serve --learn)",
            ),
        );
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return (400, protocol::error_to_json("body is not UTF-8")),
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, protocol::error_to_json(&format!("invalid JSON: {e}"))),
    };
    let columns = match protocol::parse_learn_request(value) {
        Ok(c) => c,
        Err(e) => return (400, protocol::error_to_json(&e.to_string())),
    };
    if columns.is_empty() {
        return (
            400,
            protocol::error_to_json("\"columns\" must name at least one column"),
        );
    }
    let accepted = columns.len() as u64;
    match tx.try_send(columns) {
        Ok(()) => {
            ctx.stats.learn_requests.fetch_add(1, Ordering::Relaxed);
            ctx.stats
                .learn_ingested_columns
                .fetch_add(accepted, Ordering::Relaxed);
            (202, protocol::learn_response_to_json(accepted))
        }
        Err(TrySendError::Full(_)) => {
            ctx.stats
                .learn_dropped_columns
                .fetch_add(accepted, Ordering::Relaxed);
            (
                503,
                protocol::error_to_json("learn queue is full, try again"),
            )
        }
        Err(TrySendError::Disconnected(_)) => (500, protocol::error_to_json("learner stopped")),
    }
}

/// The ensemble path of `POST /v1/scan`: builds the requested detector
/// set around the resolved model, runs the [`EnsembleEngine`] on this
/// worker (member detectors are constructed per request and share no
/// cache pool, so it does not use the server's), and encodes merged
/// predictions with the per-detector lanes. A request
/// [`parse_ensemble`] rejects is a 400 carrying the offending
/// input.
fn handle_ensemble_scan(
    ctx: &WorkerCtx,
    handle: &ModelHandle,
    detectors: &[String],
    merge: Option<&str>,
    columns: &[Column],
) -> (u16, Json) {
    // The Config error text names the offender and the valid choices —
    // exactly what a 400 should carry.
    let (ids, merge) = match parse_ensemble(detectors, merge) {
        Ok(parsed) => parsed,
        Err(e) => return (400, protocol::error_to_json(&e.to_string())),
    };
    let members = ids.iter().map(|id| id.build(&handle.model)).collect();
    let merge_label = merge.label();
    let engine = EnsembleEngine::new(members)
        .with_merge(merge)
        .with_threads(ctx.engine_threads);
    let report = match engine.run(columns) {
        Ok(r) => r,
        Err(e) => {
            return (
                500,
                protocol::error_to_json(&format!("ensemble scan failed: {e}")),
            )
        }
    };

    let mut findings: Vec<TableFinding> = Vec::new();
    let mut summaries: Vec<ColumnSummary> = Vec::with_capacity(columns.len());
    for (i, (col, preds)) in columns.iter().zip(&report.predictions).enumerate() {
        summaries.push(ColumnSummary {
            index: i,
            header: col.header.clone(),
            values_scored: adt_core::api::value_counts(col).len() as u64,
            num_findings: preds.len(),
        });
        for p in preds {
            findings.push(TableFinding {
                column_index: i,
                column_header: col.header.clone(),
                finding: ColumnFinding {
                    suspect: p.value.clone(),
                    // Rank-pooled confidences have no single witnessing
                    // pair or NPMI score; the wire shape documents this.
                    witness: String::new(),
                    confidence: p.confidence,
                    score: 0.0,
                },
            });
        }
    }
    // Same global order the single-model engine reports.
    rank_table_findings(&mut findings);

    ctx.stats
        .record_scan(&handle.name, findings.len(), &summaries);
    ctx.stats.ensemble_scans.fetch_add(1, Ordering::Relaxed);
    ctx.stats.record_detector_lanes(&report.lanes);
    (
        200,
        protocol::scan_response_to_json_full(
            &handle.name,
            handle.generation,
            &findings,
            &summaries,
            Some((&merge_label, &report.lanes)),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_engine_threads_share_the_cores_among_workers() {
        // An explicit count is taken as given.
        assert_eq!(engine_threads_per_scan(3, 4, 64), 3);
        // `0` splits the cores evenly over the workers that may all
        // scan at once, rounding down but never below one.
        assert_eq!(engine_threads_per_scan(0, 2, 2), 1);
        assert_eq!(engine_threads_per_scan(0, 4, 64), 16);
        assert_eq!(engine_threads_per_scan(0, 3, 8), 2);
        assert_eq!(engine_threads_per_scan(0, 8, 2), 1);
        assert_eq!(engine_threads_per_scan(0, 1, 8), 8);
        assert_eq!(engine_threads_per_scan(0, 0, 8), 8);
    }
}
