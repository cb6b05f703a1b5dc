//! The daemon: accept loop, connection readers, worker pool, admission,
//! coalescing, and graceful drain.
//!
//! # Thread structure
//!
//! * one **accept** thread (non-blocking accept + drain poll);
//! * one **reader** thread per connection: reads frames, answers admin
//!   kinds inline, validates work requests, and admits them;
//! * `workers` **worker** threads: pull admitted requests (tenant-fair),
//!   execute them on the shared engine, and write responses.
//!
//! A connection's [`Responder`] (a mutex around the write half) is
//! shared by its reader, the workers, and the progress router, so
//! frames from concurrent requests interleave *between* frames, never
//! inside one.
//!
//! # Coalescing
//!
//! Cacheable work routes through the engine's content-keyed,
//! single-flight [`ArtifactCache`] under the key
//! [`Work::cache_key`]: concurrent identical requests — same or
//! different tenants and connections — build the artifact once and all
//! read the same [`WorkBody`], making their `result` objects
//! byte-identical. Outcomes that reflect *this request's* fate rather
//! than the work's value (deadline expiry, explicit cancel) must not be
//! served to others: the build returns them as `Err` from
//! [`ArtifactCache::get_or_try_insert_with`], which stores nothing and
//! makes waiters retry under their own tokens — exactly the semantics
//! wanted.
//!
//! [`ArtifactCache`]: lockbind_engine::ArtifactCache
//! [`ArtifactCache::get_or_try_insert_with`]: lockbind_engine::ArtifactCache::get_or_try_insert_with

use std::collections::HashMap;
use std::io;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lockbind_durable::{SegmentStore, StoreConfig};
use lockbind_engine::{fnv1a, CellResult, Engine, EngineConfig};
use lockbind_obs::Json;
use lockbind_resil::{CancelReason, CancelToken};
use lockbind_telemetry::recorder::{DumpTrigger, FlightKind};
use lockbind_telemetry::{expo, Telemetry, TelemetryConfig};

use crate::admission::{AdmissionQueue, ShedReason};
use crate::jobs::ServeJob;
use crate::progress::{next_request_seq, ProgressRouter};
use crate::proto::{
    code, decode_request, extract_id, progress_event, response_error, response_ok, status,
    RequestKind, Work,
};
use crate::wire::{read_frame, write_frame, FrameRead, DEFAULT_MAX_FRAME};

/// Server configuration (defaults match the daemon's CLI defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads executing admitted work.
    pub workers: usize,
    /// Global admission bound (queued, not yet started).
    pub max_depth: usize,
    /// Per-tenant admission bound.
    pub max_per_tenant: usize,
    /// Frame payload cap in bytes.
    pub max_frame: usize,
    /// Deadline applied to requests that specify none (`None` = no
    /// default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Enables debug request kinds (`sleep`).
    pub debug_kinds: bool,
    /// Optional second bind address serving Prometheus-style text
    /// exposition over one-shot HTTP (`None` = no scrape endpoint).
    pub telemetry_addr: Option<String>,
    /// Per-tenant SLO latency objective (admission to response), ms.
    pub slo_latency_ms: u64,
    /// Per-tenant SLO success-fraction target in `(0, 1)`.
    pub slo_target: f64,
    /// Telemetry window-rotation cadence, ms.
    pub epoch_ms: u64,
    /// Directory for flight-recorder dumps (`None` = dumps disabled;
    /// anomaly detection still runs but writes nothing).
    pub flight_dir: Option<PathBuf>,
    /// Directory for the durable response cache (`None` = in-memory
    /// only). Warm restarts serve previously computed responses from
    /// here, byte-identical, after a CRC check on every read.
    pub cache_dir: Option<PathBuf>,
    /// Cap on concurrent connections (0 = unlimited). A connection over
    /// the cap gets one `shed`/`connection_limit` response and is
    /// closed — admission never sees it.
    pub connection_limit: usize,
    /// Wall-clock budget to receive one whole frame, measured from its
    /// first byte (`None` = unbounded). Idle connections are unaffected;
    /// a peer that trickles a frame slower than this is disconnected.
    pub frame_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_depth: 64,
            max_per_tenant: 16,
            max_frame: DEFAULT_MAX_FRAME,
            default_deadline_ms: None,
            debug_kinds: false,
            telemetry_addr: None,
            slo_latency_ms: 250,
            slo_target: 0.99,
            epoch_ms: 1000,
            flight_dir: None,
            cache_dir: None,
            connection_limit: 0,
            frame_timeout_ms: None,
        }
    }
}

/// Cached outcome of one unit of work — the part of a response shared
/// by every coalesced request.
#[derive(Debug, Clone)]
pub enum WorkBody {
    /// The work succeeded; `result` object.
    Ok(Json),
    /// The work failed deterministically (also cached: retrying an
    /// impossible request gives the same answer).
    Err(String),
}

/// Write half of a connection; a mutex serializes whole frames.
pub struct Responder {
    stream: Mutex<TcpStream>,
}

impl Responder {
    fn new(stream: TcpStream) -> Self {
        Responder {
            stream: Mutex::new(stream),
        }
    }

    /// Writes one response frame, counting it first under
    /// `serve.<status>`: the wire statuses are the counter suffixes. Every
    /// response the daemon sends passes through here, once.
    fn send(&self, response: &Json) {
        let status = crate::client::response_status(response);
        lockbind_obs::Registry::global()
            .counter(&format!("serve.{status}"))
            .inc();
        self.write(response);
    }

    /// Renders and writes one frame, uncounted (progress frames come here
    /// directly); errors are swallowed (the client may have gone away —
    /// its work still completes for drain accounting).
    fn write(&self, doc: &Json) {
        let payload = doc.render();
        let mut stream = self.stream.lock().expect("responder poisoned");
        let _ = write_frame(&mut *stream, payload.as_bytes());
    }
}

/// One admitted work request, queued for a worker.
struct QueuedRequest {
    id: u64,
    tenant: String,
    progress: bool,
    work: Work,
    /// Unique cell id tagging this request's spans.
    seq: u64,
    /// When admission accepted the request; SLO latency is measured
    /// from here (queue wait counts against the objective).
    admitted_at: Instant,
    cancel: CancelToken,
    responder: Arc<Responder>,
}

struct Shared {
    cfg: ServerConfig,
    engine: Engine,
    /// Wall-clock telemetry hub: latency windows, SLO trackers, flight
    /// recorder. Strictly additive — nothing here feeds the obs
    /// registry's deterministic counters.
    telemetry: Arc<Telemetry>,
    admission: AdmissionQueue<QueuedRequest>,
    /// Cancel tokens of admitted, unfinished requests, keyed by
    /// `(tenant, id)` so tenants can only cancel their own work. Every
    /// request that reuses an id keeps its own token here until it
    /// finishes or is shed; a `cancel` fires them all.
    inflight: Mutex<HashMap<(String, u64), Vec<CancelToken>>>,
    /// Phase 1 of shutdown: stop accepting connections; admission is
    /// closed separately. Readers keep serving (shedding new work with
    /// `draining`) so clients learn to back off.
    draining: AtomicBool,
    /// Phase 2 of shutdown, raised once every admitted request has
    /// completed: readers exit at their next poll.
    shutdown: AtomicBool,
    /// The durable response cache (`--cache-dir`), when configured. The
    /// mutex is held only across one `get` or one `append`.
    durable: Option<Mutex<SegmentStore>>,
    /// Live connections (reader threads), for the connection cap.
    conns: AtomicUsize,
    /// Whether a durable persist failure has been logged (log once,
    /// keep counting — the daemon serves fine without persistence).
    persist_warned: AtomicBool,
}

impl Shared {
    /// Increments the named counter. Deliberately not `obs::counter!` —
    /// that macro caches one static handle per expansion site, which
    /// would fuse every status onto whichever name arrived first here.
    fn counter(&self, name: &str) {
        lockbind_obs::Registry::global().counter(name).inc();
    }

    /// Drops one finished or shed request's token, leaving the tokens of
    /// other in-flight requests that share its id.
    fn forget_inflight(&self, tenant: &str, id: u64, token: &CancelToken) {
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        let key = (tenant.to_string(), id);
        if let Some(tokens) = inflight.get_mut(&key) {
            tokens.retain(|t| !t.same_token(token));
            if tokens.is_empty() {
                inflight.remove(&key);
            }
        }
    }
}

/// Drain outcome, printed by the daemon on shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Work requests admitted over the server's lifetime.
    pub admitted: u64,
    /// Work requests completed (any status).
    pub completed: u64,
    /// Admitted-but-never-completed requests; 0 on a graceful drain.
    pub dropped: u64,
}

/// A running server; dropping it without draining aborts nothing —
/// call [`drain_and_join`](ServerHandle::drain_and_join).
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    telemetry_addr: Option<std::net::SocketAddr>,
    accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Rotator + scrape threads; joined after shutdown is raised.
    aux: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> String {
        self.local_addr.to_string()
    }

    /// The bound scrape-endpoint address, when configured.
    pub fn telemetry_addr(&self) -> Option<String> {
        self.telemetry_addr.map(|a| a.to_string())
    }

    /// The server's telemetry hub (shared with the request path).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// What recovery found when the durable cache was opened (`None`
    /// without `--cache-dir`). One human-readable line — "fresh store",
    /// "recovery clean: …", or what was truncated/quarantined.
    pub fn durable_recovery(&self) -> Option<String> {
        self.shared
            .durable
            .as_ref()
            .map(|s| s.lock().expect("durable poisoned").recovery().summary())
    }

    /// Durable-cache hit/append counts so far (`None` without
    /// `--cache-dir`): `(persisted_hits, appends)`.
    pub fn durable_counts(&self) -> Option<(u64, u64)> {
        self.shared.durable.as_ref().map(|s| {
            let store = s.lock().expect("durable poisoned");
            let stats = store.stats();
            (stats.persisted_hits, stats.appends)
        })
    }

    /// Stops accepting connections and admitting work; in-flight and
    /// queued work keeps running, and connected clients keep getting
    /// responses (new work is shed with `draining`). Idempotent.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::Relaxed) {
            self.shared
                .telemetry
                .event(FlightKind::Drain, 0, "", "begin_drain");
            if let Some(dir) = &self.shared.cfg.flight_dir {
                let _ = self.shared.telemetry.dump_logged(dir, DumpTrigger::Drain);
            }
        }
        self.shared.admission.close();
    }

    /// Drains and joins every thread, returning the final accounting.
    /// Readers are stopped only after the last admitted request has
    /// completed and its response has been written, so a graceful drain
    /// never drops in-flight work.
    pub fn drain_and_join(mut self) -> DrainSummary {
        self.begin_drain();
        let readers = self
            .accept
            .take()
            .map(|accept| accept.join().expect("accept thread panicked"))
            .unwrap_or_default();
        // Workers exit once the closed queue is empty; joining them means
        // every admitted response has been composed *and sent*.
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        self.shared.admission.wait_idle();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader thread panicked");
        }
        for aux in self.aux.drain(..) {
            aux.join().expect("telemetry thread panicked");
        }
        let stats = self.shared.admission.stats();
        DrainSummary {
            admitted: stats.admitted,
            completed: stats.completed,
            dropped: stats.admitted - stats.completed,
        }
    }
}

/// Fingerprint binding a durable segment to the response format that
/// wrote it: FNV-1a over the crate version plus a format tag. Bumping
/// the crate (or the tag, on any change to response shape or content)
/// sets stale stores aside on open instead of replaying bytes from old
/// code.
fn response_cache_fingerprint() -> u64 {
    let tag = concat!(
        "lockbind-serve response-cache v3 ",
        env!("CARGO_PKG_VERSION")
    );
    fnv1a(tag.as_bytes())
}

/// Encodes a cacheable [`WorkBody`] for the durable store: a tag byte
/// (`O`/`E`) plus the rendered result or error message. Returns `None`
/// when the body would not replay byte-identically (the render →
/// reparse → render round trip is verified here, so nothing that could
/// drift is ever persisted).
fn encode_body(body: &WorkBody) -> Option<Vec<u8>> {
    match body {
        WorkBody::Ok(result) => {
            let rendered = result.render();
            let reparsed = lockbind_obs::json::parse(rendered.as_bytes()).ok()?;
            if reparsed.render() != rendered {
                return None;
            }
            let mut out = Vec::with_capacity(rendered.len() + 1);
            out.push(b'O');
            out.extend_from_slice(rendered.as_bytes());
            Some(out)
        }
        WorkBody::Err(message) => {
            let mut out = Vec::with_capacity(message.len() + 1);
            out.push(b'E');
            out.extend_from_slice(message.as_bytes());
            Some(out)
        }
    }
}

/// Decodes a durable record back into a [`WorkBody`]; `None` (a miss)
/// on any shape the current code does not recognise.
fn decode_body(bytes: &[u8]) -> Option<WorkBody> {
    match bytes.split_first()? {
        (b'O', rest) => Some(WorkBody::Ok(lockbind_obs::json::parse(rest).ok()?)),
        (b'E', rest) => Some(WorkBody::Err(String::from_utf8(rest.to_vec()).ok()?)),
        _ => None,
    }
}

/// Looks the work up in the durable cache. `Some` means the stored
/// record passed its CRC on read *and* decoded to a known body shape —
/// corrupt or unrecognised records read as misses, never as responses.
fn durable_lookup(shared: &Shared, work: &Work) -> Option<WorkBody> {
    let store = shared.durable.as_ref()?;
    let key = work.cache_key();
    let bytes = store
        .lock()
        .expect("durable poisoned")
        .get(key.as_bytes())?;
    let body = decode_body(&bytes)?;
    shared.counter("cache.persisted_hit");
    Some(body)
}

/// Persists a freshly built body. Failures degrade: the daemon answers
/// from memory either way, so a full disk costs persistence, not
/// service. First failure is logged, all are counted.
fn durable_persist(shared: &Shared, work: &Work, body: &WorkBody) {
    let Some(store) = shared.durable.as_ref() else {
        return;
    };
    let Some(encoded) = encode_body(body) else {
        shared.counter("cache.persist_skipped");
        return;
    };
    let key = work.cache_key();
    if let Err(e) = store
        .lock()
        .expect("durable poisoned")
        .append(key.as_bytes(), &encoded)
    {
        shared.counter("cache.persist_failed");
        if !shared.persist_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[serve] durable cache append failed: {e} \
                 (still serving from memory; further failures counted, not logged)"
            );
        }
    }
}

/// Starts a server.
///
/// # Errors
/// Propagates bind errors.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let scrape_listener = match &cfg.telemetry_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let telemetry_addr = match &scrape_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let workers = cfg.workers.max(1);
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        slo_latency_us: cfg.slo_latency_ms.saturating_mul(1000),
        slo_target: cfg.slo_target,
        epoch_ms: cfg.epoch_ms,
        ..TelemetryConfig::default()
    }));
    let durable = match &cfg.cache_dir {
        Some(dir) => {
            let (store, report) = SegmentStore::open(
                dir,
                StoreConfig {
                    fingerprint: response_cache_fingerprint(),
                    ..StoreConfig::default()
                },
            )?;
            eprintln!(
                "[serve] durable cache at {}: {}",
                dir.display(),
                report.summary()
            );
            Some(Mutex::new(store))
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        engine: Engine::new(EngineConfig::default()),
        telemetry,
        admission: AdmissionQueue::new(cfg.max_depth, cfg.max_per_tenant),
        inflight: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        durable,
        conns: AtomicUsize::new(0),
        persist_warned: AtomicBool::new(false),
        cfg,
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let worker_handles = (0..workers)
        .map(|worker_id| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, worker_id as u64))
        })
        .collect();
    let mut aux = Vec::new();
    aux.push({
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || rotator_loop(&shared))
    });
    if let Some(listener) = scrape_listener {
        let shared = Arc::clone(&shared);
        aux.push(std::thread::spawn(move || scrape_loop(&listener, &shared)));
    }

    Ok(ServerHandle {
        shared,
        local_addr,
        telemetry_addr,
        accept: Some(accept),
        workers: worker_handles,
        aux,
    })
}

/// Advances the telemetry windows every `epoch_ms` and checks anomaly
/// triggers; sleeps in short chunks so shutdown stays prompt.
fn rotator_loop(shared: &Arc<Shared>) {
    let epoch = Duration::from_millis(shared.cfg.epoch_ms.max(10));
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(10));
        if last.elapsed() >= epoch {
            last = Instant::now();
            shared.telemetry.rotate();
            if let Some(dir) = &shared.cfg.flight_dir {
                shared.telemetry.poll_anomalies(dir);
            }
        }
    }
}

/// Serves one-shot HTTP scrapes of the Prometheus exposition. The
/// parser is deliberately minimal: read until the blank line (or EOF),
/// answer, close — `GET` from curl or a scraper both work.
fn scrape_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("[serve] telemetry accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn serve_scrape(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Drain the request head; tolerate clients that skip headers.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let obs = lockbind_obs::Registry::global().snapshot();
    let body = expo::render_prometheus(&obs, &shared.telemetry.snapshot());
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut readers = Vec::new();
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return readers;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let limit = shared.cfg.connection_limit;
                if limit > 0 && shared.conns.load(Ordering::Relaxed) >= limit {
                    shed_connection(stream, shared, limit);
                    continue;
                }
                // Count before spawning so a burst of accepts cannot
                // overshoot the cap while readers are still starting.
                shared.conns.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                readers.push(std::thread::spawn(move || connection_loop(stream, &shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("[serve] accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Sheds a connection over the cap: one `shed`/`connection_limit`
/// response frame on the fresh stream, then close. No reader thread is
/// spawned, so a connection flood cannot exhaust threads.
fn shed_connection(stream: TcpStream, shared: &Arc<Shared>, limit: usize) {
    shared.counter("serve.requests");
    shared.counter("serve.connection_limit");
    shared
        .telemetry
        .event(FlightKind::Shed, 0, "", code::CONNECTION_LIMIT);
    let responder = Responder::new(stream);
    responder.send(&response_error(
        Json::Null,
        "?",
        status::SHED,
        code::CONNECTION_LIMIT,
        &format!("connection limit {limit} reached; retry with backoff"),
    ));
}

/// Decrements the live-connection count when a reader exits, on every
/// path (clean EOF, timeout, error, panic).
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _guard = ConnGuard(shared);
    let _ = stream.set_nodelay(true);
    // The read timeout is the drain-poll period: between frames the
    // reader wakes this often to check the drain flag; the same poll
    // lets the frame clock fire on a stalled sender.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let frame_timeout = shared.cfg.frame_timeout_ms.map(Duration::from_millis);
    let mut read_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("[serve] failed to clone connection: {e}");
            return;
        }
    };
    let responder = Arc::new(Responder::new(stream));
    loop {
        let frame = match read_frame(
            &mut read_half,
            shared.cfg.max_frame,
            Some(&shared.shutdown),
            frame_timeout,
        ) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof | FrameRead::Drained) => return,
            Ok(FrameRead::TimedOut) => {
                // Slowloris cutoff: the stream is mid-frame, so no
                // response can be framed — close and count it.
                shared.counter("serve.frame_timeout");
                return;
            }
            Ok(FrameRead::TooLarge { declared }) => {
                shared.counter("serve.requests");
                responder.send(&response_error(
                    Json::Null,
                    "?",
                    status::ERROR,
                    code::FRAME_TOO_LARGE,
                    &format!(
                        "frame declares {declared} bytes; this server caps frames at {} bytes \
                         (the stream is now out of sync, closing)",
                        shared.cfg.max_frame
                    ),
                ));
                // The oversize payload was never read: the stream is out
                // of sync and the only safe continuation is to close.
                return;
            }
            Err(_) => return,
        };
        shared.counter("serve.requests");
        if !handle_frame(&frame, &responder, shared) {
            return;
        }
    }
}

/// Handles one request frame; `false` closes the connection.
fn handle_frame(frame: &[u8], responder: &Arc<Responder>, shared: &Arc<Shared>) -> bool {
    let doc = match lockbind_obs::json::parse(frame) {
        Ok(doc) => doc,
        Err(e) => {
            let err_code = if e.code == "non_finite" {
                code::NON_FINITE
            } else {
                code::BAD_JSON
            };
            responder.send(&response_error(
                Json::Null,
                "?",
                status::ERROR,
                err_code,
                &e.to_string(),
            ));
            return true;
        }
    };
    let envelope = match decode_request(&doc, shared.cfg.debug_kinds) {
        Ok(envelope) => envelope,
        Err(e) => {
            responder.send(&response_error(
                extract_id(&doc),
                "?",
                status::ERROR,
                e.code,
                &e.message,
            ));
            return true;
        }
    };
    let id = envelope.id;
    match envelope.kind {
        RequestKind::Ping => {
            responder.send(&response_ok(
                Json::UInt(id),
                "ping",
                Json::obj([("pong", Json::from(true))]),
            ));
        }
        RequestKind::Stats => {
            responder.send(&response_ok(Json::UInt(id), "stats", stats_body(shared)));
        }
        RequestKind::Introspect => {
            responder.send(&response_ok(
                Json::UInt(id),
                "introspect",
                shared.telemetry.snapshot().to_json(),
            ));
        }
        RequestKind::Cancel { target_id } => {
            let found = {
                let inflight = shared.inflight.lock().expect("inflight poisoned");
                let tokens = inflight.get(&(envelope.tenant.clone(), target_id));
                tokens.into_iter().flatten().for_each(CancelToken::cancel);
                tokens.is_some()
            };
            responder.send(&response_ok(
                Json::UInt(id),
                "cancel",
                Json::obj([
                    ("target_id", Json::from(target_id)),
                    ("found", Json::from(found)),
                ]),
            ));
        }
        RequestKind::Work(work) => {
            let kind = work.kind_name();
            let deadline_ms = envelope.deadline_ms.or(shared.cfg.default_deadline_ms);
            let cancel = match deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            shared
                .inflight
                .lock()
                .expect("inflight poisoned")
                .entry((envelope.tenant.clone(), id))
                .or_default()
                .push(cancel.clone());
            let queued = QueuedRequest {
                id,
                tenant: envelope.tenant.clone(),
                progress: envelope.progress,
                work,
                seq: next_request_seq(),
                admitted_at: Instant::now(),
                cancel: cancel.clone(),
                responder: Arc::clone(responder),
            };
            match shared.admission.admit(&envelope.tenant, queued) {
                Ok(()) => shared.telemetry.on_admit(id, &envelope.tenant),
                Err(reason) => {
                    shared.forget_inflight(&envelope.tenant, id, &cancel);
                    let (err_code, message) = match reason {
                        ShedReason::QueueFull => (
                            code::QUEUE_FULL,
                            format!(
                                "queue depth {} reached; retry with backoff",
                                shared.cfg.max_depth
                            ),
                        ),
                        ShedReason::TenantLimit => (
                            code::TENANT_LIMIT,
                            format!(
                                "tenant '{}' already has {} queued request(s); retry with backoff",
                                envelope.tenant, shared.cfg.max_per_tenant
                            ),
                        ),
                        ShedReason::Draining => (
                            code::DRAINING,
                            "server is draining; no new work is admitted".to_string(),
                        ),
                    };
                    shared.telemetry.on_shed(id, &envelope.tenant, err_code);
                    responder.send(&response_error(
                        Json::UInt(id),
                        kind,
                        status::SHED,
                        err_code,
                        &message,
                    ));
                }
            }
        }
    }
    true
}

fn stats_body(shared: &Shared) -> Json {
    let queue = shared.admission.stats();
    let cache = shared.engine.cache().stats();
    let tenants: Vec<(String, Json)> = shared
        .admission
        .tenant_stats()
        .into_iter()
        .map(|(tenant, t)| {
            (
                tenant,
                Json::obj([
                    ("queued", Json::from(t.queued)),
                    ("in_flight", Json::from(t.in_flight)),
                    ("admitted", Json::from(t.admitted)),
                    ("completed", Json::from(t.completed)),
                ]),
            )
        })
        .collect();
    Json::obj([
        (
            "queue",
            Json::obj([
                ("queued", Json::from(queue.queued)),
                ("in_flight", Json::from(queue.in_flight)),
                ("admitted", Json::from(queue.admitted)),
                ("completed", Json::from(queue.completed)),
                ("max_depth", Json::from(shared.cfg.max_depth)),
                ("max_per_tenant", Json::from(shared.cfg.max_per_tenant)),
            ]),
        ),
        ("tenants", Json::Object(tenants)),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("entries", Json::from(cache.entries)),
            ]),
        ),
        ("durable", durable_body(shared)),
        ("serve", serve_body(shared)),
    ])
}

/// The `serve` member of the `stats` body: the daemon's `serve.*` request
/// counters (missing ones read as zero) and the live telemetry snapshot.
fn serve_body(shared: &Shared) -> Json {
    let obs = lockbind_obs::Registry::global().snapshot();
    let mut fields: Vec<(&str, Json)> = [
        "requests",
        "ok",
        "error",
        "shed",
        "deadline_exceeded",
        "interrupted",
        "coalesced",
    ]
    .into_iter()
    .map(|name| {
        let count = obs.counters.get(&format!("serve.{name}")).copied();
        (name, Json::from(count.unwrap_or(0)))
    })
    .collect();
    fields.push(("telemetry", shared.telemetry.snapshot().to_json()));
    Json::obj(fields)
}

/// The `durable` member of the `stats` body: store counters plus the
/// recovery line from open, or `{"enabled": false}` without a cache dir.
fn durable_body(shared: &Shared) -> Json {
    match &shared.durable {
        Some(store) => {
            let store = store.lock().expect("durable poisoned");
            let stats = store.stats();
            Json::obj([
                ("enabled", Json::from(true)),
                ("live_records", Json::from(stats.live_records)),
                ("file_bytes", Json::from(stats.file_bytes)),
                ("dead_bytes", Json::from(stats.dead_bytes)),
                ("appends", Json::from(stats.appends)),
                ("persisted_hits", Json::from(stats.persisted_hits)),
                ("misses", Json::from(stats.misses)),
                ("corrupt_reads", Json::from(stats.corrupt_reads)),
                ("compactions", Json::from(stats.compactions)),
                ("recovery", Json::from(store.recovery().summary().as_str())),
            ])
        }
        None => Json::obj([("enabled", Json::from(false))]),
    }
}

fn worker_loop(shared: &Arc<Shared>, worker_id: u64) {
    while let Some(request) = shared.admission.next() {
        // Panic isolation belongs to `Engine::run_one`; anything that
        // still unwinds out of `execute` would poison drain accounting,
        // so the guard below keeps `task_done` on every path.
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, &request, worker_id)));
        shared.forget_inflight(&request.tenant, request.id, &request.cancel);
        shared.admission.task_done(&request.tenant);
        let latency_us =
            u64::try_from(request.admitted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        match outcome {
            Ok(response) => {
                let ok = crate::client::response_status(&response) == status::OK;
                shared
                    .telemetry
                    .on_response(request.id, &request.tenant, ok, latency_us);
                request.responder.send(&response);
            }
            Err(payload) => {
                shared
                    .telemetry
                    .on_response(request.id, &request.tenant, false, latency_us);
                request.responder.send(&response_error(
                    Json::UInt(request.id),
                    request.work.kind_name(),
                    status::ERROR,
                    code::EXEC_FAILED,
                    "internal: request execution panicked outside the job body",
                ));
                drop(payload);
            }
        }
    }
}

/// Executes one admitted request and composes its response frame.
fn execute(shared: &Arc<Shared>, request: &QueuedRequest, worker_id: u64) -> Json {
    let id = request.id;
    // End-to-end request span: every engine span produced by this job
    // nests under one trace node tagged with the wire request id.
    let _span = lockbind_obs::span!(
        "serve.request",
        request_id = id,
        tenant = request.tenant.as_str(),
        kind = request.work.kind_name(),
    );
    // Requests whose fate was sealed while queued never touch the
    // engine: a deadline that expired in the queue is still a deadline,
    // and a cancel that landed first still wins.
    if request.cancel.is_cancelled() {
        return fired_response(shared, request, "expired while queued", None);
    }
    let _progress_guard = request.progress.then(|| {
        let responder = Arc::clone(&request.responder);
        ProgressRouter::global().subscribe(
            request.seq,
            Box::new(move |ordinal, span| {
                responder.write(&progress_event(id, ordinal, span.name));
            }),
        )
    });
    let job = ServeJob {
        work: request.work.clone(),
    };
    let seed = request.work.seed_from_content();
    let run = || {
        let result =
            shared
                .engine
                .run_one(&job, request.seq, worker_id, seed, request.cancel.clone());
        classify(request, result)
    };
    if !request.work.cacheable() {
        return match run() {
            Ok(body) => body_response(shared, request, &body),
            Err(message) => fired_response(shared, request, &message, Some(&message)),
        };
    }
    // Coalescing: identical work from any connection single-flights
    // through the content-keyed cache. `built` distinguishes the builder
    // from coalesced followers.
    let built = std::cell::Cell::new(false);
    let outcome = shared
        .engine
        .cache()
        .get_or_try_insert_with::<WorkBody, String, _>(request.work.cache_key(), || {
            built.set(true);
            // Warm restart: a durable record for this key replays the
            // previous run's bytes without touching the engine.
            if let Some(body) = durable_lookup(shared, &request.work) {
                return Ok(body);
            }
            let body = run()?;
            durable_persist(shared, &request.work, &body);
            Ok(body)
        });
    let body = match outcome {
        Ok(body) => body,
        Err(message) => return fired_response(shared, request, &message, Some(&message)),
    };
    let coalesced = !built.get();
    if coalesced {
        shared.counter("serve.coalesced");
    }
    shared.telemetry.event(
        if coalesced {
            FlightKind::Coalesce
        } else {
            FlightKind::CacheMiss
        },
        request.id,
        &request.tenant,
        request.work.kind_name(),
    );
    body_response(shared, request, &body)
}

/// Classifies an engine result: a body every coalesced request may
/// share, or, as `Err`, the message of a job stopped by this request's
/// own token (its deadline, or an explicit cancel).
fn classify(request: &QueuedRequest, result: CellResult<Json>) -> Result<WorkBody, String> {
    match result {
        CellResult::Ok { output, .. } => Ok(WorkBody::Ok(output)),
        CellResult::TimedOut { message, .. } => Err(message),
        CellResult::Failed { message, .. }
            if request.cancel.reason() == Some(CancelReason::Cancelled) =>
        {
            Err(message)
        }
        CellResult::Failed { message, .. } => Ok(WorkBody::Err(message)),
    }
}

/// Composes the response for a (possibly cached) work body. A follower
/// whose own token fired while it waited still reports its own fate.
fn body_response(shared: &Shared, request: &QueuedRequest, body: &WorkBody) -> Json {
    if request.cancel.is_cancelled() {
        return fired_response(shared, request, "while waiting on a coalesced build", None);
    }
    let kind = request.work.kind_name();
    match body {
        WorkBody::Ok(result) => response_ok(Json::UInt(request.id), kind, result.clone()),
        WorkBody::Err(message) => response_error(
            Json::UInt(request.id),
            kind,
            status::ERROR,
            code::EXEC_FAILED,
            message,
        ),
    }
}

/// The response for a request whose token fired. Status, code and
/// flight-event kind follow the token's reason, which never changes
/// once fired — so a job the engine classified as timed out always
/// answers `deadline_exceeded`. `detail` is the flight-event detail. The
/// message is the job's own error when the job noticed the token
/// (`job_message`); otherwise the daemon noticed it at `detail`, and the
/// message names the reason.
fn fired_response(
    shared: &Shared,
    request: &QueuedRequest,
    detail: &str,
    job_message: Option<&str>,
) -> Json {
    let (flight, status, err_code, reason) = match request.cancel.reason() {
        Some(CancelReason::DeadlineExceeded) => (
            FlightKind::Deadline,
            status::DEADLINE_EXCEEDED,
            code::DEADLINE_EXCEEDED,
            "deadline exceeded",
        ),
        _ => (
            FlightKind::Cancel,
            status::INTERRUPTED,
            code::INTERRUPTED,
            "cancelled",
        ),
    };
    shared
        .telemetry
        .event(flight, request.id, &request.tenant, detail);
    let message = match job_message {
        Some(message) => message.to_string(),
        None => format!("{reason} {detail}"),
    };
    response_error(
        Json::UInt(request.id),
        request.work.kind_name(),
        status,
        err_code,
        &message,
    )
}
