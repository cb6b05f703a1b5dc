//! Runtime telemetry for the lockbind serve daemon.
//!
//! This crate is the **non-deterministic sibling** of `lockbind-obs`.
//! The `obs` registry records deterministic work counts — its snapshot
//! feeds `MetricsSnapshot::render_deterministic` and the committed
//! goldens, so nothing wall-clock flavored may ever enter it. Everything
//! this crate measures is wall-clock flavored by construction: latency
//! quantiles, queue wait, SLO burn rates, flight-recorder timelines.
//! Latency is recorded into the same `obs::Histogram` type the registry
//! uses (one bucket layout everywhere), but into unregistered instances
//! owned here, so it never reaches the registry.
//! The two layers meet only at the exposition endpoint
//! ([`expo::render_prometheus`]), which renders obs counters and
//! telemetry series side by side into one scrape document.
//!
//! Layout:
//!
//! - [`WindowedHistogram`] — a ring of epoch `obs::Histogram`s for
//!   windowed latency quantiles (p50/p90/p99/p999);
//! - [`slo`] — per-tenant SLO trackers: latency objective + error/shed
//!   budget, burn rate over a short and a long window;
//! - [`recorder`] — the flight recorder: a bounded ring of structured
//!   request-path events dumped as JSONL on anomaly or `SIGUSR1`;
//! - [`expo`] — Prometheus-style text exposition (`# HELP`/`# TYPE`).
//!
//! [`Telemetry`] ties them together: the serve request path calls
//! `on_admit` / `on_shed` / `on_response` / [`Telemetry::event`], a
//! rotator thread calls [`Telemetry::rotate`] each epoch, and readers
//! take a [`TelemetrySnapshot`] — the payload behind the `introspect`
//! wire kind, the `--telemetry-addr` scrape endpoint, and the
//! `serve.telemetry` member of the daemon's `stats` response.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod recorder;
pub mod slo;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use lockbind_obs::{Histogram, HistogramSnapshot, Json};

use recorder::{DumpTrigger, FlightKind, FlightRecorder};
use slo::{SloOutcome, SloSnapshot, SloTracker};

/// Tuning for one [`Telemetry`] instance.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Epoch slots per window ring (windowed quantiles and burn rates
    /// cover `epoch_slots × epoch_ms` of traffic).
    pub epoch_slots: usize,
    /// Epochs in the short SLO window.
    pub short_epochs: usize,
    /// Rotation cadence in milliseconds — informational here (the
    /// caller drives [`Telemetry::rotate`]); reported in snapshots so
    /// readers can turn windowed counts into rates.
    pub epoch_ms: u64,
    /// Good-request target fraction for every tenant's SLO.
    pub slo_target: f64,
    /// Latency objective in microseconds; slower completions count
    /// against the SLO budget even when they succeed.
    pub slo_latency_us: u64,
    /// Both SLO windows must burn at least this fast to trigger an
    /// anomaly dump.
    pub slo_burn_threshold: f64,
    /// Shed fraction (of arriving requests, both windows) that counts
    /// as a shed spike.
    pub shed_spike_fraction: f64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epoch_slots: 12,
            short_epochs: 2,
            epoch_ms: 1000,
            slo_target: 0.99,
            slo_latency_us: 250_000,
            slo_burn_threshold: 2.0,
            shed_spike_fraction: 0.2,
            flight_capacity: 512,
        }
    }
}

/// A small ring of per-epoch counters (windowed request/shed rates).
#[derive(Debug)]
struct WindowedCounter {
    epochs: Vec<AtomicU64>,
    current: AtomicUsize,
}

impl WindowedCounter {
    fn new(slots: usize) -> Self {
        WindowedCounter {
            epochs: (0..slots.max(1)).map(|_| AtomicU64::new(0)).collect(),
            current: AtomicUsize::new(0),
        }
    }

    fn add(&self, n: u64) {
        let cur = self.current.load(Ordering::Relaxed) % self.epochs.len();
        self.epochs[cur].fetch_add(n, Ordering::Relaxed);
    }

    fn rotate(&self) {
        let next = (self.current.load(Ordering::Relaxed) + 1) % self.epochs.len();
        self.epochs[next].store(0, Ordering::Relaxed);
        self.current.store(next, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.epochs.iter().map(|e| e.load(Ordering::Relaxed)).sum()
    }
}

/// A ring of epoch histograms: records go to the current epoch, reads
/// merge the whole ring, [`rotate`](Self::rotate) expires the oldest.
///
/// A snapshot (the sum of all slots) always covers the last
/// `slots × epoch-length` of traffic, and old observations fall out whole
/// epochs at a time. A record racing a rotation may land in the slot
/// being cleared and be lost; telemetry tolerates that one-in-an-epoch
/// blip in exchange for staying lock-free.
#[derive(Debug)]
pub struct WindowedHistogram {
    epochs: Vec<Histogram>,
    current: AtomicUsize,
}

impl WindowedHistogram {
    /// A window of `slots` epochs (at least 1).
    pub fn new(slots: usize) -> Self {
        WindowedHistogram {
            epochs: (0..slots.max(1)).map(|_| Histogram::new()).collect(),
            current: AtomicUsize::new(0),
        }
    }

    /// Records one observation into the current epoch.
    pub fn record(&self, v: u64) {
        let cur = self.current.load(Ordering::Relaxed) % self.epochs.len();
        self.epochs[cur].record(v);
    }

    /// Advances the epoch cursor, clearing the slot it lands on (which
    /// held the oldest epoch). Call on a fixed cadence from one thread.
    pub fn rotate(&self) {
        let next = (self.current.load(Ordering::Relaxed) + 1) % self.epochs.len();
        self.epochs[next].clear();
        self.current.store(next, Ordering::Relaxed);
    }

    /// The merged histogram over the whole window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for epoch in &self.epochs {
            epoch.add_to(&mut acc);
        }
        acc
    }
}

/// Per-tenant runtime state.
#[derive(Debug)]
struct TenantTelemetry {
    /// Windowed latency (quantiles for `lockbind_top` / introspect).
    latency_window: WindowedHistogram,
    /// Cumulative latency (monotone — feeds Prometheus exposition).
    latency_total: Histogram,
    slo: SloTracker,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    /// Admits minus responses. The server admits a request to the workers
    /// before it calls [`Telemetry::on_admit`], so a fast worker's
    /// response can land first and drive this briefly negative; it is read
    /// as `max(0, v)`.
    inflight: AtomicI64,
    window_requests: WindowedCounter,
    window_shed: WindowedCounter,
}

impl TenantTelemetry {
    fn new(cfg: &TelemetryConfig) -> Self {
        TenantTelemetry {
            latency_window: WindowedHistogram::new(cfg.epoch_slots),
            latency_total: Histogram::new(),
            slo: SloTracker::new(
                cfg.epoch_slots,
                cfg.short_epochs,
                cfg.slo_target,
                cfg.slo_latency_us,
            ),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            window_requests: WindowedCounter::new(cfg.epoch_slots),
            window_shed: WindowedCounter::new(cfg.epoch_slots),
        }
    }

    fn rotate(&self) {
        self.latency_window.rotate();
        self.slo.rotate();
        self.window_requests.rotate();
        self.window_shed.rotate();
    }
}

/// The runtime-telemetry hub wired into the serve daemon.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    started: Instant,
    tenants: RwLock<BTreeMap<String, Arc<TenantTelemetry>>>,
    /// Global windowed latency across all tenants.
    latency_window: WindowedHistogram,
    /// Global cumulative latency (monotone, for exposition).
    latency_total: Histogram,
    /// Shed-spike detector: an SLO tracker where "bad" means shed, so
    /// `burning(1.0)` fires exactly when the windowed shed fraction
    /// exceeds [`TelemetryConfig::shed_spike_fraction`].
    shed_spike: SloTracker,
    recorder: FlightRecorder,
    /// Serializes anomaly-triggered dumps so concurrent pollers cannot
    /// interleave file writes.
    dump_gate: Mutex<()>,
    /// Flight dumps that failed to write (unwritable dir, disk full…).
    dump_failed: AtomicU64,
    /// Whether the first dump failure has been logged — later failures
    /// are only counted, so a permanently broken dir cannot flood logs.
    dump_fail_logged: AtomicBool,
}

impl Telemetry {
    /// A fresh hub with no traffic recorded.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let shed_spike = SloTracker::new(
            cfg.epoch_slots,
            cfg.short_epochs,
            1.0 - cfg.shed_spike_fraction,
            u64::MAX,
        );
        Telemetry {
            recorder: FlightRecorder::new(cfg.flight_capacity),
            latency_window: WindowedHistogram::new(cfg.epoch_slots),
            latency_total: Histogram::new(),
            shed_spike,
            tenants: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
            dump_gate: Mutex::new(()),
            dump_failed: AtomicU64::new(0),
            dump_fail_logged: AtomicBool::new(false),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// The flight recorder (for direct dump triggers).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    fn tenant(&self, name: &str) -> Arc<TenantTelemetry> {
        if let Some(t) = self.tenants.read().unwrap().get(name) {
            return Arc::clone(t);
        }
        let mut map = self.tenants.write().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(TenantTelemetry::new(&self.cfg))),
        )
    }

    /// Records a raw flight-recorder event (deadline, cancel, cache
    /// miss, coalesce, drain… — admission and shed have dedicated
    /// entry points that also update counters).
    pub fn event(&self, kind: FlightKind, request_id: u64, tenant: &str, detail: &str) {
        self.recorder.record(kind, request_id, tenant, detail);
    }

    /// A request was admitted for `tenant`.
    pub fn on_admit(&self, request_id: u64, tenant: &str) {
        let t = self.tenant(tenant);
        t.requests.fetch_add(1, Ordering::Relaxed);
        t.inflight.fetch_add(1, Ordering::Relaxed);
        t.window_requests.add(1);
        self.shed_spike.record(SloOutcome::Good);
        self.recorder
            .record(FlightKind::Admit, request_id, tenant, "");
    }

    /// A request was shed before admission.
    pub fn on_shed(&self, request_id: u64, tenant: &str, reason: &str) {
        let t = self.tenant(tenant);
        t.requests.fetch_add(1, Ordering::Relaxed);
        t.shed.fetch_add(1, Ordering::Relaxed);
        t.window_requests.add(1);
        t.window_shed.add(1);
        t.slo.record(SloOutcome::Bad);
        self.shed_spike.record(SloOutcome::Bad);
        self.recorder
            .record(FlightKind::Shed, request_id, tenant, reason);
    }

    /// An admitted request finished (any fate): `ok` is the wire-level
    /// success flag, `latency_us` admission-to-response time.
    pub fn on_response(&self, _request_id: u64, tenant: &str, ok: bool, latency_us: u64) {
        let t = self.tenant(tenant);
        if ok {
            t.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            t.errors.fetch_add(1, Ordering::Relaxed);
        }
        t.inflight.fetch_sub(1, Ordering::Relaxed);
        t.latency_window.record(latency_us);
        t.latency_total.record(latency_us);
        t.slo.record(t.slo.classify(ok, latency_us));
        self.latency_window.record(latency_us);
        self.latency_total.record(latency_us);
    }

    /// Advances every window ring by one epoch. Call on a fixed cadence
    /// (`epoch_ms`) from a single rotator thread.
    pub fn rotate(&self) {
        self.latency_window.rotate();
        self.shed_spike.rotate();
        for t in self.tenants.read().unwrap().values() {
            t.rotate();
        }
    }

    /// Writes a flight dump (if events arrived since the last one).
    pub fn dump(&self, dir: &Path, trigger: DumpTrigger) -> std::io::Result<Option<PathBuf>> {
        let _gate = self.dump_gate.lock().unwrap();
        self.recorder.dump(dir, trigger)
    }

    /// Like [`Self::dump`], but a write failure degrades instead of
    /// propagating: the first failure is logged to stderr, every failure
    /// increments the `flight.dump_failed` snapshot counter, and the
    /// recorded events stay in the ring for the next trigger. Safe to
    /// call from the rotator thread — it never panics on I/O errors.
    pub fn dump_logged(&self, dir: &Path, trigger: DumpTrigger) -> Option<PathBuf> {
        match self.dump(dir, trigger) {
            Ok(path) => path,
            Err(e) => {
                self.dump_failed.fetch_add(1, Ordering::Relaxed);
                if !self.dump_fail_logged.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "[telemetry] flight dump to {} failed: {e} \
                         (events kept in ring; further failures counted, not logged)",
                        dir.display()
                    );
                }
                None
            }
        }
    }

    /// Flight dumps that failed to write since start.
    pub fn dump_failures(&self) -> u64 {
        self.dump_failed.load(Ordering::Relaxed)
    }

    /// Checks anomaly conditions (shed spike, per-tenant SLO burn) and
    /// dumps the flight recorder for each that fires. Returns the dump
    /// paths written. Call periodically alongside [`Self::rotate`].
    pub fn poll_anomalies(&self, dir: &Path) -> Vec<PathBuf> {
        let mut written = Vec::new();
        if self.shed_spike.snapshot().burning(1.0) {
            if let Some(path) = self.dump_logged(dir, DumpTrigger::ShedSpike) {
                written.push(path);
            }
        }
        let burning = self
            .tenants
            .read()
            .unwrap()
            .values()
            .any(|t| t.slo.snapshot().burning(self.cfg.slo_burn_threshold));
        if burning {
            if let Some(path) = self.dump_logged(dir, DumpTrigger::SloBurn) {
                written.push(path);
            }
        }
        written
    }

    /// A point-in-time reading of everything the hub tracks.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let tenants = self
            .tenants
            .read()
            .unwrap()
            .iter()
            .map(|(name, t)| TenantSnapshot {
                tenant: name.clone(),
                requests: t.requests.load(Ordering::Relaxed),
                ok: t.ok.load(Ordering::Relaxed),
                errors: t.errors.load(Ordering::Relaxed),
                shed: t.shed.load(Ordering::Relaxed),
                inflight: t.inflight.load(Ordering::Relaxed).max(0) as u64,
                window_requests: t.window_requests.sum(),
                window_shed: t.window_shed.sum(),
                latency_window: t.latency_window.snapshot(),
                latency_total: t.latency_total.snapshot(),
                slo: t.slo.snapshot(),
            })
            .collect();
        TelemetrySnapshot {
            uptime_us: self.started.elapsed().as_micros() as u64,
            window_ms: self.cfg.epoch_ms * self.cfg.epoch_slots as u64,
            latency_window: self.latency_window.snapshot(),
            latency_total: self.latency_total.snapshot(),
            tenants,
            flight_recorded: self.recorder.recorded(),
            flight_dumps: self.recorder.dumps(),
            flight_dump_failed: self.dump_failed.load(Ordering::Relaxed),
            flight_capacity: self.cfg.flight_capacity as u64,
        }
    }
}

/// Quantile digest of one histogram snapshot, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Observations in the snapshot.
    pub count: u64,
    /// Mean (µs).
    pub mean_us: f64,
    /// p50 (µs, bucket upper bound).
    pub p50: u64,
    /// p90 (µs).
    pub p90: u64,
    /// p99 (µs).
    pub p99: u64,
    /// p999 (µs).
    pub p999: u64,
    /// Max (µs, bucket upper bound).
    pub max: u64,
}

impl LatencySummary {
    /// Digests a histogram snapshot.
    pub fn of(snap: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: snap.count(),
            mean_us: snap.mean(),
            p50: snap.quantile(0.50),
            p90: snap.quantile(0.90),
            p99: snap.quantile(0.99),
            p999: snap.quantile(0.999),
            max: snap.max(),
        }
    }

    /// JSON object with the standard quantile keys.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean_us", Json::from(self.mean_us)),
            ("p50", Json::from(self.p50)),
            ("p90", Json::from(self.p90)),
            ("p99", Json::from(self.p99)),
            ("p999", Json::from(self.p999)),
            ("max", Json::from(self.max)),
        ])
    }
}

/// One tenant's slice of a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Requests seen (admitted + shed), cumulative.
    pub requests: u64,
    /// Successful responses, cumulative.
    pub ok: u64,
    /// Error responses (including deadline/cancel), cumulative.
    pub errors: u64,
    /// Shed requests, cumulative.
    pub shed: u64,
    /// Currently admitted-but-unanswered requests.
    pub inflight: u64,
    /// Requests seen inside the current window.
    pub window_requests: u64,
    /// Sheds inside the current window.
    pub window_shed: u64,
    /// Windowed latency histogram (drives live quantiles).
    pub latency_window: HistogramSnapshot,
    /// Cumulative latency histogram (drives Prometheus exposition).
    pub latency_total: HistogramSnapshot,
    /// SLO state.
    pub slo: SloSnapshot,
}

impl TenantSnapshot {
    /// JSON object for introspect / the `stats` response's
    /// `serve.telemetry`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::from(self.tenant.as_str())),
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("errors", Json::from(self.errors)),
            ("shed", Json::from(self.shed)),
            ("inflight", Json::from(self.inflight)),
            ("window_requests", Json::from(self.window_requests)),
            ("window_shed", Json::from(self.window_shed)),
            (
                "latency_us",
                LatencySummary::of(&self.latency_window).to_json(),
            ),
            (
                "slo",
                Json::obj([
                    ("target", Json::from(self.slo.target)),
                    (
                        "latency_objective_us",
                        Json::from(self.slo.latency_objective_us),
                    ),
                    ("burn_short", Json::from(self.slo.burn_short)),
                    ("burn_long", Json::from(self.slo.burn_long)),
                    ("total", Json::from(self.slo.total)),
                    ("bad", Json::from(self.slo.bad)),
                ]),
            ),
        ])
    }
}

/// A point-in-time reading of a [`Telemetry`] hub.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Microseconds since the hub was created.
    pub uptime_us: u64,
    /// Length of the decay window in milliseconds.
    pub window_ms: u64,
    /// Global windowed latency.
    pub latency_window: HistogramSnapshot,
    /// Global cumulative latency (monotone).
    pub latency_total: HistogramSnapshot,
    /// Per-tenant slices, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
    /// Flight-recorder events recorded since start.
    pub flight_recorded: u64,
    /// Flight dumps written since start.
    pub flight_dumps: u64,
    /// Flight dumps that failed to write since start.
    pub flight_dump_failed: u64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: u64,
}

impl TelemetrySnapshot {
    /// The JSON document served by the `introspect` wire kind and
    /// embedded in the `stats` response as `serve.telemetry`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(1u64)),
            ("uptime_us", Json::from(self.uptime_us)),
            ("window_ms", Json::from(self.window_ms)),
            (
                "latency_us",
                LatencySummary::of(&self.latency_window).to_json(),
            ),
            (
                "latency_total_us",
                LatencySummary::of(&self.latency_total).to_json(),
            ),
            (
                "tenants",
                Json::arr(self.tenants.iter().map(TenantSnapshot::to_json)),
            ),
            (
                "flight",
                Json::obj([
                    ("recorded", Json::from(self.flight_recorded)),
                    ("dumps", Json::from(self.flight_dumps)),
                    ("dump_failed", Json::from(self.flight_dump_failed)),
                    ("capacity", Json::from(self.flight_capacity)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> TelemetryConfig {
        TelemetryConfig {
            epoch_slots: 4,
            short_epochs: 1,
            epoch_ms: 10,
            slo_target: 0.9,
            slo_latency_us: 1_000,
            slo_burn_threshold: 2.0,
            shed_spike_fraction: 0.5,
            flight_capacity: 64,
        }
    }

    #[test]
    fn request_path_updates_counters_and_quantiles() {
        let t = Telemetry::new(fast_cfg());
        for id in 0..100u64 {
            t.on_admit(id, "alpha");
            t.on_response(id, "alpha", true, 100 + id);
        }
        t.on_admit(200, "alpha");
        let snap = t.snapshot();
        assert_eq!(snap.tenants.len(), 1);
        let alpha = &snap.tenants[0];
        assert_eq!(alpha.tenant, "alpha");
        assert_eq!(alpha.requests, 101);
        assert_eq!(alpha.ok, 100);
        assert_eq!(alpha.inflight, 1);
        let lat = LatencySummary::of(&alpha.latency_window);
        assert_eq!(lat.count, 100);
        assert!(lat.p50 >= 100 && lat.p50 <= 210, "p50 {}", lat.p50);
        assert!(lat.p999 >= lat.p50);
    }

    #[test]
    fn response_before_admit_leaves_nothing_inflight() {
        // A worker may answer before the server records the admission.
        let t = Telemetry::new(fast_cfg());
        t.on_response(1, "alpha", true, 50);
        assert_eq!(t.snapshot().tenants[0].inflight, 0, "never reads negative");
        t.on_admit(1, "alpha");
        let alpha = &t.snapshot().tenants[0];
        assert_eq!((alpha.requests, alpha.ok, alpha.inflight), (1, 1, 0));
    }

    #[test]
    fn shed_spike_triggers_a_dump() {
        let dir = std::env::temp_dir().join(format!("lockbind-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::new(fast_cfg());
        for id in 0..10u64 {
            t.on_shed(id, "alpha", "queue_full");
        }
        let written = t.poll_anomalies(&dir);
        assert!(!written.is_empty(), "all-shed traffic is a spike");
        let body = std::fs::read_to_string(&written[0]).unwrap();
        assert!(body.lines().next().unwrap().contains("flight_dump"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_flight_dir_degrades_without_panicking() {
        // A path component that is a regular file is unwritable even for
        // root, unlike a chmod-based read-only directory.
        let base = std::env::temp_dir().join(format!("lockbind-telem-ro-{}", std::process::id()));
        let _ = std::fs::remove_file(&base);
        std::fs::write(&base, b"not a directory").unwrap();
        let dir = base.join("flight");
        let t = Telemetry::new(fast_cfg());
        for id in 0..10u64 {
            t.on_shed(id, "alpha", "queue_full");
        }
        // Repeated polls: no panic, nothing written, every failure counted.
        assert!(t.poll_anomalies(&dir).is_empty());
        assert!(t.poll_anomalies(&dir).is_empty());
        assert!(
            t.dump_failures() >= 2,
            "failures counted: {}",
            t.dump_failures()
        );
        let snap = t.snapshot();
        assert_eq!(snap.flight_dump_failed, t.dump_failures());
        assert_eq!(snap.flight_dumps, 0, "no dump ever written");
        assert!(snap.to_json().render().contains("\"dump_failed\":"));
        // Events survive the failed dumps: a working dir gets them all.
        let good = std::env::temp_dir().join(format!("lockbind-telem-rw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&good);
        let written = t.poll_anomalies(&good);
        assert!(!written.is_empty(), "events were kept in the ring");
        let body = std::fs::read_to_string(&written[0]).unwrap();
        assert!(body.lines().count() >= 11, "all shed events retained");
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_dir_all(&good);
    }

    #[test]
    fn healthy_traffic_triggers_nothing() {
        let dir = std::env::temp_dir().join(format!("lockbind-telem-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::new(fast_cfg());
        for id in 0..50u64 {
            t.on_admit(id, "beta");
            t.on_response(id, "beta", true, 10);
        }
        assert!(t.poll_anomalies(&dir).is_empty());
        assert!(!dir.exists(), "no dump directory created");
    }

    #[test]
    fn snapshot_json_has_documented_shape() {
        let t = Telemetry::new(fast_cfg());
        t.on_admit(1, "alpha");
        t.on_response(1, "alpha", true, 500);
        let doc = t.snapshot().to_json().render();
        for key in [
            "\"schema_version\":1",
            "\"window_ms\":40",
            "\"latency_us\"",
            "\"p999\"",
            "\"tenants\"",
            "\"slo\"",
            "\"burn_short\"",
            "\"flight\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn windowed_rotation_expires_old_epochs() {
        let w = WindowedHistogram::new(3);
        w.record(100);
        assert_eq!(w.snapshot().count(), 1);
        w.rotate();
        w.record(200);
        assert_eq!(w.snapshot().count(), 2, "window covers both epochs");
        w.rotate();
        w.rotate(); // cursor returns to (and clears) the slot holding 100
        assert_eq!(w.snapshot().count(), 1, "first epoch expired");
        w.rotate();
        assert_eq!(w.snapshot().count(), 0, "second epoch expired");
    }

    proptest::proptest! {
        #[test]
        fn windowed_merge_equals_flat_histogram(
            a in proptest::collection::vec(0u64..1_000_000, 0..100),
            b in proptest::collection::vec(0u64..1_000_000, 0..100),
        ) {
            // Recording across an epoch rotation (without expiry) yields
            // the same merged snapshot as one flat histogram.
            let w = WindowedHistogram::new(4);
            let flat = Histogram::new();
            for &v in &a {
                w.record(v);
                flat.record(v);
            }
            w.rotate();
            for &v in &b {
                w.record(v);
                flat.record(v);
            }
            proptest::prop_assert_eq!(w.snapshot(), flat.snapshot());
        }
    }

    #[test]
    fn rotation_decays_windowed_but_not_total() {
        let cfg = fast_cfg();
        let slots = cfg.epoch_slots;
        let t = Telemetry::new(cfg);
        t.on_admit(1, "alpha");
        t.on_response(1, "alpha", true, 100);
        for _ in 0..=slots {
            t.rotate();
        }
        let snap = t.snapshot();
        let alpha = &snap.tenants[0];
        assert_eq!(alpha.latency_window.count(), 0, "window decayed");
        assert_eq!(alpha.latency_total.count(), 1, "total is cumulative");
        assert_eq!(snap.latency_total.count(), 1);
    }
}
