//! Load generation: seeded heavy-tail open-loop-ish load, plus the
//! deterministic fixed replay used by CI.
//!
//! Inter-arrival gaps are Pareto(Lomax) distributed —
//! `gap = scale * (u^(-1/alpha) - 1)` — because real request traffic is
//! bursty, not Poisson: a heavy tail produces both dense bursts (which
//! exercise admission control and coalescing) and long quiet stretches
//! (which exercise idle paths), from one seeded stream. Each worker
//! thread owns one connection and one ChaCha12 RNG derived from the
//! base seed, so a load run is reproducible end-to-end.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockbind_obs::{Histogram, HistogramSnapshot, Json};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::client::{response_status, ServeClient};
use crate::proto::status;

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Total requests across all threads.
    pub requests: usize,
    /// Concurrent connections (one thread each).
    pub concurrency: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pareto shape (smaller = heavier tail). Must be > 0.
    pub alpha: f64,
    /// Pareto scale in milliseconds (the median gap is
    /// `scale * (2^(1/alpha) - 1)`).
    pub scale_ms: f64,
    /// Tenant pool size (requests rotate through `t0..t{n-1}`).
    pub tenants: usize,
    /// Per-request deadline, if any.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7641".to_string(),
            requests: 200,
            concurrency: 4,
            seed: 0x0DAC_2021,
            alpha: 1.3,
            scale_ms: 2.0,
            tenants: 3,
            deadline_ms: None,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Responses by status.
    pub ok: u64,
    /// `error` responses.
    pub error: u64,
    /// `shed` responses.
    pub shed: u64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: u64,
    /// `interrupted` responses.
    pub interrupted: u64,
    /// Per-request latencies in microseconds.
    pub latency: HistogramSnapshot,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: f64,
    /// The server's `stats` response at the end of the run, if it
    /// could be fetched.
    pub server_stats: Option<Json>,
}

impl LoadReport {
    /// The nearest-rank `q`-quantile latency in microseconds, as its
    /// bucket's upper bound (at most 3.1% high, never low).
    pub fn latency_us(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Completed responses per second.
    pub fn throughput_rps(&self) -> f64 {
        let completed = self.ok + self.error + self.shed + self.deadline_exceeded;
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            completed as f64 / (self.elapsed_ms / 1000.0)
        }
    }

    /// Fraction of sent requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Server-side cache hit rate over the whole run, from the final
    /// `stats` response (0 when unavailable).
    pub fn cache_hit_rate(&self) -> f64 {
        let Some(stats) = &self.server_stats else {
            return 0.0;
        };
        let cache = &stats["result"]["cache"];
        let hits = cache["hits"].as_u64().unwrap_or(0) as f64;
        let misses = cache["misses"].as_u64().unwrap_or(0) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    /// Serializes the report as the committed benchmark JSON.
    ///
    /// Schema v2 adds `latency_us.p999` (heavy-tail load makes the
    /// extreme tail the interesting number) alongside the existing
    /// `max`.
    pub fn to_json(&self, cfg: &LoadConfig) -> Json {
        Json::obj([
            ("schema_version", Json::from(2u64)),
            ("requests", Json::from(cfg.requests)),
            ("concurrency", Json::from(cfg.concurrency)),
            ("tenants", Json::from(cfg.tenants)),
            ("alpha", Json::from(cfg.alpha)),
            ("scale_ms", Json::from(cfg.scale_ms)),
            ("seed", Json::from(cfg.seed)),
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok)),
            ("error", Json::from(self.error)),
            ("shed", Json::from(self.shed)),
            ("deadline_exceeded", Json::from(self.deadline_exceeded)),
            ("interrupted", Json::from(self.interrupted)),
            ("elapsed_ms", Json::from(self.elapsed_ms)),
            ("throughput_rps", Json::from(self.throughput_rps())),
            (
                "latency_us",
                Json::obj([
                    ("p50", Json::from(self.latency_us(0.50))),
                    ("p90", Json::from(self.latency_us(0.90))),
                    ("p99", Json::from(self.latency_us(0.99))),
                    ("p999", Json::from(self.latency_us(0.999))),
                    ("max", Json::from(self.latency_us(1.0))),
                ]),
            ),
            ("shed_rate", Json::from(self.shed_rate())),
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
        ])
    }
}

/// A Pareto(Lomax) gap in milliseconds from one RNG draw.
fn pareto_gap_ms(rng: &mut ChaCha12Rng, alpha: f64, scale_ms: f64) -> f64 {
    // 53-bit uniform in [0, 1); floored away from 0 so the tail stays
    // finite.
    let u = ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    scale_ms * (u.powf(-1.0 / alpha) - 1.0)
}

/// The request-template pool: a small set of cheap work requests, so a
/// heavy-tail burst frequently repeats a template and the coalescing
/// path actually fires under load.
fn template(rng: &mut ChaCha12Rng, id: u64, tenant: &str, deadline_ms: Option<u64>) -> Json {
    let kernels = ["fir", "dct", "fft", "motion2"];
    let kernel = kernels[(rng.next_u64() % kernels.len() as u64) as usize];
    let pick = rng.next_u64() % 10;
    let (kind, params) = match pick {
        // 50%: binding requests over a small kernel pool.
        0..=4 => (
            "bind",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
                ("locked_fus", Json::from(1u64)),
                ("locked_inputs", Json::from(2u64)),
                ("num_candidates", Json::from(8u64)),
            ],
        ),
        // 20%: co-design searches.
        5 | 6 => (
            "codesign",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
                ("locked_fus", Json::from(1u64)),
                ("inputs_per_fu", Json::from(2u64)),
            ],
        ),
        // 10%: error-rate cells (heaviest template).
        7 => (
            "error_rate",
            vec![
                ("kernel", Json::from("fir")),
                ("frames", Json::from(40u64)),
                ("locked_fus", Json::from(1u64)),
                ("locked_inputs", Json::from(1u64)),
                ("num_candidates", Json::from(6u64)),
                ("max_assignments", Json::from(200u64)),
                ("optimal_budget", Json::from(2000u64)),
            ],
        ),
        // 10%: locked-datapath simulation.
        8 => (
            "locked_sim",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
            ],
        ),
        // 10%: SAT attacks on a 3-bit locked adder.
        _ => (
            "sat_attack",
            vec![("scheme", Json::from("rll")), ("width", Json::from(3u64))],
        ),
    };
    let mut fields = vec![
        ("id", Json::from(id)),
        ("kind", Json::from(kind)),
        ("tenant", Json::from(tenant)),
    ];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms", Json::from(ms)));
    }
    fields.push(("params", Json::obj(params)));
    Json::obj(fields)
}

#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    error: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    interrupted: AtomicU64,
}

/// Runs a seeded heavy-tail load against `cfg.addr`.
///
/// # Errors
/// Fails if the initial connections cannot be established; per-request
/// failures after that are tolerated (counted as lost, not retried).
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let next_id = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Tally::default());
    let latency = Histogram::new();
    let started = Instant::now();
    let mut threads = Vec::new();
    for thread_idx in 0..cfg.concurrency.max(1) {
        let cfg = cfg.clone();
        let next_id = Arc::clone(&next_id);
        let tally = Arc::clone(&tally);
        let latency = latency.clone();
        threads.push(std::thread::spawn(move || -> io::Result<()> {
            let mut client = ServeClient::connect(&cfg.addr)?;
            let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed.wrapping_add(thread_idx as u64));
            loop {
                let ticket = next_id.fetch_add(1, Ordering::Relaxed);
                if ticket >= cfg.requests {
                    return Ok(());
                }
                let gap = pareto_gap_ms(&mut rng, cfg.alpha, cfg.scale_ms);
                std::thread::sleep(Duration::from_micros((gap * 1000.0) as u64));
                let tenant = format!("t{}", ticket % cfg.tenants.max(1));
                let request = template(&mut rng, ticket as u64 + 1, &tenant, cfg.deadline_ms);
                tally.sent.fetch_add(1, Ordering::Relaxed);
                let sent_at = Instant::now();
                let outcome = match client.call(&request) {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        // Lost response (e.g. server closed the stream);
                        // reconnect and move on.
                        client = ServeClient::connect(&cfg.addr)?;
                        continue;
                    }
                };
                let micros = sent_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                latency.record(micros);
                let counter = match response_status(&outcome.response) {
                    status::OK => &tally.ok,
                    status::SHED => &tally.shed,
                    status::DEADLINE_EXCEEDED => &tally.deadline_exceeded,
                    status::INTERRUPTED => &tally.interrupted,
                    _ => &tally.error,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    let mut first_failure = None;
    for thread in threads {
        if let Err(e) = thread.join().expect("load thread panicked") {
            first_failure.get_or_insert(e);
        }
    }
    if let Some(e) = first_failure {
        return Err(e);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    let server_stats = ServeClient::connect(&cfg.addr).ok().and_then(|mut client| {
        let request = Json::obj([
            ("id", Json::from(999_999u64)),
            ("kind", Json::from("stats")),
        ]);
        client.call(&request).ok().map(|outcome| outcome.response)
    });

    Ok(LoadReport {
        sent: tally.sent.load(Ordering::Relaxed),
        ok: tally.ok.load(Ordering::Relaxed),
        error: tally.error.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        deadline_exceeded: tally.deadline_exceeded.load(Ordering::Relaxed),
        interrupted: tally.interrupted.load(Ordering::Relaxed),
        latency: latency.snapshot(),
        elapsed_ms,
        server_stats,
    })
}

/// Fetches one Prometheus exposition document from the daemon's
/// `--telemetry-addr` endpoint (one-shot HTTP/1.0 GET; used by the CI
/// scrape-validation job and `lockbind_loadgen --scrape`).
///
/// # Errors
/// Propagates I/O failures; a non-200 status line is an error too.
pub fn scrape(addr: &str) -> io::Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "scrape response has no header/body split",
        )
    })?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape failed: {status_line}"),
        ));
    }
    Ok(body.to_string())
}

/// The deterministic probe list replayed by `--fixed` (and CI): raw
/// request payloads covering the happy path, every validation error
/// class, and the coalescing byte-identity pair. Responses to these are
/// byte-stable across runs and machines.
pub const FIXED_PROBES: [&str; 13] = [
    r#"{"id":1,"kind":"ping"}"#,
    r#"{"id":2,"kind":"#,
    r#"{"id":3,"kind":"teleport"}"#,
    r#"{"id":4,"kind":"ping","bogus":true}"#,
    r#"{"id":5,"kind":"bind","params":{"kernel":"fir","frames":1e999}}"#,
    r#"{"id":6,"kind":"bind","params":{"kernel":"fir","frames":60,"locked_fus":1,"locked_inputs":2,"num_candidates":8}}"#,
    r#"{"id":6,"kind":"bind","params":{"kernel":"fir","frames":60,"locked_fus":1,"locked_inputs":2,"num_candidates":8}}"#,
    r#"{"id":8,"kind":"bind","params":{"kernel":"nope"}}"#,
    r#"{"id":9,"kind":"codesign","params":{"kernel":"fir","frames":60,"locked_fus":1,"inputs_per_fu":2}}"#,
    r#"{"id":10,"kind":"error_rate","params":{"kernel":"fir","frames":40,"locked_fus":1,"locked_inputs":1,"num_candidates":6,"max_assignments":200,"optimal_budget":2000}}"#,
    r#"{"id":11,"kind":"locked_sim","params":{"kernel":"fir","frames":60}}"#,
    r#"{"id":12,"kind":"sat_attack","params":{"scheme":"rll","width":3}}"#,
    r#"{"id":13,"kind":"cancel","params":{"target_id":999}}"#,
];

/// Replays [`FIXED_PROBES`] strictly serially, then sends an oversize
/// frame declaration on a fresh connection. Returns one response line
/// per probe (exact bytes as received).
///
/// # Errors
/// Propagates connection failures — the replay is all-or-nothing.
pub fn run_fixed(addr: &str) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    let mut client = ServeClient::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(120)))?;
    for probe in FIXED_PROBES {
        client.send_raw(probe.as_bytes())?;
        let (_, raw) = client.read_event()?;
        lines.push(String::from_utf8_lossy(&raw).into_owned());
    }
    // The oversize probe desynchronizes the stream, so it runs last on
    // its own connection; the server answers from the length prefix
    // alone and closes.
    let mut probe_client = ServeClient::connect(addr)?;
    probe_client.set_read_timeout(Some(Duration::from_secs(30)))?;
    probe_client.send_oversize_declaration(u32::MAX)?;
    let (_, raw) = probe_client.read_event()?;
    lines.push(String::from_utf8_lossy(&raw).into_owned());
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_gaps_are_seeded_and_heavy_tailed() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let gaps: Vec<f64> = (0..4096)
            .map(|_| pareto_gap_ms(&mut rng, 1.3, 2.0))
            .collect();
        let mut rng2 = ChaCha12Rng::seed_from_u64(7);
        let again: Vec<f64> = (0..4096)
            .map(|_| pareto_gap_ms(&mut rng2, 1.3, 2.0))
            .collect();
        assert_eq!(gaps, again, "same seed, same gap sequence");
        assert!(gaps.iter().all(|g| *g >= 0.0));
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0_f64, f64::max);
        // Heavy tail: the maximum dwarfs the mean (Lomax with alpha 1.3
        // has infinite variance).
        assert!(
            max > mean * 10.0,
            "expected a heavy tail, got mean {mean:.3} max {max:.3}"
        );
    }

    #[test]
    fn templates_are_valid_requests() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        for id in 0..64 {
            let doc = template(&mut rng, id, "t0", Some(2000));
            let text = doc.render();
            let parsed = lockbind_obs::json::parse(text.as_bytes()).expect("template parses");
            crate::proto::decode_request(&parsed, false).expect("template validates");
        }
    }

    #[test]
    fn fixed_probes_cover_every_validation_class() {
        // Parse-level failures (bad JSON, non-finite) stay invalid;
        // everything else must decode or fail in the envelope validator,
        // never at the JSON layer.
        let mut parse_failures = 0;
        for probe in FIXED_PROBES {
            if lockbind_obs::json::parse(probe.as_bytes()).is_err() {
                parse_failures += 1;
            }
        }
        assert_eq!(parse_failures, 2, "the bad-JSON and non-finite probes");
    }
}
