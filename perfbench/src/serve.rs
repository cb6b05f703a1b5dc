//! The daemon's layers, traced: the in-process daemon under seeded
//! open-loop load, then direct probes of each serving-path layer.
//!
//! The server runs with one worker per core and its durable response
//! cache in the run's work directory. Load is an open-loop Poisson schedule
//! at a fixed rate from one connection, one sending and one receiving
//! thread, with requests pipelined. Most requests repeat a small hot set
//! of templates (cache hits, the pure serving path); [`COLD_SHARE`] of them
//! are first-seen templates the server computes and persists (misses,
//! which run `core` and `matching` on small inputs). Hits and misses
//! interleave, so cache reads and durable writes happen side by side.
//! Every response is checked against a direct `ServeJob` run. The `grid`
//! traced run calls [`run_traced`] for its second half.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lockbind_bench::grid::{cached_class_context, cached_prepared};
use lockbind_durable::{SegmentStore, StoreConfig};
use lockbind_engine::{CellResult, Engine, EngineConfig};
use lockbind_mediabench::Kernel;
use lockbind_obs::{Json, Registry};
use lockbind_resil::CancelToken;
use lockbind_serve::client::{response_status, result_field};
use lockbind_serve::jobs::ServeJob;
use lockbind_serve::proto::{decode_request, response_ok};
use lockbind_serve::wire::DEFAULT_MAX_FRAME;
use lockbind_serve::{jsonin, start, RequestKind, ServeClient, ServerConfig, ServerHandle, Work};
use lockbind_telemetry::{Telemetry, TelemetryConfig};

use crate::common::{keep_going, median, nproc, Report, Rng, RunConfig, Samples};
use crate::grid::{registry_counts, set_registry_layers};
use crate::trace::Tracer;

/// Offered rate of the fixed phase, requests per second. The daemon
/// sustained 19–29k req/s of hot-set requests on a 2-core VM when the
/// benchmark was written; the fixed rate stays far below it because every
/// miss of the phase is also computed directly to check its response.
pub const FIXED_RPS: f64 = 1500.0;

/// Share of fixed-phase requests that carry a first-seen template.
pub const COLD_SHARE: f64 = 0.03;

/// Generated templates in the hot set (plus the eight SAT-attack ones).
const HOT_GENERATED: usize = 40;

/// Share of the run's budget spent in the fixed-rate phase.
const FIXED_SHARE: f64 = 0.4;

const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// One request template: a kind and its parameters.
#[derive(Debug, Clone)]
struct Template {
    kind: &'static str,
    params: Vec<(&'static str, Json)>,
}

impl Template {
    fn request(&self, id: u64, tenant: &str) -> Vec<u8> {
        Json::obj([
            ("id", Json::UInt(id)),
            ("kind", Json::from(self.kind)),
            ("tenant", Json::from(tenant)),
            ("params", Json::obj(self.params.clone())),
        ])
        .render()
        .into_bytes()
    }

    fn work(&self) -> Result<Work, String> {
        let doc = jsonin::parse(&self.request(0, TENANTS[0])).map_err(|e| e.to_string())?;
        match decode_request(&doc, false).map_err(|e| e.message)?.kind {
            RequestKind::Work(work) => Ok(work),
            other => Err(format!("not a work request: {other:?}")),
        }
    }
}

/// A generated engine-work template. Hot templates draw the
/// kernel-preparation seed from a handful of values; cold ones from a
/// space wide enough that each is new to the server, with longer profiles
/// and more assignments, so a miss costs several milliseconds of `core`
/// and `matching` work and misses, not host noise, set the tail.
fn generated(rng: &mut Rng, cold: bool) -> Template {
    let kernel = Kernel::ALL[rng.below(Kernel::ALL.len() as u64) as usize].name();
    let (frames, seed, assignments) = if cold {
        (
            120 + rng.below(121),
            rng.below(1 << 40),
            150 + rng.below(151),
        )
    } else {
        (20 + rng.below(41), rng.below(4), 20 + rng.below(41))
    };
    let mut params = vec![
        ("kernel", Json::from(kernel)),
        ("frames", Json::UInt(frames)),
        ("seed", Json::UInt(seed)),
    ];
    let class = if rng.below(2) == 0 {
        "adder"
    } else {
        "multiplier"
    };
    let kind = match rng.below(4) {
        0 => {
            params.push(("class", Json::from(class)));
            params.push(("locked_fus", Json::UInt(1 + rng.below(2))));
            params.push(("locked_inputs", Json::UInt(1 + rng.below(2))));
            params.push(("num_candidates", Json::UInt(4 + rng.below(5))));
            "bind"
        }
        1 => {
            params.push(("class", Json::from(class)));
            params.push(("locked_fus", Json::UInt(1 + rng.below(2))));
            params.push(("inputs_per_fu", Json::UInt(1 + rng.below(2))));
            params.push(("num_candidates", Json::UInt(4 + rng.below(5))));
            "codesign"
        }
        2 => {
            params.push(("class", Json::from(class)));
            params.push(("locked_fus", Json::UInt(1 + rng.below(2))));
            params.push(("locked_inputs", Json::UInt(1 + rng.below(2))));
            params.push(("num_candidates", Json::UInt(4 + rng.below(5))));
            params.push(("max_assignments", Json::UInt(assignments)));
            params.push(("optimal_budget", Json::UInt(200 + rng.below(1801))));
            "error_rate"
        }
        _ => "locked_sim",
    };
    Template { kind, params }
}

/// A template with its verified result: what a direct `ServeJob` run of
/// the same request returns.
struct Known {
    template: Template,
    result: Json,
}

/// Runs a template directly, as the server would, on `engine`.
fn direct(engine: &Engine, work: &Work) -> CellResult<Json> {
    let job = ServeJob { work: work.clone() };
    engine.run_one(&job, 0, 0, work.seed_from_content(), CancelToken::new())
}

/// The expected result of a request: a direct run on an engine of its
/// own, so the reference shares no cached artifact with the server and
/// keeps none in memory afterwards.
fn expected(work: &Work) -> CellResult<Json> {
    direct(&Engine::new(EngineConfig::default()), work)
}

/// Draws templates until `n` of them compute without error; a template
/// the server would answer with an error is not a valid workload input.
fn draw_known(rng: &mut Rng, n: usize, cold: bool) -> Vec<Known> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let template = generated(rng, cold);
        let Ok(work) = template.work() else { continue };
        if let CellResult::Ok { output, .. } = expected(&work) {
            out.push(Known {
                template,
                result: output,
            });
        }
    }
    out
}

/// The eight SAT-attack templates: every scheme at widths 2 and 3.
fn sat_templates() -> Result<Vec<Known>, String> {
    let mut out = Vec::new();
    for scheme in ["critical-minterm", "rll", "anti-sat", "permutation"] {
        for width in [2u64, 3] {
            let template = Template {
                kind: "sat_attack",
                params: vec![("scheme", Json::from(scheme)), ("width", Json::UInt(width))],
            };
            let work = template.work()?;
            match expected(&work) {
                CellResult::Ok { output, .. } => out.push(Known {
                    template,
                    result: output,
                }),
                other => return Err(format!("sat_attack {scheme}/{width}: {other:?}")),
            }
        }
    }
    Ok(out)
}

/// One scheduled request: when it is due, which template it carries, and
/// its wire frame.
struct Scheduled {
    due: Duration,
    known: usize,
    frame: Vec<u8>,
}

/// The run's inputs: templates with their expected results (the hot set
/// first, then the cold templates in schedule order), and the fixed-rate
/// schedule.
struct Inputs {
    known: Vec<Known>,
    hot: usize,
    fixed: Vec<Scheduled>,
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Poisson arrival offsets at `rate` per second within `length`.
fn arrivals(rng: &mut Rng, rate: f64, length: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= length.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A schedule over `picks` (template indices) at the given offsets.
fn render(rng: &mut Rng, known: &[Known], slots: &[(Duration, usize)]) -> Vec<Scheduled> {
    slots
        .iter()
        .enumerate()
        .map(|(id, &(due, k))| {
            let tenant = TENANTS[rng.below(TENANTS.len() as u64) as usize];
            Scheduled {
                due,
                known: k,
                frame: frame(&known[k].template.request(id as u64, tenant)),
            }
        })
        .collect()
}

fn build_inputs(seed: u64, fixed_len: Duration) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed, 0x5E_12E);
    let mut known = sat_templates()?;
    known.extend(draw_known(&mut rng, HOT_GENERATED, false));
    let hot = known.len();
    let mut sched_rng = Rng::new(seed, 0x5C_4ED);
    let mut next_cold = hot;
    let slots: Vec<(Duration, usize)> = arrivals(&mut sched_rng, FIXED_RPS, fixed_len)
        .into_iter()
        .map(|due| {
            if sched_rng.unit() < COLD_SHARE {
                next_cold += 1;
                (due, next_cold - 1)
            } else {
                (due, sched_rng.below(hot as u64) as usize)
            }
        })
        .collect();
    known.extend(draw_known(&mut rng, next_cold - hot, true));
    let fixed = render(&mut sched_rng, &known, &slots);
    Ok(Inputs { known, hot, fixed })
}

/// What one open-loop phase observed, by request index.
struct Phase {
    /// Response time from the due time, ms (`NaN` when unanswered).
    latency_ms: Vec<f64>,
    /// How late each request was sent, ms.
    late_ms: Vec<f64>,
    /// Response payloads.
    raw: Vec<Option<Vec<u8>>>,
    /// Most requests sent but not yet answered at any send.
    max_outstanding: usize,
    /// Wall time from the first due time to the last response.
    wall: Duration,
}

fn json_field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    match doc {
        Json::Object(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn response_id(payload: &[u8]) -> Option<u64> {
    match json_field(&jsonin::parse(payload).ok()?, "id")? {
        Json::UInt(id) => Some(*id),
        _ => None,
    }
}

/// Sends `sched` open-loop on one connection (one sending and one
/// receiving thread) and collects every response.
fn run_phase(addr: &str, sched: &[Scheduled]) -> io::Result<Phase> {
    let mut tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    let mut rx = tx.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_secs(5)))?;
    let n = sched.len();
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let (late_ms, max_outstanding, got) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut got: Vec<Option<(Instant, Vec<u8>)>> = (0..n).map(|_| None).collect();
            let mut count = 0;
            let mut header = [0u8; 4];
            while count < n {
                if rx.read_exact(&mut header).is_err() {
                    break;
                }
                let len = u32::from_be_bytes(header) as usize;
                if len > DEFAULT_MAX_FRAME {
                    break;
                }
                let mut payload = vec![0u8; len];
                if rx.read_exact(&mut payload).is_err() {
                    break;
                }
                let at = Instant::now();
                if let Some(slot) = response_id(&payload).and_then(|id| got.get_mut(id as usize)) {
                    if slot.is_none() {
                        *slot = Some((at, payload));
                        count += 1;
                        received.store(count, Ordering::Relaxed);
                    }
                }
            }
            got
        });
        let mut late_ms = Vec::with_capacity(n);
        let mut max_outstanding = 0;
        for (i, req) in sched.iter().enumerate() {
            let due = start + req.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            if tx.write_all(&req.frame).is_err() {
                break;
            }
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            max_outstanding = max_outstanding.max(i + 1 - received.load(Ordering::Relaxed));
        }
        let got = receiver.join().expect("receiver thread panicked");
        let _ = tx.shutdown(std::net::Shutdown::Both);
        (late_ms, max_outstanding, got)
    });
    let last = got
        .iter()
        .flatten()
        .map(|(at, _)| *at)
        .max()
        .unwrap_or(start);
    let mut latency_ms = Vec::with_capacity(n);
    let mut raw = Vec::with_capacity(n);
    for (req, slot) in sched.iter().zip(got) {
        match slot {
            Some((at, payload)) => {
                latency_ms.push(at.saturating_duration_since(start + req.due).as_secs_f64() * 1e3);
                raw.push(Some(payload));
            }
            None => {
                latency_ms.push(f64::NAN);
                raw.push(None);
            }
        }
    }
    Ok(Phase {
        latency_ms,
        late_ms,
        raw,
        max_outstanding,
        wall: last.saturating_duration_since(start),
    })
}

/// Responses that are missing or not byte-identical to the direct
/// `ServeJob` result of their template.
fn failures(phase: &Phase, sched: &[Scheduled], known: &[Known]) -> u64 {
    sched
        .iter()
        .zip(&phase.raw)
        .enumerate()
        .filter(|(id, (req, raw))| {
            let k = &known[req.known];
            let want =
                response_ok(Json::UInt(*id as u64), k.template.kind, k.result.clone()).render();
            raw.as_deref() != Some(want.as_bytes())
        })
        .count() as u64
}

/// The daemon's defaults, except one worker per core, the durable cache
/// in the run's work directory, and admission bounds deep enough that a
/// host stall of a few tens of milliseconds queues instead of shedding:
/// only a backlog that keeps growing should fail the load.
fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        cache_dir: Some(dir.to_path_buf()),
        max_depth: 4096,
        max_per_tenant: 1024,
        ..ServerConfig::default()
    }
}

/// Starts a server and waits for its first `ping` answer.
fn start_and_ping(dir: &Path) -> io::Result<ServerHandle> {
    let handle = start(server_config(dir))?;
    let mut client = ServeClient::connect(&handle.addr())?;
    let out = client.call(&Json::obj([
        ("id", Json::UInt(0)),
        ("kind", Json::from("ping")),
    ]))?;
    if response_status(&out.response) != "ok" {
        return Err(io::Error::other("ping not ok"));
    }
    Ok(handle)
}

/// The run's scratch directory inside the checkout, emptied first.
fn work_dir(cfg: &RunConfig) -> io::Result<PathBuf> {
    let dir =
        PathBuf::from(".bench_work").join(format!("serve-{}-{}", std::process::id(), cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Leaves the parent alone when another run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
}

/// Everything the run does before measuring: inputs, work directory, and
/// a first start that creates the durable segment.
fn prepare(cfg: &RunConfig, report: &mut Report) -> Option<(Inputs, PathBuf)> {
    let fixed_len = cfg.seconds.mul_f64(FIXED_SHARE);
    let inputs = match build_inputs(cfg.seed, fixed_len) {
        Ok(inputs) => inputs,
        Err(e) => {
            report.invalidate(format!("serve inputs: {e}"));
            return None;
        }
    };
    let dir = match work_dir(cfg) {
        Ok(dir) => dir,
        Err(e) => {
            report.invalidate(format!("serve work dir: {e}"));
            return None;
        }
    };
    match start_and_ping(&dir) {
        Ok(handle) => {
            handle.drain_and_join();
        }
        Err(e) => {
            report.invalidate(format!("serve start: {e}"));
            remove_work_dir(&dir);
            return None;
        }
    }
    report.note(format!(
        "serve: {} requests at {FIXED_RPS} req/s over {:.1} s, {} hot templates, {} cold, {} workers",
        inputs.fixed.len(),
        fixed_len.as_secs_f64(),
        inputs.hot,
        inputs.known.len() - inputs.hot,
        nproc()
    ));
    Some((inputs, dir))
}

/// Requests every hot template once, closed-loop, before timing starts:
/// the measured phase then sees the steady state, where the only misses
/// are the cold templates spread through the schedule.
fn warm_hot_set(report: &mut Report, handle: &ServerHandle, inputs: &Inputs) -> io::Result<()> {
    let mut client = ServeClient::connect(&handle.addr())?;
    for (id, known) in inputs.known[..inputs.hot].iter().enumerate() {
        client.send_raw(&known.template.request(id as u64, TENANTS[0]))?;
        let (_, raw) = client.read_event()?;
        let want = response_ok(
            Json::UInt(id as u64),
            known.template.kind,
            known.result.clone(),
        );
        if raw != want.render().into_bytes() {
            report.failed += 1;
            report.note(format!("warm-up response {id} differs from its direct run"));
        }
    }
    Ok(())
}

/// Warms the hot set, then runs the fixed-rate phase against `handle`,
/// checking every response and reporting the generator's lateness. A late
/// generator is reported, not failed: it says the host stalled the sender,
/// not that the daemon answered wrongly.
fn fixed_phase(report: &mut Report, handle: &ServerHandle, inputs: &Inputs) -> Option<Phase> {
    if let Err(e) = warm_hot_set(report, handle, inputs) {
        report.invalidate(format!("warm-up: {e}"));
        return None;
    }
    let phase = match run_phase(&handle.addr(), &inputs.fixed) {
        Ok(phase) => phase,
        Err(e) => {
            report.invalidate(format!("fixed phase: {e}"));
            return None;
        }
    };
    report.attempted += inputs.fixed.len() as u64;
    report.failed += failures(&phase, &inputs.fixed, &inputs.known);
    let mut latency = Samples::default();
    phase
        .latency_ms
        .iter()
        .filter(|l| l.is_finite())
        .for_each(|&l| latency.push(l));
    report.note(format!(
        "serve fixed phase (not gated): p50 {:.4} ms, p99 {:.4} ms from the due time",
        latency.p50().unwrap_or(f64::NAN),
        latency.percentile(99.0).map_or(f64::NAN, |(v, _)| v)
    ));
    let mut late = Samples::default();
    phase.late_ms.iter().for_each(|&l| late.push(l));
    let p99_late = late.percentile(99.0).map_or(f64::NAN, |(v, _)| v);
    report.set("gen.late_ms", p99_late);
    report.note(format!(
        "generator lateness p50 {:.4} ms, p99 {p99_late:.4} ms; phase {:.2} s",
        late.p50().unwrap_or(f64::NAN),
        phase.wall.as_secs_f64()
    ));
    Some(phase)
}

/// Templates the traced probe replays per pass, at most.
const PROBE_TEMPLATES: usize = 160;

/// Span name of the compute call for a work kind.
fn compute_span(work: &Work) -> &'static str {
    match work {
        Work::Bind { .. } => "serve.compute.bind",
        Work::Codesign { .. } => "serve.compute.codesign",
        Work::ErrorRate { .. } => "serve.compute.error_rate",
        Work::LockedSim { .. } => "serve.compute.locked_sim",
        Work::SatAttack { .. } => "serve.compute.sat_attack",
        Work::Sleep { .. } => "serve.compute.sleep",
    }
}

/// One probe op: a request through decode, the shared-artifact builds,
/// compute, render and the durable store, each call in its own span.
/// Returns `false` when a result differs from the expected one.
fn probe_op(
    t: &Tracer,
    engine: &Engine,
    store: &mut SegmentStore,
    (id, request): (u64, &[u8]),
    k: &Known,
) -> bool {
    let work = t.span("serve.decode", || {
        let doc = jsonin::parse(request).ok()?;
        match decode_request(&doc, false).ok()?.kind {
            RequestKind::Work(work) => Some(work),
            _ => None,
        }
    });
    let Some(work) = work else { return false };
    let kernel_params = match work {
        Work::Bind {
            kernel,
            frames,
            seed,
            class,
            num_candidates,
            ..
        }
        | Work::ErrorRate {
            kernel,
            frames,
            seed,
            class,
            num_candidates,
            ..
        } => Some((kernel, frames, seed, Some((class, num_candidates)))),
        Work::Codesign {
            kernel,
            frames,
            seed,
            ..
        }
        | Work::LockedSim {
            kernel,
            frames,
            seed,
        } => Some((kernel, frames, seed, None)),
        Work::SatAttack { .. } | Work::Sleep { .. } => None,
    };
    if let Some((kernel, frames, seed, class)) = kernel_params {
        let prepared = t.span("bench.prepare", || {
            cached_prepared(engine.cache(), kernel, frames, seed)
        });
        if let Some((class, n)) = class {
            t.span("bench.class_context", || {
                cached_class_context(engine.cache(), &prepared, kernel, frames, seed, class, n)
            });
        }
    }
    let result = match t.span(compute_span(&work), || direct(engine, &work)) {
        CellResult::Ok { output, .. } => output,
        _ => return false,
    };
    let bytes = t.span("serve.render", || {
        response_ok(Json::UInt(id), k.template.kind, result.clone()).render()
    });
    let key = work.canonical();
    let appended = t.span("durable.append", || store.append(&key, bytes.as_bytes()));
    let read = t.span("durable.get", || store.get(&key));
    result == k.result && appended.is_ok() && read.as_deref() == Some(bytes.as_bytes())
}

/// Reads the fingerprint a segment was written with.
fn segment_fingerprint(dir: &Path) -> Option<u64> {
    let bytes = std::fs::read(dir.join("cache.seg")).ok()?;
    Some(u64::from_le_bytes(bytes.get(12..20)?.try_into().ok()?))
}

/// The traced run: the fixed-rate phase for the serving-path shares,
/// direct probes of ping, telemetry and the durable store, then serial
/// replays of the phase's templates through each layer, alternately
/// traced and untraced.
pub fn run_traced(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    // Building the inputs (which runs every template once, directly)
    // counts against the budget.
    let start_all = Instant::now();
    let Some((inputs, dir)) = prepare(cfg, &mut report) else {
        return report;
    };
    let handle = match start(server_config(&dir)) {
        Ok(handle) => handle,
        Err(e) => {
            report.invalidate(format!("serve start: {e}"));
            remove_work_dir(&dir);
            return report;
        }
    };
    let before = Registry::global().snapshot();
    let phase = fixed_phase(&mut report, &handle, &inputs);
    let delta = Registry::global().snapshot().delta_from(&before);
    let count = |n: &str| delta.counters.get(n).copied().unwrap_or(0) as f64;
    let requests = inputs.fixed.len().max(1) as f64;
    let mut client = ServeClient::connect(&handle.addr());
    match client.as_mut().map_err(|e| e.to_string()).and_then(|c| {
        c.call(&Json::obj([
            ("id", Json::UInt(1)),
            ("kind", Json::from("stats")),
        ]))
        .map_err(|e| e.to_string())
    }) {
        Ok(out) => {
            let appends = result_field(&out.response, "durable")
                .and_then(|d| json_field(d, "appends"))
                .and_then(|a| match a {
                    Json::UInt(n) => Some(*n as f64),
                    _ => None,
                });
            // Every computed response is appended once; the warm-up
            // computed the hot set before the phase began.
            match appends {
                Some(appends) => report.set(
                    "serve.hit_share",
                    1.0 - (appends - inputs.hot as f64) / requests,
                ),
                None => report.invalidate("stats response lacks durable.appends"),
            }
            let cache = result_field(&out.response, "cache");
            let get = |n: &str| match cache.and_then(|c| json_field(c, n)) {
                Some(Json::UInt(v)) => *v as f64,
                _ => 0.0,
            };
            report.set(
                "engine.cache_hit_rate",
                get("hits") / (get("hits") + get("misses")).max(1.0),
            );
        }
        Err(e) => report.invalidate(format!("stats request: {e}")),
    }
    report.set("serve.coalesced_share", count("serve.coalesced") / requests);
    report.set("serve.shed_share", count("serve.shed") / requests);
    if let Some(phase) = &phase {
        report.set("serve.queue_max_depth", phase.max_outstanding as f64);
    }
    if let Ok(client) = client.as_mut() {
        let n = 200;
        let t0 = Instant::now();
        let ok = (0..n).all(|i| {
            client
                .call(&Json::obj([
                    ("id", Json::UInt(i)),
                    ("kind", Json::from("ping")),
                ]))
                .is_ok_and(|o| response_status(&o.response) == "ok")
        });
        report.set("serve.ping_us", t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        if !ok {
            report.failed += 1;
        }
    }
    drop(client);
    handle.drain_and_join();

    let mut opens = Vec::new();
    if let Some(fingerprint) = segment_fingerprint(&dir) {
        for _ in 0..5 {
            let t0 = Instant::now();
            let opened = SegmentStore::open(
                &dir,
                StoreConfig {
                    fingerprint,
                    ..StoreConfig::default()
                },
            );
            opens.push(t0.elapsed().as_secs_f64() * 1e3);
            if opened.is_err() {
                report.failed += 1;
            }
        }
    }
    report.set("durable.open_ms", median(&opens));

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let n = 200_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        telemetry.on_response(i, TENANTS[(i % 4) as usize], true, 50 + i % 1000);
    }
    report.set(
        "telemetry.record_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );

    // The phase's templates in order of first use, hot set first.
    let mut used: Vec<usize> = (0..inputs.hot).collect();
    used.extend(
        inputs
            .fixed
            .iter()
            .map(|r| r.known)
            .filter(|&k| k >= inputs.hot),
    );
    used.truncate(PROBE_TEMPLATES);
    let traced = Tracer::new(true);
    let plain = Tracer::new(false);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut first: Option<BTreeMap<&'static str, u64>> = None;
    let mut passes = 0;
    while keep_going(start_all, cfg.seconds, passes, 2) {
        let on = passes % 2 == 0;
        let t = if on { &traced } else { &plain };
        let engine = Engine::new(EngineConfig::default());
        let store_dir = dir.join(format!("probe-{passes}"));
        let mut store = match SegmentStore::open(&store_dir, StoreConfig::default()) {
            Ok((store, _)) => store,
            Err(e) => {
                report.invalidate(format!("probe store: {e}"));
                break;
            }
        };
        let before = Registry::global().snapshot();
        let t0 = Instant::now();
        for (i, &k) in used.iter().enumerate() {
            report.attempted += 1;
            let known = &inputs.known[k];
            let request = known.template.request(i as u64, TENANTS[0]);
            if !t.op(i as u64, || {
                probe_op(t, &engine, &mut store, (i as u64, &request), known)
            }) {
                report.failed += 1;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let delta = Registry::global().snapshot().delta_from(&before);
        let counts = registry_counts(&delta);
        if on {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
        }
        match &first {
            None => {
                set_registry_layers(&mut report, &counts);
                first = Some(counts);
            }
            Some(f) if *f != counts => {
                report.failed += 1;
                report.note("serve: work counts differ between probe passes");
            }
            Some(_) => {}
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
        passes += 1;
    }
    let layers = traced.layers();
    let mean = |name: &str, unit_ns: f64| layers.get(name).map_or(0.0, |l| l.mean(unit_ns));
    report.set("bench.prepare_ms", mean("bench.prepare", 1e6));
    report.set("bench.class_context_ms", mean("bench.class_context", 1e6));
    report.set("serve.decode_us", mean("serve.decode", 1e3));
    report.set("serve.render_us", mean("serve.render", 1e3));
    report.set("durable.append_us", mean("durable.append", 1e3));
    report.set("durable.get_us", mean("durable.get", 1e3));
    for (metric, span) in [
        ("serve.compute_ms.bind", "serve.compute.bind"),
        ("serve.compute_ms.codesign", "serve.compute.codesign"),
        ("serve.compute_ms.error_rate", "serve.compute.error_rate"),
        ("serve.compute_ms.locked_sim", "serve.compute.locked_sim"),
        ("serve.compute_ms.sat_attack", "serve.compute.sat_attack"),
    ] {
        report.set(metric, mean(span, 1e6));
    }
    crate::set_trace_metrics(&mut report, &traced, &traced_walls, &plain_walls);
    report.note(format!(
        "serve traced: {passes} probe passes over {} templates",
        used.len()
    ));
    remove_work_dir(&dir);
    report
}
