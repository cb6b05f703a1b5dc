//! Request/response protocol: envelope schema, strict validation, stable
//! error codes, and the canonical work identity used for coalescing.
//!
//! # Wire schema
//!
//! A request frame is one JSON object:
//!
//! ```json
//! {"id": 7, "kind": "bind", "tenant": "alice", "deadline_ms": 2000,
//!  "progress": false, "params": {"kernel": "fir", "locked_fus": 1}}
//! ```
//!
//! `id` and `kind` are required; everything else is optional with
//! defaults. Validation is strict in the same spirit as the engine CLI's
//! argument parsing: unknown fields are rejected (they are typos, and a
//! tolerated typo silently changes what the request means), integers must
//! be non-negative JSON integers, and every range violation names the
//! field, the accepted range, and the default. Each failure carries a
//! stable machine-readable code from [`code`].
//!
//! A response frame echoes the request id:
//!
//! ```json
//! {"id": 7, "type": "response", "kind": "bind", "status": "ok",
//!  "result": {...}}
//! ```
//!
//! `status` is one of `ok`, `error`, `shed`, `deadline_exceeded`, or
//! `interrupted`; non-`ok` responses carry `error: {code, message}`
//! instead of `result`. Requests with `progress: true` may receive any
//! number of `{"type": "progress", ...}` frames before the response.
//!
//! # Determinism
//!
//! Work requests deliberately contain no wall-clock inputs: the
//! response body is a pure function of [`Work::canonical`] (the packed
//! work identity), which also derives the per-request RNG seed and the
//! coalescing cache key. Identical requests therefore produce
//! byte-identical `result` objects, whether computed or coalesced.

use lockbind_bench::headline_cells::SatScheme;
use lockbind_core::OPTIMAL_SEARCH_LIMIT;
use lockbind_engine::{fnv1a, CacheKey};
use lockbind_hls::FuClass;
use lockbind_mediabench::Kernel;
use lockbind_obs::Json;

/// Stable machine-readable error codes for the `error.code` field.
pub mod code {
    /// Frame payload is not valid JSON / UTF-8.
    pub const BAD_JSON: &str = "bad_json";
    /// A number in the frame is not a finite `f64`.
    pub const NON_FINITE: &str = "non_finite";
    /// Declared frame length exceeds the server cap.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// The frame is not an object, or a field has the wrong type.
    pub const BAD_TYPE: &str = "bad_type";
    /// A required field is missing.
    pub const MISSING_FIELD: &str = "missing_field";
    /// A field name is not part of the schema.
    pub const UNKNOWN_FIELD: &str = "unknown_field";
    /// A field value is outside its accepted range / vocabulary.
    pub const BAD_VALUE: &str = "bad_value";
    /// The request kind is not recognised.
    pub const UNKNOWN_KIND: &str = "unknown_kind";
    /// The request kind exists but is disabled on this server.
    pub const KIND_DISABLED: &str = "kind_disabled";
    /// Admission control shed the request: global queue full.
    pub const QUEUE_FULL: &str = "queue_full";
    /// Admission control shed the request: per-tenant bound hit.
    pub const TENANT_LIMIT: &str = "tenant_limit";
    /// Admission control shed the request: the server is draining.
    pub const DRAINING: &str = "draining";
    /// The connection itself was shed: the concurrent-connection cap is
    /// reached. Sent once on the fresh connection, which is then closed.
    pub const CONNECTION_LIMIT: &str = "connection_limit";
    /// The request's deadline fired (while queued or executing).
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The request was cancelled explicitly mid-flight.
    pub const INTERRUPTED: &str = "interrupted";
    /// The job body returned an error or panicked.
    pub const EXEC_FAILED: &str = "exec_failed";
}

/// Response `status` values.
pub mod status {
    /// Completed with a `result`.
    pub const OK: &str = "ok";
    /// Failed validation or execution.
    pub const ERROR: &str = "error";
    /// Rejected by admission control before execution.
    pub const SHED: &str = "shed";
    /// The per-request deadline fired.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Cancelled explicitly via a `cancel` request.
    pub const INTERRUPTED: &str = "interrupted";
}

/// Upper bound on `frames` accepted from the wire.
pub const MAX_FRAMES: usize = 10_000;
/// Upper bound on `deadline_ms` accepted from the wire (1 hour).
pub const MAX_DEADLINE_MS: u64 = 3_600_000;
/// Upper bound on a `tenant` name's length.
pub const MAX_TENANT_LEN: usize = 64;

/// A validation failure: stable code plus a CLI-style message naming the
/// field and the accepted values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqError {
    /// Stable machine-readable code (one of [`code`]).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ReqError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ReqError {
            code,
            message: message.into(),
        }
    }
}

/// A validated request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed on every frame.
    pub id: u64,
    /// Tenant the request is accounted against.
    pub tenant: String,
    /// Optional deadline budget, admission to response.
    pub deadline_ms: Option<u64>,
    /// Whether the client wants streaming progress frames.
    pub progress: bool,
    /// The validated request body.
    pub kind: RequestKind,
}

/// The request body, split by execution path: admin kinds run inline on
/// the connection thread, [`Work`] kinds go through admission control.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Liveness probe.
    Ping,
    /// Server counters snapshot (non-deterministic; never coalesced).
    Stats,
    /// Live telemetry snapshot: windowed latency quantiles, per-tenant
    /// SLO burn, flight-recorder state (non-deterministic; never
    /// coalesced). Feeds `lockbind_top`.
    Introspect,
    /// Cancel an in-flight request of the same tenant by id.
    Cancel {
        /// The `id` of the request to cancel.
        target_id: u64,
    },
    /// A queued unit of engine work.
    Work(Work),
}

/// A validated, fully-defaulted unit of engine work.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// Obfuscation-aware binding for a fixed locking spec (paper Alg. 1).
    Bind {
        /// Kernel under test.
        kernel: Kernel,
        /// Profiling frames.
        frames: usize,
        /// Kernel-preparation seed.
        seed: u64,
        /// FU class to lock.
        class: FuClass,
        /// Number of locked FUs (first `n` of the class).
        locked_fus: usize,
        /// Locked inputs per FU (top `n` candidates).
        locked_inputs: usize,
        /// Candidate pool size.
        num_candidates: usize,
    },
    /// Binding/locking co-design search (paper Alg. 2, heuristic).
    Codesign {
        /// Kernel under test.
        kernel: Kernel,
        /// Profiling frames.
        frames: usize,
        /// Kernel-preparation seed.
        seed: u64,
        /// FU class to lock.
        class: FuClass,
        /// Number of locked FUs.
        locked_fus: usize,
        /// Locked inputs chosen per FU.
        inputs_per_fu: usize,
        /// Candidate pool size.
        num_candidates: usize,
    },
    /// Error-rate estimation across the three security algorithms.
    ErrorRate {
        /// Kernel under test.
        kernel: Kernel,
        /// Profiling frames.
        frames: usize,
        /// Kernel-preparation seed.
        seed: u64,
        /// FU class to lock.
        class: FuClass,
        /// Number of locked FUs.
        locked_fus: usize,
        /// Locked inputs per FU.
        locked_inputs: usize,
        /// Candidate pool size.
        num_candidates: usize,
        /// Cap on enumerated assignments before subsampling.
        max_assignments: usize,
        /// Evaluation budget gating the exhaustive optimal search.
        optimal_budget: u64,
    },
    /// End-to-end locked-datapath simulation with a wrong key.
    LockedSim {
        /// Kernel under test.
        kernel: Kernel,
        /// Profiling frames (also the replay length).
        frames: usize,
        /// Kernel-preparation seed.
        seed: u64,
    },
    /// Oracle-guided SAT attack on a locked adder FU.
    SatAttack {
        /// Locking scheme under attack.
        scheme: SatScheme,
        /// Operand width of the adder FU.
        width: u32,
    },
    /// Debug-only cancellable sleep (gated behind `--debug-kinds`);
    /// exists so deadline / cancel / drain behaviour is testable with
    /// controlled durations.
    Sleep {
        /// How long to sleep, polling the cancel token.
        ms: u64,
    },
}

impl Work {
    /// The wire name of this kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Work::Bind { .. } => "bind",
            Work::Codesign { .. } => "codesign",
            Work::ErrorRate { .. } => "error_rate",
            Work::LockedSim { .. } => "locked_sim",
            Work::SatAttack { .. } => "sat_attack",
            Work::Sleep { .. } => "sleep",
        }
    }

    /// The engine stage name (span / metrics vocabulary, matching the
    /// bench grids where the same work runs in sweeps).
    pub fn stage(&self) -> &'static str {
        match self {
            Work::Bind { .. } => "bind",
            Work::Codesign { .. } => "codesign",
            Work::ErrorRate { .. } => "error-cell",
            Work::LockedSim { .. } => "locked-sim",
            Work::SatAttack { .. } => "sat-attack",
            Work::Sleep { .. } => "sleep",
        }
    }

    /// Whether the response may be answered from the coalescing cache.
    /// Everything but `sleep` is a pure function of the canonical work
    /// identity; `sleep` exists precisely to consume wall time.
    pub fn cacheable(&self) -> bool {
        !matches!(self, Work::Sleep { .. })
    }

    /// The packed canonical identity: a tag byte plus every
    /// work-defining field, length-prefixed — no envelope fields (id,
    /// tenant, deadline, progress), so two tenants asking the same
    /// question share one artifact build.
    pub fn canonical(&self) -> Vec<u8> {
        fn push(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(self.kind_name().as_bytes());
        out.push(0);
        match *self {
            Work::Bind {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                locked_inputs,
                num_candidates,
            } => {
                out.extend_from_slice(kernel.name().as_bytes());
                out.push(0);
                push(&mut out, frames as u64);
                push(&mut out, seed);
                push(&mut out, class as u64);
                push(&mut out, locked_fus as u64);
                push(&mut out, locked_inputs as u64);
                push(&mut out, num_candidates as u64);
            }
            Work::Codesign {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                inputs_per_fu,
                num_candidates,
            } => {
                out.extend_from_slice(kernel.name().as_bytes());
                out.push(0);
                push(&mut out, frames as u64);
                push(&mut out, seed);
                push(&mut out, class as u64);
                push(&mut out, locked_fus as u64);
                push(&mut out, inputs_per_fu as u64);
                push(&mut out, num_candidates as u64);
            }
            Work::ErrorRate {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                locked_inputs,
                num_candidates,
                max_assignments,
                optimal_budget,
            } => {
                out.extend_from_slice(kernel.name().as_bytes());
                out.push(0);
                push(&mut out, frames as u64);
                push(&mut out, seed);
                push(&mut out, class as u64);
                push(&mut out, locked_fus as u64);
                push(&mut out, locked_inputs as u64);
                push(&mut out, num_candidates as u64);
                push(&mut out, max_assignments as u64);
                push(&mut out, optimal_budget);
            }
            Work::LockedSim {
                kernel,
                frames,
                seed,
            } => {
                out.extend_from_slice(kernel.name().as_bytes());
                out.push(0);
                push(&mut out, frames as u64);
                push(&mut out, seed);
            }
            Work::SatAttack { scheme, width } => {
                out.extend_from_slice(scheme.label().as_bytes());
                out.push(0);
                push(&mut out, u64::from(width));
            }
            Work::Sleep { ms } => push(&mut out, ms),
        }
        out
    }

    /// The coalescing cache key (namespace `serve-response`).
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new("serve-response").push_bytes(&self.canonical())
    }

    /// The deterministic per-request RNG seed: FNV-1a over the canonical
    /// identity. Identical requests replay identical ChaCha streams.
    pub fn seed_from_content(&self) -> u64 {
        fnv1a(&self.canonical())
    }
}

/// All request kind names, for diagnostics.
pub const KIND_NAMES: [&str; 10] = [
    "ping",
    "stats",
    "introspect",
    "cancel",
    "bind",
    "codesign",
    "error_rate",
    "locked_sim",
    "sat_attack",
    "sleep",
];

fn check_unknown_fields(path: &str, obj: &Json, allowed: &[&str]) -> Result<(), ReqError> {
    let Json::Object(pairs) = obj else {
        return Ok(());
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(ReqError::new(
                code::UNKNOWN_FIELD,
                format!(
                    "{path}{key}: unknown field (expected one of: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn as_object<'a>(path: &str, doc: &'a Json) -> Result<&'a Json, ReqError> {
    match doc {
        Json::Object(_) => Ok(doc),
        _ => Err(ReqError::new(
            code::BAD_TYPE,
            format!("{path}: must be a JSON object"),
        )),
    }
}

fn req_uint(path: &str, obj: &Json, name: &str) -> Result<u64, ReqError> {
    match obj.get(name) {
        Some(Json::UInt(v)) => Ok(*v),
        Some(_) => Err(ReqError::new(
            code::BAD_TYPE,
            format!("{path}{name}: must be a non-negative integer"),
        )),
        None => Err(ReqError::new(
            code::MISSING_FIELD,
            format!("{path}{name}: required field is missing"),
        )),
    }
}

fn opt_uint(path: &str, obj: &Json, name: &str, default: u64) -> Result<u64, ReqError> {
    match obj.get(name) {
        None => Ok(default),
        Some(Json::UInt(v)) => Ok(*v),
        Some(Json::Float(v)) if *v < 0.0 => Err(ReqError::new(
            code::BAD_VALUE,
            format!("{path}{name}: must not be negative (seeds and counts are unsigned)"),
        )),
        Some(_) => Err(ReqError::new(
            code::BAD_TYPE,
            format!("{path}{name}: must be a non-negative integer"),
        )),
    }
}

fn ranged(
    path: &str,
    name: &str,
    value: u64,
    min: u64,
    max: u64,
    default: u64,
) -> Result<u64, ReqError> {
    if (min..=max).contains(&value) {
        Ok(value)
    } else {
        Err(ReqError::new(
            code::BAD_VALUE,
            format!(
                "{path}{name}: must be between {min} and {max} \
                 (omit the field to default to {default})"
            ),
        ))
    }
}

fn opt_ranged(
    path: &str,
    obj: &Json,
    name: &str,
    min: u64,
    max: u64,
    default: u64,
) -> Result<u64, ReqError> {
    let value = opt_uint(path, obj, name, default)?;
    ranged(path, name, value, min, max, default)
}

fn opt_str<'a>(
    path: &str,
    obj: &'a Json,
    name: &str,
    default: &'a str,
) -> Result<&'a str, ReqError> {
    match obj.get(name) {
        None => Ok(default),
        Some(Json::Str(s)) => Ok(s.as_str()),
        Some(_) => Err(ReqError::new(
            code::BAD_TYPE,
            format!("{path}{name}: must be a string"),
        )),
    }
}

fn opt_bool(path: &str, obj: &Json, name: &str, default: bool) -> Result<bool, ReqError> {
    match obj.get(name) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ReqError::new(
            code::BAD_TYPE,
            format!("{path}{name}: must be a boolean"),
        )),
    }
}

fn parse_kernel(path: &str, obj: &Json) -> Result<Kernel, ReqError> {
    let name = match obj.get("kernel") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => {
            return Err(ReqError::new(
                code::BAD_TYPE,
                format!("{path}kernel: must be a string"),
            ))
        }
        None => {
            return Err(ReqError::new(
                code::MISSING_FIELD,
                format!("{path}kernel: required field is missing"),
            ))
        }
    };
    Kernel::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = Kernel::ALL.into_iter().map(Kernel::name).collect();
            ReqError::new(
                code::BAD_VALUE,
                format!(
                    "{path}kernel: unknown kernel '{name}' (expected one of: {})",
                    names.join(", ")
                ),
            )
        })
}

fn parse_class(path: &str, obj: &Json) -> Result<FuClass, ReqError> {
    match opt_str(path, obj, "class", "adder")? {
        "adder" => Ok(FuClass::Adder),
        "multiplier" => Ok(FuClass::Multiplier),
        other => Err(ReqError::new(
            code::BAD_VALUE,
            format!("{path}class: unknown FU class '{other}' (expected adder or multiplier)"),
        )),
    }
}

fn parse_scheme(path: &str, obj: &Json) -> Result<SatScheme, ReqError> {
    let label = opt_str(path, obj, "scheme", "critical-minterm")?;
    SatScheme::ALL
        .into_iter()
        .find(|s| s.label() == label)
        .ok_or_else(|| {
            let labels: Vec<&str> = SatScheme::ALL.into_iter().map(SatScheme::label).collect();
            ReqError::new(
                code::BAD_VALUE,
                format!(
                    "{path}scheme: unknown locking scheme '{label}' (expected one of: {})",
                    labels.join(", ")
                ),
            )
        })
}

/// Common kernel-work parameters (`kernel` required, the rest defaulted).
struct KernelParams {
    kernel: Kernel,
    frames: usize,
    seed: u64,
}

fn parse_kernel_params(path: &str, obj: &Json) -> Result<KernelParams, ReqError> {
    Ok(KernelParams {
        kernel: parse_kernel(path, obj)?,
        frames: opt_ranged(path, obj, "frames", 1, MAX_FRAMES as u64, 120)? as usize,
        seed: opt_uint(path, obj, "seed", 2021)?,
    })
}

/// Decodes and validates one request document. `debug_kinds` gates the
/// `sleep` kind (off in production; see `--debug-kinds`).
///
/// # Errors
/// [`ReqError`] with a stable code on any schema violation; the message
/// names the offending field and the accepted values.
pub fn decode_request(doc: &Json, debug_kinds: bool) -> Result<RequestEnvelope, ReqError> {
    let obj = as_object("request", doc)?;
    check_unknown_fields(
        "",
        obj,
        &["id", "kind", "tenant", "deadline_ms", "progress", "params"],
    )?;
    let id = req_uint("", obj, "id")?;
    let tenant = opt_str("", obj, "tenant", "anon")?.to_string();
    if tenant.is_empty()
        || tenant.len() > MAX_TENANT_LEN
        || !tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        return Err(ReqError::new(
            code::BAD_VALUE,
            format!("tenant: must be 1..={MAX_TENANT_LEN} characters from [a-zA-Z0-9._-]"),
        ));
    }
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(_) => Some(ranged(
            "",
            "deadline_ms",
            req_uint("", obj, "deadline_ms")?,
            1,
            MAX_DEADLINE_MS,
            2000,
        )?),
    };
    let progress = opt_bool("", obj, "progress", false)?;
    let kind_name = match obj.get("kind") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(ReqError::new(code::BAD_TYPE, "kind: must be a string")),
        None => {
            return Err(ReqError::new(
                code::MISSING_FIELD,
                "kind: required field is missing",
            ))
        }
    };
    let empty = Json::Object(Vec::new());
    let params = match obj.get("params") {
        None => &empty,
        Some(doc) => as_object("params", doc)?,
    };
    let p = "params.";

    let kind = match kind_name {
        "ping" | "stats" | "introspect" => {
            check_unknown_fields(p, params, &[])?;
            match kind_name {
                "ping" => RequestKind::Ping,
                "stats" => RequestKind::Stats,
                _ => RequestKind::Introspect,
            }
        }
        "cancel" => {
            check_unknown_fields(p, params, &["target_id"])?;
            RequestKind::Cancel {
                target_id: req_uint(p, params, "target_id")?,
            }
        }
        "bind" => {
            check_unknown_fields(
                p,
                params,
                &[
                    "kernel",
                    "frames",
                    "seed",
                    "class",
                    "locked_fus",
                    "locked_inputs",
                    "num_candidates",
                ],
            )?;
            let k = parse_kernel_params(p, params)?;
            RequestKind::Work(Work::Bind {
                kernel: k.kernel,
                frames: k.frames,
                seed: k.seed,
                class: parse_class(p, params)?,
                locked_fus: opt_ranged(p, params, "locked_fus", 1, 3, 1)? as usize,
                locked_inputs: opt_ranged(p, params, "locked_inputs", 1, 3, 2)? as usize,
                num_candidates: opt_ranged(p, params, "num_candidates", 1, 16, 8)? as usize,
            })
        }
        "codesign" => {
            check_unknown_fields(
                p,
                params,
                &[
                    "kernel",
                    "frames",
                    "seed",
                    "class",
                    "locked_fus",
                    "inputs_per_fu",
                    "num_candidates",
                ],
            )?;
            let k = parse_kernel_params(p, params)?;
            RequestKind::Work(Work::Codesign {
                kernel: k.kernel,
                frames: k.frames,
                seed: k.seed,
                class: parse_class(p, params)?,
                locked_fus: opt_ranged(p, params, "locked_fus", 1, 3, 1)? as usize,
                inputs_per_fu: opt_ranged(p, params, "inputs_per_fu", 1, 3, 2)? as usize,
                num_candidates: opt_ranged(p, params, "num_candidates", 1, 16, 8)? as usize,
            })
        }
        "error_rate" => {
            check_unknown_fields(
                p,
                params,
                &[
                    "kernel",
                    "frames",
                    "seed",
                    "class",
                    "locked_fus",
                    "locked_inputs",
                    "num_candidates",
                    "max_assignments",
                    "optimal_budget",
                ],
            )?;
            let k = parse_kernel_params(p, params)?;
            RequestKind::Work(Work::ErrorRate {
                kernel: k.kernel,
                frames: k.frames,
                seed: k.seed,
                class: parse_class(p, params)?,
                locked_fus: opt_ranged(p, params, "locked_fus", 1, 3, 1)? as usize,
                locked_inputs: opt_ranged(p, params, "locked_inputs", 1, 3, 1)? as usize,
                num_candidates: opt_ranged(p, params, "num_candidates", 1, 16, 8)? as usize,
                max_assignments: opt_ranged(p, params, "max_assignments", 1, 100_000, 500)?
                    as usize,
                optimal_budget: opt_ranged(
                    p,
                    params,
                    "optimal_budget",
                    0,
                    OPTIMAL_SEARCH_LIMIT,
                    20_000,
                )?,
            })
        }
        "locked_sim" => {
            check_unknown_fields(p, params, &["kernel", "frames", "seed"])?;
            let k = parse_kernel_params(p, params)?;
            RequestKind::Work(Work::LockedSim {
                kernel: k.kernel,
                frames: k.frames,
                seed: k.seed,
            })
        }
        "sat_attack" => {
            check_unknown_fields(p, params, &["scheme", "width"])?;
            RequestKind::Work(Work::SatAttack {
                scheme: parse_scheme(p, params)?,
                width: opt_ranged(p, params, "width", 2, 5, 3)? as u32,
            })
        }
        "sleep" => {
            if !debug_kinds {
                return Err(ReqError::new(
                    code::KIND_DISABLED,
                    "kind: 'sleep' is a debug kind (start the server with --debug-kinds)",
                ));
            }
            check_unknown_fields(p, params, &["ms"])?;
            RequestKind::Work(Work::Sleep {
                ms: opt_ranged(p, params, "ms", 0, 60_000, 10)?,
            })
        }
        other => {
            return Err(ReqError::new(
                code::UNKNOWN_KIND,
                format!(
                    "kind: unknown request kind '{other}' (expected one of: {})",
                    KIND_NAMES.join(", ")
                ),
            ))
        }
    };

    Ok(RequestEnvelope {
        id,
        tenant,
        deadline_ms,
        progress,
        kind,
    })
}

/// Best-effort extraction of the `id` field from an arbitrary document,
/// for echoing on validation-error responses ([`Json::Null`] when the
/// frame never got far enough to carry one).
pub fn extract_id(doc: &Json) -> Json {
    match doc.get("id") {
        Some(Json::UInt(v)) => Json::UInt(*v),
        _ => Json::Null,
    }
}

/// Builds an `ok` response frame.
pub fn response_ok(id: Json, kind: &str, result: Json) -> Json {
    Json::obj([
        ("id", id),
        ("type", Json::from("response")),
        ("kind", Json::from(kind)),
        ("status", Json::from(status::OK)),
        ("result", result),
    ])
}

/// Builds a non-`ok` response frame with the given status and error.
pub fn response_error(id: Json, kind: &str, status: &str, err_code: &str, message: &str) -> Json {
    Json::obj([
        ("id", id),
        ("type", Json::from("response")),
        ("kind", Json::from(kind)),
        ("status", Json::from(status)),
        (
            "error",
            Json::obj([
                ("code", Json::from(err_code)),
                ("message", Json::from(message)),
            ]),
        ),
    ])
}

/// Builds a progress frame: the `ordinal`-th completed span of request
/// `id` (durations deliberately omitted — progress frames stay
/// deterministic for a deterministic job).
pub fn progress_event(id: u64, ordinal: u64, span: &str) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("type", Json::from("progress")),
        ("ordinal", Json::from(ordinal)),
        ("span", Json::from(span)),
    ])
}

/// Builds a request document (client side).
pub fn make_request(id: u64, kind: &str, params: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![("id", Json::from(id)), ("kind", Json::from(kind))];
    if !params.is_empty() {
        fields.push(("params", Json::obj(params)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(text: &str) -> Result<RequestEnvelope, ReqError> {
        decode_request(
            &lockbind_obs::json::parse(text.as_bytes()).expect("valid JSON"),
            true,
        )
    }

    #[test]
    fn minimal_requests_decode_with_defaults() {
        let env = decode(r#"{"id":1,"kind":"ping"}"#).expect("decodes");
        assert_eq!(env.id, 1);
        assert_eq!(env.tenant, "anon");
        assert_eq!(env.deadline_ms, None);
        assert!(!env.progress);
        assert_eq!(env.kind, RequestKind::Ping);

        let env = decode(r#"{"id":2,"kind":"bind","params":{"kernel":"fir"}}"#).expect("decodes");
        match env.kind {
            RequestKind::Work(Work::Bind {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                locked_inputs,
                num_candidates,
            }) => {
                assert_eq!(kernel.name(), "fir");
                assert_eq!(frames, 120);
                assert_eq!(seed, 2021);
                assert_eq!(class, FuClass::Adder);
                assert_eq!((locked_fus, locked_inputs, num_candidates), (1, 2, 8));
            }
            other => panic!("expected bind work, got {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_are_rejected_at_both_levels() {
        let err = decode(r#"{"id":1,"kind":"ping","bogus":true}"#).expect_err("rejects");
        assert_eq!(err.code, code::UNKNOWN_FIELD);
        assert!(err.message.contains("bogus"), "{}", err.message);
        let err = decode(r#"{"id":1,"kind":"bind","params":{"kernel":"fir","fames":9}}"#)
            .expect_err("rejects");
        assert_eq!(err.code, code::UNKNOWN_FIELD);
        assert!(err.message.contains("params.fames"), "{}", err.message);
    }

    #[test]
    fn missing_and_mistyped_fields_have_distinct_codes() {
        assert_eq!(
            decode(r#"{"kind":"ping"}"#).unwrap_err().code,
            code::MISSING_FIELD
        );
        assert_eq!(
            decode(r#"{"id":"one","kind":"ping"}"#).unwrap_err().code,
            code::BAD_TYPE
        );
        assert_eq!(
            decode(r#"{"id":1,"kind":"bind","params":{"kernel":"fir","frames":3.5}}"#)
                .unwrap_err()
                .code,
            code::BAD_TYPE
        );
        assert_eq!(
            decode(r#"{"id":1,"kind":"bind","params":{"kernel":"fir","seed":-4}}"#)
                .unwrap_err()
                .code,
            code::BAD_VALUE
        );
    }

    #[test]
    fn vocabulary_errors_name_the_accepted_values() {
        let err = decode(r#"{"id":1,"kind":"bind","params":{"kernel":"nope"}}"#).unwrap_err();
        assert_eq!(err.code, code::BAD_VALUE);
        assert!(err.message.contains("fir"), "{}", err.message);
        let err = decode(r#"{"id":1,"kind":"teleport"}"#).unwrap_err();
        assert_eq!(err.code, code::UNKNOWN_KIND);
        assert!(err.message.contains("sat_attack"), "{}", err.message);
        let err = decode(r#"{"id":1,"kind":"bind","params":{"kernel":"fir","locked_fus":9}}"#)
            .unwrap_err();
        assert_eq!(err.code, code::BAD_VALUE);
        assert!(err.message.contains("between 1 and 3"), "{}", err.message);
    }

    #[test]
    fn sleep_is_gated_behind_debug_kinds() {
        let doc = lockbind_obs::json::parse(br#"{"id":1,"kind":"sleep"}"#).expect("valid");
        assert!(decode_request(&doc, true).is_ok());
        assert_eq!(
            decode_request(&doc, false).unwrap_err().code,
            code::KIND_DISABLED
        );
    }

    #[test]
    fn canonical_identity_ignores_envelope_fields() {
        let a = decode(r#"{"id":1,"tenant":"alice","kind":"bind","params":{"kernel":"fir"}}"#)
            .expect("decodes");
        let b = decode(
            r#"{"id":99,"tenant":"bob","deadline_ms":5,"kind":"bind","params":{"kernel":"fir"}}"#,
        )
        .expect("decodes");
        let (RequestKind::Work(wa), RequestKind::Work(wb)) = (a.kind, b.kind) else {
            panic!("work kinds");
        };
        assert_eq!(wa.canonical(), wb.canonical());
        assert_eq!(wa.seed_from_content(), wb.seed_from_content());
        let c = decode(r#"{"id":1,"kind":"bind","params":{"kernel":"dct"}}"#).expect("decodes");
        let RequestKind::Work(wc) = c.kind else {
            panic!("work kind");
        };
        assert_ne!(wa.canonical(), wc.canonical());
        assert_ne!(wa.seed_from_content(), wc.seed_from_content());
    }

    /// `canonical` keys the durable cache and `seed_from_content` seeds
    /// each request's RNG, so both are pinned byte for byte, one request
    /// per work kind.
    #[test]
    fn canonical_bytes_and_seeds_are_pinned() {
        let pins = [
            (
                r#"{"id":1,"kind":"bind","params":{"kernel":"fir"}}"#,
                "62696e6400666972007800000000000000e5070000000000000000000000000000010000000000000002000000000000000800000000000000",
                16179965715831425190u64,
            ),
            (
                r#"{"id":1,"kind":"codesign","params":{"kernel":"dct","class":"multiplier","locked_fus":2}}"#,
                "636f64657369676e00646374007800000000000000e5070000000000000100000000000000020000000000000002000000000000000800000000000000",
                8645228010145244087,
            ),
            (
                r#"{"id":1,"kind":"error_rate","params":{"kernel":"motion2","locked_inputs":3,"optimal_budget":0}}"#,
                "6572726f725f72617465006d6f74696f6e32007800000000000000e5070000000000000000000000000000010000000000000003000000000000000800000000000000f4010000000000000000000000000000",
                7843505651758314529,
            ),
            (
                r#"{"id":1,"kind":"locked_sim","params":{"kernel":"jdmerge4","frames":60,"seed":5}}"#,
                "6c6f636b65645f73696d006a646d6572676534003c000000000000000500000000000000",
                10852089468561396224,
            ),
            (
                r#"{"id":1,"kind":"sat_attack","params":{"scheme":"anti-sat","width":4}}"#,
                "7361745f61747461636b00616e74692d736174000400000000000000",
                12841270228770117931,
            ),
            (
                r#"{"id":1,"kind":"sleep","params":{"ms":5}}"#,
                "736c656570000500000000000000",
                10303351039752128509,
            ),
        ];
        for (request, hex, seed) in pins {
            let RequestKind::Work(work) = decode(request).expect("decodes").kind else {
                panic!("work kind: {request}");
            };
            let canonical: String = work
                .canonical()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(canonical, hex, "{request}");
            assert_eq!(work.seed_from_content(), seed, "{request}");
        }
    }

    #[test]
    fn tenant_names_are_bounded() {
        assert_eq!(
            decode(r#"{"id":1,"kind":"ping","tenant":""}"#)
                .unwrap_err()
                .code,
            code::BAD_VALUE
        );
        assert_eq!(
            decode(r#"{"id":1,"kind":"ping","tenant":"has space"}"#)
                .unwrap_err()
                .code,
            code::BAD_VALUE
        );
        assert!(decode(r#"{"id":1,"kind":"ping","tenant":"team-a.svc_7"}"#).is_ok());
    }

    #[test]
    fn responses_echo_ids_and_statuses() {
        let ok = response_ok(
            Json::UInt(7),
            "ping",
            Json::obj([("pong", Json::from(true))]),
        );
        assert_eq!(
            ok.render(),
            r#"{"id":7,"type":"response","kind":"ping","status":"ok","result":{"pong":true}}"#
        );
        let err = response_error(Json::Null, "?", status::ERROR, code::BAD_JSON, "nope");
        assert!(
            err.render().starts_with(r#"{"id":null,"#),
            "{}",
            err.render()
        );
        let ev = progress_event(7, 2, "prepare.kernel");
        assert_eq!(
            ev.render(),
            r#"{"id":7,"type":"progress","ordinal":2,"span":"prepare.kernel"}"#
        );
    }
}
