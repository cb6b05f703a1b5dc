//! Run metrics: wall time, throughput, per-stage/per-cell timing, cache
//! effectiveness, and the observability-registry delta — plus a
//! hand-rolled JSON export.
//!
//! The JSON schema is versioned (`schema_version`). Version 2 added
//! `cells_skipped` (fail-fast skips, previously lumped into
//! `cells_failed`) and the `obs` object carrying the per-run counter /
//! gauge / histogram / timer aggregates from the `lockbind-obs` registry.
//! Version 3 added the resilience counters `cells_timed_out` (deadline
//! cancellations, split out of `cells_failed`), `cells_retried` (total
//! retry attempts spent), and `cells_resumed` (cells spliced in from a
//! checkpoint); all earlier fields are unchanged.
//! Version 4 added the artifact-check fields `cells_check_failed` (failed
//! cells whose message carries the `lockbind-check` failure prefix — a
//! subset of `cells_failed`) and the `check_codes` object mapping each
//! `LBxxxx` diagnostic code to its occurrence count across failure
//! messages; all earlier fields are unchanged.
//! Version 5 added the `serve` object ([`ServeAggregates`]): request
//! aggregates derived from the `serve.*` counters the `lockbind-serve`
//! daemon records on the obs registry — all zeros for batch (figure / CLI)
//! runs; all earlier fields are unchanged.
//! Version 6 added the `audit` object ([`AuditAggregates`]): LB07xx
//! structural-security findings derived from the `audit.*` counters the
//! `lockbind-check` audit passes record on the obs registry — all zeros
//! unless the run enabled the audit (`--audit`); all earlier fields are
//! unchanged.
//! Version 7 moved the `obs.histograms` members to the shared log-linear
//! bucket layout (`lockbind_obs::hist`): each histogram is an object of
//! its non-empty buckets, `{"upper": count}`, replacing the old
//! `bounds`/`counts` arrays; all other fields are unchanged.
//! Version 8 dropped the `timers` member of the `obs` object: spans are
//! the one way to time a scope, and they are exported by `--trace` /
//! `--profile`, not in the metrics JSON; all other fields are unchanged.

use std::time::Duration;

use lockbind_obs::MetricsSnapshot;

use crate::cache::CacheStats;
use lockbind_obs::Json;

/// JSON schema version written by [`RunMetrics::to_json`].
pub const METRICS_SCHEMA_VERSION: u64 = 8;

/// Request aggregates recorded by the serve daemon on the obs registry,
/// one counter per terminal response status plus the coalescing count.
/// Derived from the run's obs delta by [`ServeAggregates::from_obs`], so a
/// batch run (no daemon) reports all zeros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeAggregates {
    /// Requests read off the wire (every kind, before validation).
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `error` (validation or execution failure).
    pub errors: u64,
    /// Requests shed by admission control (queue/tenant bounds, drain).
    pub shed: u64,
    /// Requests whose deadline fired (queued or executing).
    pub deadline_exceeded: u64,
    /// Requests cancelled explicitly mid-flight.
    pub interrupted: u64,
    /// Work requests answered from another request's in-flight or cached
    /// build (response-level single-flight).
    pub coalesced: u64,
    /// Live telemetry snapshot (the `lockbind-telemetry` hub's JSON
    /// document), attached by the daemon via
    /// [`with_telemetry`](Self::with_telemetry). `None` for batch runs —
    /// and omitted from [`to_json`](Self::to_json) when `None`, so the
    /// committed batch metrics goldens are unchanged by its existence.
    pub telemetry: Option<Json>,
}

impl ServeAggregates {
    /// Counter name: requests read off the wire.
    pub const REQUESTS: &'static str = "serve.requests";
    /// Counter name: `ok` responses.
    pub const OK: &'static str = "serve.ok";
    /// Counter name: `error` responses.
    pub const ERRORS: &'static str = "serve.error";
    /// Counter name: `shed` responses.
    pub const SHED: &'static str = "serve.shed";
    /// Counter name: `deadline_exceeded` responses.
    pub const DEADLINE_EXCEEDED: &'static str = "serve.deadline_exceeded";
    /// Counter name: `interrupted` responses.
    pub const INTERRUPTED: &'static str = "serve.interrupted";
    /// Counter name: coalesced work responses.
    pub const COALESCED: &'static str = "serve.coalesced";

    /// Pulls the `serve.*` aggregates out of an obs snapshot (typically a
    /// per-run delta). Unknown `serve.*` counters are ignored; missing
    /// ones read as zero.
    pub fn from_obs(obs: &MetricsSnapshot) -> Self {
        let get = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
        ServeAggregates {
            requests: get(Self::REQUESTS),
            ok: get(Self::OK),
            errors: get(Self::ERRORS),
            shed: get(Self::SHED),
            deadline_exceeded: get(Self::DEADLINE_EXCEEDED),
            interrupted: get(Self::INTERRUPTED),
            coalesced: get(Self::COALESCED),
            telemetry: None,
        }
    }

    /// Attaches a live telemetry snapshot document (the serve daemon's
    /// `introspect` body) to the aggregates.
    #[must_use]
    pub fn with_telemetry(mut self, snapshot: Json) -> Self {
        self.telemetry = Some(snapshot);
        self
    }

    /// `true` when no serve activity was recorded (batch runs).
    pub fn is_empty(&self) -> bool {
        *self == ServeAggregates::default()
    }

    /// The aggregates as a JSON object (field order fixed; `telemetry`
    /// appears only when attached).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("error", Json::from(self.errors)),
            ("shed", Json::from(self.shed)),
            ("deadline_exceeded", Json::from(self.deadline_exceeded)),
            ("interrupted", Json::from(self.interrupted)),
            ("coalesced", Json::from(self.coalesced)),
        ];
        if let Some(telemetry) = &self.telemetry {
            fields.push(("telemetry", telemetry.clone()));
        }
        Json::obj(fields)
    }
}

/// LB07xx structural-audit aggregates recorded by the `lockbind-check`
/// audit passes on the obs registry. Derived from the run's obs delta by
/// [`AuditAggregates::from_obs`], so a run without `--audit` reports all
/// zeros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditAggregates {
    /// Locked netlists audited.
    pub netlists: u64,
    /// Findings emitted, at any severity.
    pub findings: u64,
    /// Error-severity findings (structural security defects).
    pub errors: u64,
    /// Warning-severity findings (leakage scorecard entries).
    pub warnings: u64,
    /// Per-code finding counts (`LBxxxx` → count), sorted by code. Pulled
    /// from the `audit.code.*` counter namespace.
    pub codes: Vec<(String, u64)>,
}

impl AuditAggregates {
    /// Counter name: netlists audited.
    pub const NETLISTS: &'static str = "audit.netlists";
    /// Counter name: findings at any severity.
    pub const FINDINGS: &'static str = "audit.findings";
    /// Counter name: error-severity findings.
    pub const ERRORS: &'static str = "audit.errors";
    /// Counter name: warning-severity findings.
    pub const WARNINGS: &'static str = "audit.warnings";
    /// Prefix of the per-code counters (`audit.code.LB0704` etc.).
    pub const CODE_PREFIX: &'static str = "audit.code.";

    /// Pulls the `audit.*` aggregates out of an obs snapshot (typically a
    /// per-run delta). Missing counters read as zero; every counter under
    /// [`CODE_PREFIX`](Self::CODE_PREFIX) becomes a per-code entry.
    pub fn from_obs(obs: &MetricsSnapshot) -> Self {
        let get = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
        let mut codes: Vec<(String, u64)> = obs
            .counters
            .iter()
            .filter_map(|(name, count)| {
                name.strip_prefix(Self::CODE_PREFIX)
                    .map(|code| (code.to_string(), *count))
            })
            .collect();
        codes.sort();
        AuditAggregates {
            netlists: get(Self::NETLISTS),
            findings: get(Self::FINDINGS),
            errors: get(Self::ERRORS),
            warnings: get(Self::WARNINGS),
            codes,
        }
    }

    /// `true` when no audit activity was recorded (runs without `--audit`).
    pub fn is_empty(&self) -> bool {
        *self == AuditAggregates::default()
    }

    /// The aggregates as a JSON object (field order fixed).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("netlists", Json::from(self.netlists)),
            ("findings", Json::from(self.findings)),
            ("errors", Json::from(self.errors)),
            ("warnings", Json::from(self.warnings)),
            (
                "codes",
                Json::obj(
                    self.codes
                        .iter()
                        .map(|(code, count)| (code.as_str(), Json::from(*count))),
                ),
            ),
        ])
    }
}

impl CacheStats {
    /// The stats accumulated *since* `earlier` (the cache is shared across
    /// runs, so per-run metrics subtract the pre-run snapshot).
    pub fn delta_from(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// Wall time of one cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Cell label.
    pub cell: String,
    /// The cell's stage name.
    pub stage: String,
    /// Wall time of the cell body (including cache lookups/builds).
    pub wall: Duration,
}

/// Aggregated wall time of one stage across all its cells.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage name.
    pub stage: String,
    /// Cells executed in this stage.
    pub cells: usize,
    /// Summed cell wall time (CPU-side; overlaps across workers).
    pub wall: Duration,
}

/// Everything measured during one [`crate::Engine::run`].
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Worker threads actually used.
    pub threads: usize,
    /// Root seed the per-cell streams were split from.
    pub root_seed: u64,
    /// Cells submitted.
    pub cells_total: usize,
    /// Cells that completed.
    pub cells_ok: usize,
    /// Cells that failed (error or panic); excludes fail-fast skips and
    /// deadline timeouts.
    pub cells_failed: usize,
    /// Cells never started because fail-fast aborted the run.
    pub cells_skipped: usize,
    /// Cells cancelled by the per-cell deadline.
    pub cells_timed_out: usize,
    /// Total retry attempts spent across all cells.
    pub cells_retried: usize,
    /// Cells restored from a resume checkpoint instead of executed.
    pub cells_resumed: usize,
    /// Failed cells rejected by the `lockbind-check` pass suite (their
    /// message starts with the check-failure prefix) — a subset of
    /// [`cells_failed`](Self::cells_failed).
    pub cells_check_failed: usize,
    /// `LBxxxx` diagnostic codes extracted from check-failure messages,
    /// with occurrence counts, sorted by code.
    pub check_codes: Vec<(String, usize)>,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Executed cells per wall-clock second.
    pub cells_per_sec: f64,
    /// Artifact-cache activity during this run.
    pub cache: CacheStats,
    /// Per-stage aggregation.
    pub stages: Vec<StageMetrics>,
    /// Per-cell timings, in cell order (executed cells only).
    pub cells: Vec<CellTiming>,
    /// Observability-registry activity during this run (counters, gauges,
    /// histograms).
    pub obs: MetricsSnapshot,
    /// Serve-daemon request aggregates from the run's `serve.*` counters
    /// (all zeros for batch runs).
    pub serve: ServeAggregates,
    /// LB07xx structural-audit aggregates from the run's `audit.*`
    /// counters (all zeros unless the run enabled the audit).
    pub audit: AuditAggregates,
}

impl RunMetrics {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        threads: usize,
        root_seed: u64,
        cells_total: usize,
        cells_ok: usize,
        cells_skipped: usize,
        cells_timed_out: usize,
        cells_retried: usize,
        cells_resumed: usize,
        cells_check_failed: usize,
        check_codes: Vec<(String, usize)>,
        wall: Duration,
        cache: CacheStats,
        stage_acc: Vec<(&'static str, usize, Duration)>,
        cells: Vec<CellTiming>,
        obs: MetricsSnapshot,
    ) -> Self {
        let executed = cells.len();
        let cells_per_sec = if wall.as_secs_f64() > 0.0 {
            executed as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let serve = ServeAggregates::from_obs(&obs);
        let audit = AuditAggregates::from_obs(&obs);
        RunMetrics {
            threads,
            root_seed,
            cells_total,
            cells_ok,
            cells_failed: cells_total - cells_ok - cells_skipped - cells_timed_out,
            cells_skipped,
            cells_timed_out,
            cells_retried,
            cells_resumed,
            cells_check_failed,
            check_codes,
            wall,
            cells_per_sec,
            cache,
            stages: stage_acc
                .into_iter()
                .map(|(stage, cells, wall)| StageMetrics {
                    stage: stage.to_string(),
                    cells,
                    wall,
                })
                .collect(),
            cells,
            obs,
            serve,
            audit,
        }
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        let skipped = if self.cells_skipped > 0 {
            format!(", {} skipped", self.cells_skipped)
        } else {
            String::new()
        };
        let timed_out = if self.cells_timed_out > 0 {
            format!(", {} timed out", self.cells_timed_out)
        } else {
            String::new()
        };
        let resumed = if self.cells_resumed > 0 {
            format!(", {} resumed", self.cells_resumed)
        } else {
            String::new()
        };
        let check_failed = if self.cells_check_failed > 0 {
            format!(", {} check-failed", self.cells_check_failed)
        } else {
            String::new()
        };
        format!(
            "{} cells ({} ok, {} failed{check_failed}{skipped}{timed_out}{resumed}) in {:.2}s on {} threads | {:.1} cells/s | cache {}h/{}m ({:.0}% hit)",
            self.cells_total,
            self.cells_ok,
            self.cells_failed,
            self.wall.as_secs_f64(),
            self.threads,
            self.cells_per_sec,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        )
    }

    /// The full metrics tree as JSON (schema version
    /// [`METRICS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(METRICS_SCHEMA_VERSION)),
            ("threads", Json::from(self.threads)),
            ("root_seed", Json::from(self.root_seed)),
            ("cells_total", Json::from(self.cells_total)),
            ("cells_ok", Json::from(self.cells_ok)),
            ("cells_failed", Json::from(self.cells_failed)),
            ("cells_skipped", Json::from(self.cells_skipped)),
            ("cells_timed_out", Json::from(self.cells_timed_out)),
            ("cells_retried", Json::from(self.cells_retried)),
            ("cells_resumed", Json::from(self.cells_resumed)),
            ("cells_check_failed", Json::from(self.cells_check_failed)),
            (
                "check_codes",
                Json::obj(
                    self.check_codes
                        .iter()
                        .map(|(code, count)| (code.as_str(), Json::from(*count))),
                ),
            ),
            ("wall_seconds", Json::from(self.wall.as_secs_f64())),
            ("cells_per_sec", Json::from(self.cells_per_sec)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(self.cache.hits)),
                    ("misses", Json::from(self.cache.misses)),
                    ("entries", Json::from(self.cache.entries)),
                    ("hit_rate", Json::from(self.cache.hit_rate())),
                ]),
            ),
            (
                "stages",
                Json::arr(self.stages.iter().map(|s| {
                    Json::obj([
                        ("stage", Json::from(s.stage.as_str())),
                        ("cells", Json::from(s.cells)),
                        ("wall_seconds", Json::from(s.wall.as_secs_f64())),
                    ])
                })),
            ),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    Json::obj([
                        ("cell", Json::from(c.cell.as_str())),
                        ("stage", Json::from(c.stage.as_str())),
                        ("wall_seconds", Json::from(c.wall.as_secs_f64())),
                    ])
                })),
            ),
            ("serve", self.serve.to_json()),
            ("audit", self.audit.to_json()),
            ("obs", self.obs.to_json()),
        ])
    }

    /// Writes the JSON export to `path`, creating parent directories.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json().render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_json_cover_counters() {
        let mut obs = MetricsSnapshot::default();
        obs.counters.insert("matching.solves".to_string(), 123);
        let metrics = RunMetrics::new(
            4,
            2021,
            10,
            9,
            0,
            0,
            0,
            0,
            1,
            vec![("LB0304".to_string(), 2)],
            Duration::from_millis(500),
            CacheStats {
                hits: 30,
                misses: 10,
                entries: 10,
            },
            vec![("error-cell", 10, Duration::from_millis(450))],
            vec![CellTiming {
                cell: "fir/add/1x1".to_string(),
                stage: "error-cell".to_string(),
                wall: Duration::from_millis(45),
            }],
            obs,
        );
        assert_eq!(metrics.cells_failed, 1);
        assert_eq!(metrics.cells_skipped, 0);
        assert!((metrics.cells_per_sec - 2.0).abs() < 1e-9);
        let summary = metrics.summary();
        assert!(summary.contains("9 ok"), "{summary}");
        assert!(summary.contains("75% hit"), "{summary}");
        assert!(!summary.contains("skipped"), "{summary}");
        assert!(summary.contains("1 check-failed"), "{summary}");
        let json = metrics.to_json().render();
        assert!(json.contains("\"schema_version\":8"));
        assert!(!json.contains("timers"), "v8 has no timer section: {json}");
        assert!(json.contains("\"cells_check_failed\":1"));
        assert!(json.contains("\"check_codes\":{\"LB0304\":2}"));
        assert!(json.contains("\"root_seed\":2021"));
        assert!(json.contains("\"hit_rate\":0.75"));
        assert!(json.contains("\"stage\":\"error-cell\""));
        assert!(json.contains("\"matching.solves\":123"));
        assert!(
            json.contains(
                "\"serve\":{\"requests\":0,\"ok\":0,\"error\":0,\"shed\":0,\
                 \"deadline_exceeded\":0,\"interrupted\":0,\"coalesced\":0}"
            ),
            "batch runs export all-zero serve aggregates: {json}"
        );
        assert!(
            json.contains(
                "\"audit\":{\"netlists\":0,\"findings\":0,\"errors\":0,\
                 \"warnings\":0,\"codes\":{}}"
            ),
            "non-audit runs export all-zero audit aggregates: {json}"
        );
    }

    #[test]
    fn audit_aggregates_read_the_audit_namespace() {
        let mut obs = MetricsSnapshot::default();
        obs.counters
            .insert(AuditAggregates::NETLISTS.to_string(), 5);
        obs.counters
            .insert(AuditAggregates::FINDINGS.to_string(), 9);
        obs.counters
            .insert(AuditAggregates::WARNINGS.to_string(), 9);
        obs.counters.insert("audit.code.LB0721".to_string(), 3);
        obs.counters.insert("audit.code.LB0704".to_string(), 6);
        obs.counters.insert("audit.unrelated".to_string(), 99);
        let agg = AuditAggregates::from_obs(&obs);
        assert_eq!(agg.netlists, 5);
        assert_eq!(agg.findings, 9);
        assert_eq!(agg.errors, 0, "missing counters read as zero");
        assert_eq!(agg.warnings, 9);
        assert_eq!(
            agg.codes,
            vec![("LB0704".to_string(), 6), ("LB0721".to_string(), 3)],
            "codes are sorted"
        );
        assert!(!agg.is_empty());
        assert!(AuditAggregates::default().is_empty());
        assert_eq!(
            agg.to_json().render(),
            "{\"netlists\":5,\"findings\":9,\"errors\":0,\"warnings\":9,\
             \"codes\":{\"LB0704\":6,\"LB0721\":3}}"
        );
    }

    #[test]
    fn serve_aggregates_read_the_serve_namespace() {
        let mut obs = MetricsSnapshot::default();
        obs.counters
            .insert(ServeAggregates::REQUESTS.to_string(), 40);
        obs.counters.insert(ServeAggregates::OK.to_string(), 30);
        obs.counters.insert(ServeAggregates::SHED.to_string(), 6);
        obs.counters
            .insert(ServeAggregates::DEADLINE_EXCEEDED.to_string(), 2);
        obs.counters
            .insert(ServeAggregates::INTERRUPTED.to_string(), 1);
        obs.counters
            .insert(ServeAggregates::COALESCED.to_string(), 12);
        obs.counters.insert("serve.unrelated".to_string(), 99);
        let agg = ServeAggregates::from_obs(&obs);
        assert_eq!(agg.requests, 40);
        assert_eq!(agg.ok, 30);
        assert_eq!(agg.errors, 0, "missing counters read as zero");
        assert_eq!(agg.shed, 6);
        assert_eq!(agg.deadline_exceeded, 2);
        assert_eq!(agg.interrupted, 1);
        assert_eq!(agg.coalesced, 12);
        assert!(!agg.is_empty());
        assert!(ServeAggregates::default().is_empty());
        assert_eq!(
            agg.to_json().render(),
            "{\"requests\":40,\"ok\":30,\"error\":0,\"shed\":6,\
             \"deadline_exceeded\":2,\"interrupted\":1,\"coalesced\":12}"
        );
    }

    #[test]
    fn telemetry_attachment_is_optional_and_order_stable() {
        let base = ServeAggregates::default();
        assert!(
            !base.to_json().render().contains("telemetry"),
            "batch aggregates must not grow a telemetry key"
        );
        let with = base
            .clone()
            .with_telemetry(Json::obj([("uptime_us", Json::from(5u64))]));
        assert!(!with.is_empty(), "an attached snapshot is serve activity");
        assert_eq!(
            with.to_json().render(),
            "{\"requests\":0,\"ok\":0,\"error\":0,\"shed\":0,\"deadline_exceeded\":0,\
             \"interrupted\":0,\"coalesced\":0,\"telemetry\":{\"uptime_us\":5}}"
        );
    }

    #[test]
    fn skipped_cells_are_split_out_of_failures() {
        let metrics = RunMetrics::new(
            2,
            7,
            10,
            4,
            5,
            0,
            0,
            0,
            0,
            Vec::new(),
            Duration::from_millis(100),
            CacheStats::default(),
            Vec::new(),
            Vec::new(),
            MetricsSnapshot::default(),
        );
        assert_eq!(metrics.cells_failed, 1, "skips are not failures");
        assert_eq!(metrics.cells_skipped, 5);
        let summary = metrics.summary();
        assert!(summary.contains("1 failed, 5 skipped"), "{summary}");
        let json = metrics.to_json().render();
        assert!(json.contains("\"cells_skipped\":5"), "{json}");
    }

    #[test]
    fn cache_delta_subtracts_snapshot() {
        let before = CacheStats {
            hits: 5,
            misses: 3,
            entries: 3,
        };
        let after = CacheStats {
            hits: 25,
            misses: 4,
            entries: 4,
        };
        let delta = after.delta_from(before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (20, 1, 4));
    }
}
