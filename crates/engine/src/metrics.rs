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
//! Version 4 added the artifact-check fields `cells_check_failed` and
//! `check_codes`, parsed from check-failure messages; version 5 added the
//! `serve` object of daemon request aggregates; version 6 added the
//! `audit` object of structural-audit findings. Version 9 removed all
//! three (see below).
//! Version 7 moved the `obs.histograms` members to the shared log-linear
//! bucket layout (`lockbind_obs::hist`): each histogram is an object of
//! its non-empty buckets, `{"upper": count}`, replacing the old
//! `bounds`/`counts` arrays; all other fields are unchanged.
//! Version 8 dropped the `timers` member of the `obs` object: spans are
//! the one way to time a scope, and they are exported by `--trace` /
//! `--profile`, not in the metrics JSON; all other fields are unchanged.
//! Version 9 dropped the members that restated counters other crates
//! record on the obs registry: `serve`, `audit`, `cells_check_failed` and
//! `check_codes`. Each of those counts now lives once, in `obs.counters`
//! under the name of the crate that records it (the serve daemon, the
//! audit passes, and the bench crate's check-rejection and the check
//! crate's per-code counters). The engine also stopped mirroring its
//! top-level `cells_*` fields as obs counters; all other fields are
//! unchanged.

use std::time::Duration;

use lockbind_obs::MetricsSnapshot;

use crate::cache::CacheStats;
use lockbind_obs::Json;

/// JSON schema version written by [`RunMetrics::to_json`].
pub const METRICS_SCHEMA_VERSION: u64 = 9;

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
        format!(
            "{} cells ({} ok, {} failed{skipped}{timed_out}{resumed}) in {:.2}s on {} threads | {:.1} cells/s | cache {}h/{}m ({:.0}% hit)",
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
        let json = metrics.to_json().render();
        assert!(json.contains("\"schema_version\":9"));
        assert!(!json.contains("timers"), "v8 has no timer section: {json}");
        assert!(json.contains("\"root_seed\":2021"));
        assert!(json.contains("\"hit_rate\":0.75"));
        assert!(json.contains("\"stage\":\"error-cell\""));
        assert!(json.contains("\"matching.solves\":123"));
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
