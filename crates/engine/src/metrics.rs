//! Run metrics: cell counts, wall time, throughput, cache effectiveness,
//! and the observability-registry delta — plus a hand-rolled JSON export.
//! Per-cell and per-stage time is the engine's stage span, exported by
//! `--trace` / `--profile`.
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
//! Version 10 dropped the `stages` and `cells` timing arrays: they timed
//! the same scope as the engine's per-cell stage span, which `--trace` and
//! `--profile` export. `cells_per_sec` still counts executed cells only;
//! all other fields are unchanged.

use std::time::Duration;

use lockbind_obs::MetricsSnapshot;

use crate::cache::CacheStats;
use lockbind_obs::Json;

/// JSON schema version written by [`RunMetrics::to_json`].
pub const METRICS_SCHEMA_VERSION: u64 = 10;

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
        obs: MetricsSnapshot,
    ) -> Self {
        let executed = cells_total - cells_resumed - cells_skipped;
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
            2,
            Duration::from_millis(500),
            CacheStats {
                hits: 30,
                misses: 10,
                entries: 10,
            },
            obs,
        );
        assert_eq!(metrics.cells_failed, 1);
        assert_eq!(metrics.cells_skipped, 0);
        // 8 executed cells (10 less 2 resumed) in half a second.
        assert!((metrics.cells_per_sec - 16.0).abs() < 1e-9);
        let summary = metrics.summary();
        assert!(summary.contains("9 ok"), "{summary}");
        assert!(summary.contains("75% hit"), "{summary}");
        assert!(!summary.contains("skipped"), "{summary}");
        let json = metrics.to_json().render();
        assert!(json.contains("\"schema_version\":10"));
        assert!(!json.contains("timers"), "v8 has no timer section: {json}");
        assert!(json.contains("\"root_seed\":2021"));
        assert!(json.contains("\"hit_rate\":0.75"));
        for member in ["\"stages\"", "\"cells\""] {
            assert!(
                !json.contains(member),
                "v10 has no {member} timings: {json}"
            );
        }
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
