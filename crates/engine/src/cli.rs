//! Shared command-line parsing for the figure binaries.
//!
//! All engine-backed binaries accept the same surface:
//!
//! ```text
//! <bin> [FRAMES] [SEED] [--frames N] [--seed S] [--threads N]
//!       [--json PATH] [--fail-fast] [--trace PATH] [--profile]
//!       [--cell-timeout SECS] [--retries N] [--retry-backoff-ms MS]
//!       [--checkpoint DIR] [--check] [--no-check]
//!       [--audit] [--no-audit]
//! ```
//!
//! The two positionals predate the engine (`fig4 300 2021`) and remain
//! supported; flags win when both are given.
//!
//! `--trace PATH` writes a chrome://tracing-compatible span trace,
//! `--profile` prints a per-stage profile table to stderr at exit; both
//! are serviced by [`EngineArgs::obs_session`], which every figure binary
//! opens before its engine runs. [`ObsSession::end_run`] ends every run
//! the same way: metrics summary, `--json` metrics, trace and profile,
//! then the list of cells that did not complete.
//!
//! The resilience knobs map onto [`EngineConfig`]: `--cell-timeout` sets
//! the per-attempt deadline, `--retries`/`--retry-backoff-ms` the retry
//! policy, and `--checkpoint DIR` the sweep checkpoint store: a run
//! resumes from the cells already in it and appends the cells it
//! completes.
//! A deterministic fault plan can additionally be injected through the
//! `LOCKBIND_FAULTS` environment variable (see
//! [`FaultPlan::parse`](lockbind_resil::FaultPlan::parse) for the spec
//! grammar); it is read by [`EngineArgs::parse`] only, so programmatic
//! parsing stays environment-free.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lockbind_obs as obs;
use lockbind_resil::{FaultPlan, RetryPolicy};

use crate::metrics::RunMetrics;
use crate::pool::EngineConfig;

/// Parsed engine-binary arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineArgs {
    /// Profiling frames per kernel.
    pub frames: usize,
    /// Root seed (kernel preparation and per-cell streams).
    pub seed: u64,
    /// Worker threads; `0` = auto-detect.
    pub threads: usize,
    /// Where to write the run-metrics JSON, if anywhere.
    pub json: Option<PathBuf>,
    /// Abort the grid on the first failed cell.
    pub fail_fast: bool,
    /// Where to write the chrome://tracing span trace, if anywhere.
    pub trace: Option<PathBuf>,
    /// Print a per-stage profile table at end of run.
    pub profile: bool,
    /// Per-attempt cell deadline; `None` = no deadline.
    pub cell_timeout: Option<Duration>,
    /// Retry attempts for erroring/panicking cells.
    pub retries: u32,
    /// Base backoff between retry attempts, in milliseconds (doubles per
    /// attempt, capped by the policy).
    pub retry_backoff_ms: u64,
    /// Sweep checkpoint store directory to resume from and append to, if
    /// any.
    pub checkpoint: Option<PathBuf>,
    /// Fault-injection plan from `LOCKBIND_FAULTS`, if set.
    pub faults: Option<FaultPlan>,
    /// Run the `lockbind-check` pass suite over every cell's artifacts
    /// (`--check` / `--no-check`). Defaults to on in debug builds, off in
    /// release builds.
    pub check: bool,
    /// Run the LB07xx structural-security audit over every cell's locked
    /// netlists (`--audit` / `--no-audit`). Findings reach the run
    /// metrics only through the obs registry; the flag defaults to off.
    pub audit: bool,
}

impl EngineArgs {
    /// Defaults shared by the paper binaries: 300 frames, seed 2021.
    pub fn paper_defaults() -> Self {
        EngineArgs {
            frames: 300,
            seed: 2021,
            threads: 0,
            json: None,
            fail_fast: false,
            trace: None,
            profile: false,
            cell_timeout: None,
            retries: 0,
            retry_backoff_ms: 100,
            checkpoint: None,
            faults: None,
            check: cfg!(debug_assertions),
            audit: false,
        }
    }

    /// Parses `std::env::args` plus the `LOCKBIND_FAULTS` environment
    /// variable and validates filesystem paths, exiting with usage on any
    /// error.
    pub fn parse(bin: &str) -> Self {
        let parsed = Self::parse_from(std::env::args().skip(1), Self::paper_defaults()).and_then(
            |mut args| {
                args.validate_paths()?;
                args.faults = FaultPlan::from_env(args.seed)
                    .map_err(|e| format!("{}: {e}", FaultPlan::ENV_VAR))?;
                Ok(args)
            },
        );
        match parsed {
            Ok(args) => args,
            Err(message) => {
                eprintln!("{bin}: {message}");
                eprintln!("{}", Self::usage(bin));
                std::process::exit(2);
            }
        }
    }

    /// Usage string for `bin`.
    pub fn usage(bin: &str) -> String {
        format!(
            "usage: {bin} [FRAMES] [SEED] [--frames N] [--seed S] [--threads N] [--json PATH] [--fail-fast] [--trace PATH] [--profile] [--cell-timeout SECS] [--retries N] [--retry-backoff-ms MS] [--checkpoint DIR] [--check] [--no-check] [--audit] [--no-audit]"
        )
    }

    /// Parses an explicit argument iterator against `defaults`.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags, missing flag
    /// values, unparsable numbers, or extra positionals.
    pub fn parse_from(
        args: impl Iterator<Item = String>,
        defaults: EngineArgs,
    ) -> Result<Self, String> {
        let mut out = defaults;
        let mut positionals = 0usize;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value_for = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--frames" => out.frames = parse_num(&value_for("--frames")?, "--frames")?,
                "--seed" => out.seed = parse_seed(&value_for("--seed")?, "--seed")?,
                "--threads" => {
                    out.threads = parse_num(&value_for("--threads")?, "--threads")?;
                    if out.threads == 0 {
                        return Err(
                            "--threads: must be at least 1 (omit the flag to auto-detect)"
                                .to_string(),
                        );
                    }
                }
                "--json" => out.json = Some(PathBuf::from(value_for("--json")?)),
                "--fail-fast" => out.fail_fast = true,
                "--trace" => out.trace = Some(PathBuf::from(value_for("--trace")?)),
                "--profile" => out.profile = true,
                "--cell-timeout" => {
                    let secs: f64 = parse_num(&value_for("--cell-timeout")?, "--cell-timeout")?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(format!(
                            "--cell-timeout: must be a positive number of seconds, got {secs}"
                        ));
                    }
                    out.cell_timeout = Some(Duration::from_secs_f64(secs));
                }
                "--retries" => out.retries = parse_num(&value_for("--retries")?, "--retries")?,
                "--retry-backoff-ms" => {
                    out.retry_backoff_ms =
                        parse_num(&value_for("--retry-backoff-ms")?, "--retry-backoff-ms")?;
                }
                "--checkpoint" => out.checkpoint = Some(PathBuf::from(value_for("--checkpoint")?)),
                "--check" => out.check = true,
                "--no-check" => out.check = false,
                "--audit" => out.audit = true,
                "--no-audit" => out.audit = false,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                positional => {
                    match positionals {
                        0 => out.frames = parse_num(positional, "FRAMES")?,
                        1 => out.seed = parse_seed(positional, "SEED")?,
                        _ => return Err(format!("unexpected argument {positional}")),
                    }
                    positionals += 1;
                }
            }
        }
        Ok(out)
    }

    /// Checks every path argument against the filesystem: output files
    /// (`--json`, `--trace`) and the segment file of the `--checkpoint`
    /// directory must be creatable/writable.
    ///
    /// # Errors
    /// A human-readable message naming the offending flag and path.
    pub fn validate_paths(&self) -> Result<(), String> {
        let segment = self
            .checkpoint
            .as_ref()
            .map(|dir| dir.join(lockbind_durable::SEGMENT_FILE));
        for (flag, path) in [
            ("--json", &self.json),
            ("--trace", &self.trace),
            ("--checkpoint", &segment),
        ] {
            if let Some(path) = path {
                probe_writable(flag, path)?;
            }
        }
        Ok(())
    }

    /// The [`EngineConfig`] these arguments describe.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.threads,
            root_seed: self.seed,
            fail_fast: self.fail_fast,
            progress: true,
            cell_timeout: self.cell_timeout,
            retry: RetryPolicy::new(self.retries, Duration::from_millis(self.retry_backoff_ms)),
            faults: self.faults.clone(),
            checkpoint: self.checkpoint.clone(),
            check: self.check,
            audit: self.audit,
        }
    }

    /// Starts an observability session for this invocation: installs the
    /// span collector when `--trace` or `--profile` was given, and
    /// snapshots the metrics registry. Call **before** creating the engine
    /// and [`ObsSession::end_run`] after the last run; the session may span
    /// several `Engine::run` calls (e.g. `ablation`). The session keeps the
    /// `--json` path as it is now, so set a binary's default path first.
    pub fn obs_session(&self) -> ObsSession {
        let enabled = self.trace.is_some() || self.profile;
        let collector = enabled.then(obs::install_collector);
        ObsSession {
            json: self.json.clone(),
            trace: self.trace.clone(),
            profile: self.profile,
            collector,
            before: obs::Registry::global().snapshot(),
            started: Instant::now(),
        }
    }
}

/// An in-flight observability session: holds the span collector and the
/// pre-run registry snapshot backing `--trace` / `--profile`, and the
/// `--json` metrics path.
pub struct ObsSession {
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    profile: bool,
    collector: Option<std::sync::Arc<obs::CollectingSink>>,
    before: obs::MetricsSnapshot,
    started: Instant,
}

impl ObsSession {
    /// Ends an engine binary's run. With the run's `metrics` (binaries
    /// that run several grids pass `None`), prints the summary line and
    /// writes the `--json` metrics; then finishes the session and lists
    /// `failures`, the run's [`failure_list`](crate::failure_list).
    ///
    /// Returns exit status 2 when a metrics or trace file cannot be
    /// written, 1 when any cell failed or timed out, and 0 otherwise.
    pub fn end_run(
        self,
        bin: &str,
        metrics: Option<&RunMetrics>,
        failures: &[(String, String)],
    ) -> ExitCode {
        if let Some(metrics) = metrics {
            eprintln!("[{bin}] {}", metrics.summary());
            if let Some(path) = &self.json {
                if let Err(e) = metrics.write_json(path) {
                    eprintln!("{bin}: cannot write metrics to {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                eprintln!("[{bin}] metrics written to {}", path.display());
            }
        }
        if let Err(e) = self.finish() {
            eprintln!("{bin}: cannot write trace: {e}");
            return ExitCode::from(2);
        }
        if failures.is_empty() {
            return ExitCode::SUCCESS;
        }
        eprintln!("[{bin}] {} cells FAILED:", failures.len());
        for (cell, message) in failures {
            eprintln!("  {cell}: {message}");
        }
        ExitCode::from(1)
    }

    /// Finishes the session: writes the chrome trace (if `--trace`) and
    /// prints the per-stage profile table to stderr (if `--profile`).
    /// A no-op when neither flag was given.
    ///
    /// # Errors
    /// Propagates trace-file write errors.
    pub fn finish(self) -> std::io::Result<()> {
        let Some(collector) = self.collector else {
            return Ok(());
        };
        let spans = collector.drain_sorted();
        obs::trace::set_sink(None);
        if let Some(path) = &self.trace {
            obs::write_chrome_trace(path, &spans)?;
            eprintln!(
                "[obs] {} spans written to {} (open in chrome://tracing or ui.perfetto.dev)",
                spans.len(),
                path.display()
            );
        }
        if self.profile {
            let delta = obs::Registry::global().snapshot().delta_from(&self.before);
            eprintln!(
                "{}",
                obs::render_profile(&spans, &delta, self.started.elapsed())
            );
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what}: invalid number {text:?}"))
}

/// Like [`parse_num`] for seeds, with a dedicated message for negative
/// input (`--seed -1` otherwise reads as a cryptic "invalid number").
fn parse_seed(text: &str, what: &str) -> Result<u64, String> {
    if text.starts_with('-') {
        return Err(format!(
            "{what}: seeds are non-negative 64-bit integers, got {text:?}"
        ));
    }
    parse_num(text, what)
}

/// Probes that `path` is writable by creating parent directories and
/// opening the file for append (existing contents untouched). A fresh
/// probe file is removed again.
fn probe_writable(flag: &str, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!("{flag}: cannot create directory {}: {e}", parent.display())
            })?;
        }
    }
    let existed = path.exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("{flag}: cannot write {}: {e}", path.display()))?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<EngineArgs, String> {
        EngineArgs::parse_from(
            args.iter().map(|s| s.to_string()),
            EngineArgs::paper_defaults(),
        )
    }

    #[test]
    fn defaults_match_paper() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.frames, args.seed, args.threads), (300, 2021, 0));
        assert!(args.json.is_none());
        assert!(!args.fail_fast);
        assert!(args.trace.is_none());
        assert!(!args.profile);
        assert_eq!(
            args.check,
            cfg!(debug_assertions),
            "checks default on in debug builds only"
        );
        assert!(!args.audit, "the audit is opt-in in every build profile");
    }

    #[test]
    fn check_flags_toggle_both_ways() {
        assert!(parse(&["--check"]).unwrap().check);
        assert!(!parse(&["--no-check"]).unwrap().check);
        // Last one wins, like any boolean toggle pair.
        assert!(parse(&["--no-check", "--check"]).unwrap().check);
        assert!(
            !parse(&["--check", "--no-check"])
                .unwrap()
                .engine_config()
                .check
        );
    }

    #[test]
    fn audit_flags_toggle_both_ways() {
        assert!(parse(&["--audit"]).unwrap().audit);
        assert!(!parse(&["--no-audit"]).unwrap().audit);
        assert!(parse(&["--no-audit", "--audit"]).unwrap().audit);
        assert!(
            !parse(&["--audit", "--no-audit"])
                .unwrap()
                .engine_config()
                .audit
        );
    }

    #[test]
    fn positionals_are_frames_then_seed() {
        let args = parse(&["120", "7"]).unwrap();
        assert_eq!((args.frames, args.seed), (120, 7));
        assert!(parse(&["120", "7", "9"]).is_err());
    }

    #[test]
    fn flags_parse_and_win() {
        let args = parse(&[
            "100",
            "--threads",
            "4",
            "--seed",
            "99",
            "--json",
            "results/run.json",
            "--fail-fast",
            "--trace",
            "trace.json",
            "--profile",
        ])
        .unwrap();
        assert_eq!(args.frames, 100);
        assert_eq!(args.seed, 99);
        assert_eq!(args.threads, 4);
        assert_eq!(
            args.json.as_deref(),
            Some(std::path::Path::new("results/run.json"))
        );
        assert!(args.fail_fast);
        assert_eq!(
            args.trace.as_deref(),
            Some(std::path::Path::new("trace.json"))
        );
        assert!(args.profile);
    }

    #[test]
    fn trace_flag_requires_a_path() {
        assert!(parse(&["--trace"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn disabled_session_finishes_without_side_effects() {
        let args = parse(&[]).unwrap();
        let session = args.obs_session();
        assert!(!lockbind_obs::tracing_enabled());
        session.finish().unwrap();
    }

    #[test]
    fn end_run_exits_1_on_failed_cells_and_2_on_write_errors() {
        let args = parse(&[]).unwrap();
        assert_eq!(
            args.obs_session().end_run("t", None, &[]),
            ExitCode::SUCCESS
        );
        let failures = [("cell-0".to_string(), "timed out: deadline".to_string())];
        assert_eq!(
            args.obs_session().end_run("t", None, &failures),
            ExitCode::from(1)
        );

        struct Noop;
        impl crate::Job for Noop {
            type Output = ();
            fn label(&self) -> String {
                "noop".to_string()
            }
            fn run(&self, _: &mut crate::JobCtx<'_>) -> Result<(), String> {
                Ok(())
            }
        }
        let engine = crate::Engine::new(crate::EngineConfig {
            progress: false,
            ..crate::EngineConfig::default()
        });
        let metrics = engine.run(&[Noop]).metrics;
        let dir = std::env::temp_dir().join(format!("lockbind-end-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut args = parse(&[]).unwrap();
        args.json = Some(dir.join("metrics.json"));
        let status = args.obs_session().end_run("t", Some(&metrics), &[]);
        assert_eq!(status, ExitCode::SUCCESS);
        assert!(dir.join("metrics.json").exists(), "--json metrics written");
        // A metrics write error wins over failed cells.
        std::fs::write(dir.join("blocker"), "x").expect("write");
        args.json = Some(dir.join("blocker/metrics.json"));
        let status = args.obs_session().end_run("t", Some(&metrics), &failures);
        assert_eq!(status, ExitCode::from(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["--threads"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["abc"]).unwrap_err().contains("invalid number"));
    }

    #[test]
    fn zero_threads_is_rejected_with_guidance() {
        let err = parse(&["--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("auto-detect"), "{err}");
    }

    #[test]
    fn negative_seed_gets_a_dedicated_message() {
        for args in [&["--seed", "-3"][..], &["300", "-3"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("non-negative"), "{err}");
        }
        assert!(parse(&["--seed", "xyz"])
            .unwrap_err()
            .contains("invalid number"));
    }

    #[test]
    fn resilience_flags_parse_into_the_engine_config() {
        let args = parse(&[
            "--cell-timeout",
            "2.5",
            "--retries",
            "3",
            "--retry-backoff-ms",
            "10",
            "--checkpoint",
            "results/sweep",
        ])
        .unwrap();
        assert_eq!(args.cell_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(args.retries, 3);
        let cfg = args.engine_config();
        assert_eq!(cfg.cell_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(cfg.retry.max_retries, 3);
        assert_eq!(cfg.retry.base_backoff, Duration::from_millis(10));
        assert_eq!(cfg.checkpoint.as_deref(), Some(Path::new("results/sweep")));
        // One flag names the checkpoint; the old second one is gone.
        let err = parse(&["--resume", "results/sweep"]).unwrap_err();
        assert!(err.contains("unknown flag --resume"), "{err}");
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn cell_timeout_must_be_positive() {
        for bad in ["0", "-1", "nan"] {
            let err = parse(&["--cell-timeout", bad]).unwrap_err();
            assert!(err.contains("--cell-timeout"), "{bad}: {err}");
        }
    }

    #[test]
    fn validate_paths_rejects_unwritable_outputs() {
        let dir = std::env::temp_dir().join(format!("lockbind-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");

        // Writable output path passes and leaves no probe litter behind.
        let mut args = parse(&[]).unwrap();
        args.json = Some(dir.join("out/metrics.json"));
        args.validate_paths().expect("writable");
        assert!(!dir.join("out/metrics.json").exists());

        // An output path whose parent is a *file* cannot be created.
        std::fs::write(dir.join("blocker"), "x").expect("write");
        let mut args = parse(&[]).unwrap();
        args.trace = Some(dir.join("blocker/trace.json"));
        let err = args.validate_paths().unwrap_err();
        assert!(err.contains("--trace"), "{err}");

        // The checkpoint directory is created; one under a file cannot be.
        let mut args = parse(&[]).unwrap();
        args.checkpoint = Some(dir.join("sweep"));
        args.validate_paths().expect("creatable");
        assert!(dir.join("sweep").is_dir());
        assert!(!dir.join("sweep/cache.seg").exists(), "probe litter");
        args.checkpoint = Some(dir.join("blocker/sweep"));
        let err = args.validate_paths().unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");

        // An existing directory whose segment file cannot be written is
        // rejected up front, not swept without a checkpoint. (A segment
        // path that is a directory fails for every user; a read-only mode
        // would not bind a process running as root.)
        std::fs::create_dir_all(dir.join("unwritable/cache.seg")).expect("mkdir");
        args.checkpoint = Some(dir.join("unwritable"));
        let err = args.validate_paths().unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_mentions_every_flag() {
        let usage = EngineArgs::usage("fig4");
        for flag in [
            "--frames",
            "--seed",
            "--threads",
            "--json",
            "--fail-fast",
            "--trace",
            "--profile",
            "--cell-timeout",
            "--retries",
            "--retry-backoff-ms",
            "--checkpoint",
            "--check",
            "--no-check",
            "--audit",
            "--no-audit",
        ] {
            assert!(usage.contains(flag), "usage is missing {flag}: {usage}");
        }
    }
}
