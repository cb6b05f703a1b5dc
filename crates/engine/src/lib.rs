//! Parallel experiment-execution engine for the lockbind evaluation suite.
//!
//! The paper's figures are grids of independent *cells* (kernel x FU class x
//! locking configuration x algorithm set). This crate runs any such grid on a
//! worker pool with:
//!
//! * **Determinism** — per-cell RNGs are derived from one root seed via
//!   ChaCha stream splitting (stream id = cell index), so results are
//!   bit-identical to a serial run at any worker count.
//! * **Artifact caching** — a content-keyed, type-erased in-memory cache
//!   ([`ArtifactCache`]) memoizes expensive locking-independent artifacts
//!   (prepared kernels, candidate lists) across cells, with hit/miss
//!   counters.
//! * **Panic isolation** — each cell runs under `catch_unwind`; a panicking
//!   or erroring cell becomes [`CellResult::Failed`] without taking down the
//!   run (opt out with fail-fast).
//! * **Observability** — cell counts, cells/sec, cache hit rate, and a
//!   live progress line; exportable as hand-rolled JSON
//!   ([`RunMetrics::to_json`]). Each cell runs inside a `lockbind-obs`
//!   cell scope and stage span, the one timer of a cell: the shared CLI's
//!   `--trace` / `--profile` flags ([`EngineArgs::obs_session`]) export a
//!   chrome://tracing trace and a per-stage profile table for any figure
//!   binary.
//!
//! * **Artifact checking** — the shared CLI's `--check` / `--no-check`
//!   flags (on by default in debug builds) ask check-aware jobs to lint
//!   their final artifacts with `lockbind-check`; a rejected cell is an
//!   ordinary failure carrying the job's message, and the checking crates
//!   count their verdicts on the obs registry, which the run metrics
//!   export as they stand.
//! * **Resilience** — opt-in per-cell deadlines backed by cooperative
//!   [`CancelToken`](lockbind_resil::CancelToken)s ([`JobCtx::cancel`]),
//!   deterministic retry-with-backoff (attempt-indexed RNG streams), sweep
//!   checkpoint/resume (a fingerprinted `lockbind_durable` segment store,
//!   [`checkpoint`]), and a seed-driven fault-injection plan
//!   ([`FaultPlan`](lockbind_resil::FaultPlan)) to drill all of the above.
//!   Every cell that did not complete, timed-out ones included, is in the
//!   run's [`failure_list`], which [`ObsSession::end_run`] prints before
//!   the binary exits 1.
//!
//! The engine is experiment-agnostic: anything implementing [`Job`] can be
//! scheduled. The concrete cell types live in `lockbind-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod cli;
pub mod metrics;
pub mod pool;

pub use cache::{fnv1a, ArtifactCache, CacheKey, CacheStats};
pub use checkpoint::CHECKPOINT_SCHEMA;
pub use cli::{EngineArgs, ObsSession};
pub use metrics::{RunMetrics, METRICS_SCHEMA_VERSION};
pub use pool::{failure_list, CellResult, Engine, EngineConfig, Job, JobCtx, RunReport};
