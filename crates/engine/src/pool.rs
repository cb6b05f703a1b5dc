//! Deterministic worker pool with panic isolation, cell deadlines, retry,
//! and checkpoint/resume.
//!
//! Jobs are claimed from a shared atomic index and their results stored back
//! by job index, so the *assignment* of jobs to threads is racy but the
//! *output* is not: the result vector is always in job order, and each job's
//! RNG depends only on `(root_seed, job_index, attempt)` — never on which
//! worker ran it or when. Running with 1 thread and with N threads therefore
//! produces bit-identical results.
//!
//! Each job body runs under [`std::panic::catch_unwind`]; a panic or an
//! `Err` return becomes [`CellResult::Failed`] for that cell only. With
//! [`EngineConfig::fail_fast`] the pool instead stops claiming new cells
//! after the first failure and marks the unstarted remainder as skipped —
//! skips are counted separately from failures (`cells_skipped`, plus an
//! `engine.fail_fast_abort` instant event), so an aborted sweep is
//! distinguishable from a short one.
//!
//! Resilience knobs, all off by default:
//!
//! * **Cell deadlines** ([`EngineConfig::cell_timeout`]) — every attempt
//!   gets a fresh [`CancelToken`] with the configured deadline, exposed as
//!   [`JobCtx::cancel`]. Cancel-aware jobs (the SAT solver's conflict loop,
//!   the co-design enumerations) unwind cooperatively; the cell becomes
//!   [`CellResult::TimedOut`] without poisoning its neighbours. Timeouts
//!   are not retried — a deterministic job that hit its deadline once will
//!   hit it again.
//! * **Retry with backoff** ([`EngineConfig::retry`]) — an erroring or
//!   panicking cell is re-attempted up to `max_retries` times with
//!   exponential backoff. Each attempt reseeds deterministically
//!   (ChaCha stream `index + (attempt << 32)`), so attempt 0 reproduces
//!   the retry-free run bit for bit and a transient fault's recovery value
//!   is the same at any worker count.
//! * **Checkpoint/resume** ([`EngineConfig::checkpoint`]) — completed
//!   cells whose job implements [`Job::encode_output`] are appended to a
//!   CRC-framed segment store fingerprinted against the grid; the next run
//!   with the same directory splices them back in job order and only runs
//!   the remainder. See [`crate::checkpoint`].
//! * **Fault injection** ([`EngineConfig::faults`]) — a deterministic
//!   [`FaultPlan`] lets tests inject panics, errors, delays, and hangs at
//!   the engine boundary (plus [`FaultKind::CacheBuild`] surfaced via
//!   [`JobCtx::fault`] for cooperating jobs) to prove the knobs above
//!   compose.
//!
//! Each cell executes inside an `lockbind-obs` [`CellScope`] and a span
//! named by its [`Job::stage`], tagged with the cell index and worker id;
//! traces therefore merge deterministically by cell order at any worker
//! count. The run metrics include the observability-registry delta for the
//! run.
//!
//! [`CellScope`]: lockbind_obs::CellScope

use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lockbind_obs as obs;
use lockbind_obs::json::{self, Json};
use lockbind_obs::trace::{ArgValue, SpanGuard};
use lockbind_resil::{CancelToken, FaultKind, FaultPlan, RetryPolicy};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::cache::ArtifactCache;
use crate::checkpoint;
use crate::metrics::RunMetrics;

/// One schedulable experiment cell.
///
/// Implementations must be pure up to their [`JobCtx`]: the output may
/// depend on the job's own fields, the per-cell RNG/seed, and cached
/// artifacts, but not on global mutable state — that is what makes the
/// parallel run equal to the serial one.
pub trait Job: Send + Sync {
    /// The cell's result payload.
    type Output: Send + 'static;

    /// Human-readable cell label (used in failures, timings, progress).
    fn label(&self) -> String;

    /// Coarse stage name for per-stage metrics aggregation.
    fn stage(&self) -> &'static str {
        "run"
    }

    /// Runs the cell. `Err` (and panics, caught by the pool) become
    /// [`CellResult::Failed`]. Long-running bodies should poll
    /// [`JobCtx::cancel`] (or hand it to cancel-aware callees) so cell
    /// deadlines terminate them cooperatively.
    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String>;

    /// Serializes a completed output as a JSON record for the sweep
    /// checkpoint. `None` (the default) opts this job out of
    /// checkpointing — it simply re-runs on resume.
    fn encode_output(&self, _output: &Self::Output) -> Option<Json> {
        None
    }

    /// Everything the cell's output depends on, mixed into the sweep
    /// checkpoint's grid fingerprint. Defaults to the [`label`](Self::label);
    /// a job that implements [`encode_output`](Self::encode_output) must
    /// override it when its label leaves out a parameter that changes the
    /// output (a frame count, say), or a store written under other
    /// parameters would be spliced into this run.
    fn checkpoint_identity(&self) -> String {
        self.label()
    }

    /// Reads a record previously written by
    /// [`encode_output`](Self::encode_output). `None` discards the
    /// checkpoint entry and re-runs the cell.
    fn decode_output(&self, _payload: &Json) -> Option<Self::Output> {
        None
    }
}

/// Per-cell execution context handed to [`Job::run`].
pub struct JobCtx<'a> {
    /// Index of this cell in the submitted job slice.
    pub index: usize,
    /// Which attempt this is (0 = first run, 1 = first retry, ...).
    pub attempt: u32,
    /// Per-cell seed: the first output of this cell's ChaCha stream. Use it
    /// to seed experiment-local generators that must not depend on worker
    /// count or scheduling order.
    pub seed: u64,
    /// Per-cell RNG: ChaCha12 seeded from the root seed with
    /// `stream = index + (attempt << 32)`, positioned after the
    /// [`seed`](Self::seed) draw. Attempt 0 reproduces the retry-free
    /// stream exactly.
    pub rng: ChaCha12Rng,
    /// Shared artifact cache.
    pub cache: &'a ArtifactCache,
    /// Cancel token for this attempt; fires at the configured cell
    /// deadline (or never, when no deadline is set). Cancel-aware job
    /// bodies poll it or pass it down to cancellable callees.
    pub cancel: CancelToken,
    /// Fault the engine's [`FaultPlan`] selected for this attempt, if any.
    /// Panic/error/delay/hang faults are applied by the engine before the
    /// job body runs; [`FaultKind::CacheBuild`] is left here for
    /// cooperating jobs to feed into their cache builders.
    pub fault: Option<FaultKind>,
    /// Whether the run asked for artifact checking
    /// ([`EngineConfig::check`]). Check-aware jobs lint their final
    /// artifacts and fail the cell with an ordinary error on a rejection.
    pub check: bool,
    /// Whether the run asked for the structural-security audit
    /// ([`EngineConfig::audit`]). Audit-aware jobs audit their locked
    /// netlists; the findings are recorded on the obs registry by the
    /// auditing crate, so they reach [`RunMetrics::obs`].
    pub audit: bool,
}

impl<'a> JobCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: usize,
        attempt: u32,
        root_seed: u64,
        cache: &'a ArtifactCache,
        cancel: CancelToken,
        fault: Option<FaultKind>,
        check: bool,
        audit: bool,
    ) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(root_seed);
        rng.set_stream(index as u64 + (u64::from(attempt) << 32));
        let seed = rng.next_u64();
        JobCtx {
            index,
            attempt,
            seed,
            rng,
            cache,
            cancel,
            fault,
            check,
            audit,
        }
    }
}

/// Outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult<T> {
    /// The cell completed.
    Ok {
        /// Cell label.
        cell: String,
        /// The cell's payload.
        output: T,
    },
    /// The cell returned an error, panicked, or was skipped by fail-fast.
    Failed {
        /// Cell label.
        cell: String,
        /// Error or panic message.
        message: String,
    },
    /// The cell's deadline fired before it finished; the attempt was
    /// cancelled cooperatively. Counted separately from failures and
    /// never retried.
    TimedOut {
        /// Cell label.
        cell: String,
        /// What the interrupted attempt reported.
        message: String,
    },
}

impl<T> CellResult<T> {
    /// The payload, if the cell completed.
    pub fn output(&self) -> Option<&T> {
        match self {
            CellResult::Ok { output, .. } => Some(output),
            _ => None,
        }
    }
}

/// The `(cell, message)` list of every cell of a run that did not
/// complete, in submission order. Timed-out cells are listed too, their
/// message prefixed with `timed out: `; this is the list every engine
/// binary prints before exiting 1.
pub fn failure_list<T>(results: &[CellResult<T>]) -> Vec<(String, String)> {
    results
        .iter()
        .filter_map(|result| match result {
            CellResult::Ok { .. } => None,
            CellResult::Failed { cell, message } => Some((cell.clone(), message.clone())),
            CellResult::TimedOut { cell, message } => {
                Some((cell.clone(), format!("timed out: {message}")))
            }
        })
        .collect()
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` auto-detects from available parallelism.
    pub threads: usize,
    /// Root seed all per-cell streams are split from.
    pub root_seed: u64,
    /// Stop claiming new cells after the first failure.
    pub fail_fast: bool,
    /// Emit a live `done/total` progress line to stderr (suppressed when
    /// stderr is not a terminal).
    pub progress: bool,
    /// Per-attempt cell deadline; `None` disables deadlines.
    pub cell_timeout: Option<Duration>,
    /// Retry policy for erroring/panicking cells (timeouts are never
    /// retried). [`RetryPolicy::none`] disables retries.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection plan, for tests and fault drills.
    pub faults: Option<FaultPlan>,
    /// Checkpoint store directory: completed cells found there are spliced
    /// in, and every cell completed now is appended. A store written for
    /// another grid is set aside and the run proceeds from scratch.
    pub checkpoint: Option<PathBuf>,
    /// Ask check-aware jobs to lint their artifacts with `lockbind-check`
    /// (surfaced as [`JobCtx::check`]). The engine gives the flag meaning
    /// only through the jobs: a rejected artifact is an ordinary cell
    /// failure, listed by [`failure_list`] with the job's message, and the
    /// checking crates count their verdicts on the obs registry.
    pub check: bool,
    /// Ask audit-aware jobs to run the LB07xx structural-security audit
    /// over their locked netlists (surfaced as [`JobCtx::audit`]).
    /// Findings reach the run metrics only through the obs registry.
    pub audit: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            root_seed: 0,
            fail_fast: false,
            progress: true,
            cell_timeout: None,
            retry: RetryPolicy::none(),
            faults: None,
            checkpoint: None,
            check: false,
            audit: false,
        }
    }
}

impl EngineConfig {
    /// The effective worker count after auto-detection.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Everything a run produced: in-order cell results plus metrics.
#[derive(Debug)]
pub struct RunReport<T> {
    /// One result per submitted job, in submission order.
    pub results: Vec<CellResult<T>>,
    /// Timing, throughput, and cache statistics for the run.
    pub metrics: RunMetrics,
}

impl<T> RunReport<T> {
    /// Iterates over the completed cells' payloads, in submission order.
    pub fn outputs(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(CellResult::output)
    }
}

/// A completed cell as the workers hand it back: job index and result.
type Finished<T> = (usize, CellResult<T>);

/// The experiment-execution engine: a config plus a shared artifact cache
/// that persists across [`Engine::run`] calls.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
    cache: ArtifactCache,
}

impl Engine {
    /// An engine with the given configuration and an empty cache.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            cache: ArtifactCache::new(),
        }
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Runs a single job outside a grid sweep, on the caller's thread,
    /// against the engine's shared artifact cache — the execution path of
    /// the serve daemon, where each network request is one job.
    ///
    /// Unlike [`Engine::run`], the caller supplies the RNG `root_seed` and
    /// the [`CancelToken`] directly: the daemon derives the seed from the
    /// request *content* so identical requests replay identical ChaCha
    /// streams (the job context is always built at `index = 0`,
    /// `attempt = 0`), and the token carries the request's deadline so a
    /// fired deadline classifies as [`CellResult::TimedOut`] exactly like
    /// a sweep cell's `--cell-timeout`. `request` and `worker` only tag
    /// the cell scope for span capture; they never feed the RNG.
    ///
    /// The body runs under `catch_unwind` (panic isolation), with no
    /// fault injection and no retries — single requests are interactive,
    /// so transient-failure policy belongs to the caller.
    pub fn run_one<J: Job>(
        &self,
        job: &J,
        request: u64,
        worker: u64,
        root_seed: u64,
        cancel: CancelToken,
    ) -> CellResult<J::Output> {
        let cell = job.label();
        match self.attempt(
            job,
            &cell,
            0,
            0,
            root_seed,
            cancel,
            None,
            worker,
            Some(request),
        ) {
            Ok(output) => CellResult::Ok { cell, output },
            Err((message, true)) => CellResult::TimedOut {
                cell,
                message: format!("deadline exceeded: {message}"),
            },
            Err((message, false)) => CellResult::Failed { cell, message },
        }
    }

    /// Runs every job and returns in-order results plus run metrics.
    pub fn run<J: Job>(&self, jobs: &[J]) -> RunReport<J::Output> {
        let show_progress = self.cfg.progress && std::io::stderr().is_terminal();
        let cache_before = self.cache.stats();
        let obs_before = obs::Registry::global().snapshot();

        // Checkpoint recovery and resume splicing happen before any worker
        // starts: resumed cells never enter the claimable set.
        let labels: Vec<String> = jobs.iter().map(Job::label).collect();
        let mut store = self.cfg.checkpoint.as_deref().and_then(|dir| {
            let identities: Vec<String> = jobs.iter().map(Job::checkpoint_identity).collect();
            let grid = checkpoint::fingerprint(self.cfg.root_seed, &identities);
            match checkpoint::open(dir, grid) {
                Ok((store, report)) => {
                    eprintln!(
                        "[engine] checkpoint {}: {}",
                        dir.display(),
                        report.summary()
                    );
                    Some(store)
                }
                Err(e) => {
                    eprintln!(
                        "[engine] checkpointing disabled: cannot open {}: {e}",
                        dir.display()
                    );
                    None
                }
            }
        });
        let resumed: Vec<Option<J::Output>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let bytes = store.as_mut()?.get(&checkpoint::key(index))?;
                job.decode_output(&json::parse(&bytes).ok()?)
            })
            .collect();
        let cells_resumed = resumed.iter().flatten().count();
        let store = store.map(Mutex::new);

        let pending: Vec<usize> = (0..jobs.len()).filter(|&i| resumed[i].is_none()).collect();
        let threads = self.cfg.effective_threads().min(pending.len().max(1));

        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        let retried = AtomicUsize::new(0);
        let timed_out = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let collected: Mutex<Vec<Finished<J::Output>>> =
            Mutex::new(Vec::with_capacity(pending.len()));

        let started = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (next, done, failed, abort) = (&next, &done, &failed, &abort);
                let (retried, timed_out, collected) = (&retried, &timed_out, &collected);
                let (pending, labels, store) = (&pending, &labels, store.as_ref());
                scope.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = pending.get(slot) else {
                        break;
                    };
                    let job = &jobs[index];
                    let result = self.run_cell(job, index, &labels[index], worker, retried);
                    match &result {
                        CellResult::Ok { output, .. } => {
                            if let (Some(store), Some(payload)) = (store, job.encode_output(output))
                            {
                                let record = payload.render();
                                let appended = store
                                    .lock()
                                    .expect("checkpoint store poisoned")
                                    .append(&checkpoint::key(index), record.as_bytes());
                                if let Err(e) = appended {
                                    eprintln!("[engine] checkpoint append failed: {e}");
                                }
                            }
                        }
                        CellResult::TimedOut { .. } => {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                            if self.cfg.fail_fast {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        CellResult::Failed { .. } => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            if self.cfg.fail_fast {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    collected
                        .lock()
                        .expect("result sink poisoned")
                        .push((index, result));
                    if show_progress {
                        eprint!(
                            "\r[engine] {finished}/{} cells | {} failed ",
                            pending.len(),
                            failed.load(Ordering::Relaxed)
                        );
                    }
                });
            }
        });
        let wall = started.elapsed();
        if show_progress {
            eprintln!();
        }

        // Reassemble in job order: resumed cells first, then the workers'
        // results; fail-fast leaves unclaimed cells, which surface as
        // explicit skips rather than silently missing rows.
        let mut slots: Vec<Option<CellResult<J::Output>>> = resumed
            .into_iter()
            .enumerate()
            .map(|(index, output)| {
                output.map(|output| CellResult::Ok {
                    cell: labels[index].clone(),
                    output,
                })
            })
            .collect();
        let mut collected = collected.into_inner().expect("result sink poisoned");
        collected.sort_by_key(|(index, _)| *index);
        for (index, result) in collected {
            slots[index] = Some(result);
        }
        let mut skipped = 0usize;
        let results: Vec<CellResult<J::Output>> = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    skipped += 1;
                    CellResult::Failed {
                        cell: labels[index].clone(),
                        message: "skipped: fail-fast after an earlier failure".to_string(),
                    }
                })
            })
            .collect();
        if skipped > 0 {
            obs::trace::instant("engine.fail_fast_abort", || {
                vec![("skipped", obs::ArgValue::from(skipped))]
            });
        }

        let cells_ok = results
            .iter()
            .filter(|r| matches!(r, CellResult::Ok { .. }))
            .count();
        let metrics = RunMetrics::new(
            threads,
            self.cfg.root_seed,
            results.len(),
            cells_ok,
            skipped,
            timed_out.load(Ordering::Relaxed),
            retried.load(Ordering::Relaxed),
            cells_resumed,
            wall,
            self.cache.stats().delta_from(cache_before),
            obs::Registry::global().snapshot().delta_from(&obs_before),
        );
        RunReport { results, metrics }
    }

    /// Runs one cell to a final [`CellResult`]: attempt loop with fault
    /// injection, deadline classification, and retry-with-backoff.
    fn run_cell<J: Job>(
        &self,
        job: &J,
        index: usize,
        cell: &str,
        worker: usize,
        retried: &AtomicUsize,
    ) -> CellResult<J::Output> {
        let cfg = &self.cfg;
        let mut attempt = 0u32;
        loop {
            let cancel = match cfg.cell_timeout {
                Some(limit) => CancelToken::with_deadline(limit),
                None => CancelToken::new(),
            };
            let fault = cfg
                .faults
                .as_ref()
                .and_then(|plan| plan.action_for(index, attempt));
            let message = match self.attempt(
                job,
                cell,
                index,
                attempt,
                cfg.root_seed,
                cancel,
                fault,
                worker as u64,
                None,
            ) {
                Ok(output) => {
                    return CellResult::Ok {
                        cell: cell.to_string(),
                        output,
                    }
                }
                // A fired deadline means the error/panic is (directly or
                // not) the cooperative unwind — classify as a timeout and
                // do not retry: the job is deterministic, the next
                // attempt would time out too.
                Err((message, true)) => {
                    return CellResult::TimedOut {
                        cell: cell.to_string(),
                        message: format!(
                            "deadline {:?} exceeded on attempt {attempt}: {message}",
                            cfg.cell_timeout.unwrap_or_default()
                        ),
                    }
                }
                Err((message, false)) => message,
            };
            if attempt >= cfg.retry.max_retries {
                return CellResult::Failed {
                    cell: cell.to_string(),
                    message,
                };
            }
            retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(cfg.retry.backoff_for(attempt));
            attempt += 1;
        }
    }

    /// One attempt of a cell: a fresh [`JobCtx`] inside the cell's
    /// [`obs::CellScope`] (tagged with the request, else the cell index,
    /// and the worker) and its stage span, the injected fault applied, and
    /// panics caught.
    /// `Err((message, timed_out))` carries the error or panic message and
    /// whether the attempt's deadline had fired.
    #[allow(clippy::too_many_arguments)]
    fn attempt<J: Job>(
        &self,
        job: &J,
        cell: &str,
        index: usize,
        attempt: u32,
        root_seed: u64,
        cancel: CancelToken,
        fault: Option<FaultKind>,
        worker: u64,
        request: Option<u64>,
    ) -> Result<J::Output, (String, bool)> {
        let (check, audit) = (self.cfg.check, self.cfg.audit);
        let mut ctx = JobCtx::new(
            index,
            attempt,
            root_seed,
            &self.cache,
            cancel,
            fault,
            check,
            audit,
        );
        let outcome = {
            let _cell_scope = obs::CellScope::enter(request.unwrap_or(index as u64), worker);
            let _span = SpanGuard::enter(job.stage(), || {
                let mut args = vec![("cell", ArgValue::from(cell))];
                args.extend(request.map(|request| ("request", ArgValue::from(request))));
                args
            });
            catch_unwind(AssertUnwindSafe(|| {
                apply_fault(&mut ctx)?;
                job.run(&mut ctx)
            }))
        };
        let message = match outcome {
            Ok(Ok(output)) => return Ok(output),
            Ok(Err(message)) => message,
            Err(payload) => panic_message(payload.as_ref()),
        };
        Err((message, ctx.cancel.deadline_exceeded()))
    }
}

/// Applies the attempt's injected fault, if any. Panics, errors, delays,
/// and hangs are enacted here; [`FaultKind::CacheBuild`] is left on the
/// context for cooperating jobs.
fn apply_fault(ctx: &mut JobCtx<'_>) -> Result<(), String> {
    let (index, attempt) = (ctx.index, ctx.attempt);
    match &ctx.fault {
        // Cache faults belong to cooperating jobs; disk faults belong to
        // the `lockbind-durable` writers. Neither is enacted at the cell
        // boundary.
        None
        | Some(
            FaultKind::CacheBuild
            | FaultKind::ShortWrite
            | FaultKind::TornWrite(_)
            | FaultKind::FsyncError
            | FaultKind::BitFlip,
        ) => Ok(()),
        Some(FaultKind::Error) => Err(format!(
            "injected fault: error (cell {index}, attempt {attempt})"
        )),
        Some(FaultKind::Panic) => {
            panic!("injected fault: panic (cell {index}, attempt {attempt})")
        }
        Some(FaultKind::Delay(pause)) => {
            std::thread::sleep(*pause);
            Ok(())
        }
        Some(FaultKind::Hang) => loop {
            // Simulates a stuck cell that still polls its cancel token —
            // only a cell deadline (or external cancel) gets us out.
            if ctx.cancel.is_cancelled() {
                return Err(format!(
                    "injected fault: hang cancelled (cell {index}, attempt {attempt})"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_resil::FaultRule;

    /// A toy job whose output depends on its RNG — detects any seed-stream
    /// coupling between cells.
    struct RngJob {
        id: usize,
    }

    impl Job for RngJob {
        type Output = (u64, u64);

        fn label(&self) -> String {
            format!("rng-{}", self.id)
        }

        fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
            Ok((ctx.seed, ctx.rng.next_u64()))
        }

        fn encode_output(&self, output: &Self::Output) -> Option<Json> {
            Some(Json::arr([Json::UInt(output.0), Json::UInt(output.1)]))
        }

        fn decode_output(&self, payload: &Json) -> Option<Self::Output> {
            let Json::Array(items) = payload else {
                return None;
            };
            let [a, b] = items.as_slice() else {
                return None;
            };
            Some((a.as_u64()?, b.as_u64()?))
        }
    }

    fn run_with_threads(threads: usize) -> Vec<CellResult<(u64, u64)>> {
        let jobs: Vec<RngJob> = (0..24).map(|id| RngJob { id }).collect();
        let engine = Engine::new(EngineConfig {
            threads,
            root_seed: 0x0DAC_2021,
            progress: false,
            ..EngineConfig::default()
        });
        engine.run(&jobs).results
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_with_threads(1);
        for threads in [2, 4, 7] {
            assert_eq!(run_with_threads(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn cell_seeds_are_distinct_streams() {
        let results = run_with_threads(1);
        let mut seeds: Vec<u64> = results.iter().map(|r| r.output().expect("ok").0).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 24, "per-cell seeds must be pairwise distinct");
    }

    struct FaultyJob {
        id: usize,
    }

    impl Job for FaultyJob {
        type Output = usize;

        fn label(&self) -> String {
            format!("cell-{}", self.id)
        }

        fn run(&self, _ctx: &mut JobCtx<'_>) -> Result<usize, String> {
            match self.id {
                3 => panic!("injected panic in cell 3"),
                5 => Err("injected error".to_string()),
                id => Ok(id * 10),
            }
        }
    }

    #[test]
    fn failures_are_isolated() {
        let jobs: Vec<FaultyJob> = (0..8).map(|id| FaultyJob { id }).collect();
        let engine = Engine::new(EngineConfig {
            threads: 4,
            progress: false,
            ..EngineConfig::default()
        });
        let report = engine.run(&jobs);
        assert_eq!(report.results.len(), 8);
        let failures = failure_list(&report.results);
        assert_eq!(failures.len(), 2);
        assert!(failures
            .iter()
            .any(|(c, m)| c == "cell-3" && m.contains("injected panic")));
        assert!(failures
            .iter()
            .any(|(c, m)| c == "cell-5" && m.contains("injected error")));
        // Every other cell still completed with its own output.
        for (id, result) in report.results.iter().enumerate() {
            if id != 3 && id != 5 {
                assert_eq!(result.output(), Some(&(id * 10)));
            }
        }
        assert_eq!(report.metrics.cells_ok, 6);
        assert_eq!(report.metrics.cells_failed, 2);
    }

    #[test]
    fn run_one_seeds_from_content_not_request_tags() {
        let engine = Engine::new(EngineConfig {
            progress: false,
            ..EngineConfig::default()
        });
        let job = RngJob { id: 0 };
        let a = engine.run_one(&job, 1, 0, 0xFEED, CancelToken::new());
        let b = engine.run_one(&job, 99, 7, 0xFEED, CancelToken::new());
        assert_eq!(a, b, "request/worker tags must not feed the RNG");
        let c = engine.run_one(&job, 1, 0, 0xFEED + 1, CancelToken::new());
        assert_ne!(a.output(), c.output(), "the seed must feed the RNG");
    }

    #[test]
    fn run_one_isolates_panics_and_classifies_deadlines() {
        let engine = Engine::new(EngineConfig {
            progress: false,
            ..EngineConfig::default()
        });
        let panicky = FaultyJob { id: 3 };
        let result = engine.run_one(&panicky, 0, 0, 1, CancelToken::new());
        let CellResult::Failed { cell, message } = result else {
            panic!("panic becomes Failed, got {result:?}");
        };
        assert_eq!(cell, "cell-3");
        assert!(message.contains("injected panic"), "{message}");

        struct Cooperative;
        impl Job for Cooperative {
            type Output = ();
            fn label(&self) -> String {
                "coop".to_string()
            }
            fn run(&self, ctx: &mut JobCtx<'_>) -> Result<(), String> {
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err("interrupted".to_string())
            }
        }
        let expired = CancelToken::with_deadline(Duration::from_millis(5));
        let result = engine.run_one(&Cooperative, 0, 0, 1, expired);
        assert!(
            matches!(result, CellResult::TimedOut { .. }),
            "fired deadline => TimedOut"
        );

        let token = CancelToken::new();
        token.cancel();
        let result = engine.run_one(&Cooperative, 0, 0, 1, token);
        assert!(
            matches!(result, CellResult::Failed { .. }),
            "explicit cancel stays a plain failure; the caller maps it via the token reason"
        );
    }

    #[test]
    fn fail_fast_skips_remaining_cells() {
        let jobs: Vec<FaultyJob> = (0..64).map(|id| FaultyJob { id }).collect();
        let engine = Engine::new(EngineConfig {
            threads: 1,
            fail_fast: true,
            progress: false,
            ..EngineConfig::default()
        });
        let report = engine.run(&jobs);
        assert_eq!(report.results.len(), 64, "every cell has a result row");
        let failures = failure_list(&report.results);
        assert!(failures.iter().any(|(_, m)| m.contains("injected panic")));
        assert!(failures.iter().any(|(_, m)| m.contains("fail-fast")));
        assert!(report.metrics.cells_ok < 64);
        // Skips are accounted separately from real failures: with one
        // worker, cells 0..3 ran (3 failed), everything after was skipped.
        assert_eq!(report.metrics.cells_failed, 1);
        assert_eq!(report.metrics.cells_skipped, 60);
        assert_eq!(
            report.metrics.cells_ok + report.metrics.cells_failed + report.metrics.cells_skipped,
            64
        );
    }

    /// Hangs forever on the chosen cell unless the cancel token fires.
    struct HangingJob {
        id: usize,
        hang_on: usize,
    }

    impl Job for HangingJob {
        type Output = usize;

        fn label(&self) -> String {
            format!("hang-{}", self.id)
        }

        fn run(&self, ctx: &mut JobCtx<'_>) -> Result<usize, String> {
            if self.id == self.hang_on {
                loop {
                    if ctx.cancel.is_cancelled() {
                        return Err("cancelled while hung".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(self.id)
        }
    }

    #[test]
    fn deadline_turns_a_hung_cell_into_timed_out() {
        let jobs: Vec<HangingJob> = (0..6).map(|id| HangingJob { id, hang_on: 2 }).collect();
        let engine = Engine::new(EngineConfig {
            threads: 3,
            progress: false,
            cell_timeout: Some(Duration::from_millis(50)),
            ..EngineConfig::default()
        });
        let started = Instant::now();
        let report = engine.run(&jobs);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the hung cell must be bounded by the deadline"
        );
        assert!(matches!(report.results[2], CellResult::TimedOut { .. }));
        // The failure list carries the hung cell, marked as timed out.
        let failures = failure_list(&report.results);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "hang-2");
        assert!(
            failures[0].1.starts_with("timed out: "),
            "{}",
            failures[0].1
        );
        assert!(failures[0].1.contains("deadline"), "{}", failures[0].1);
        // The hang poisoned nothing else.
        assert_eq!(report.metrics.cells_ok, 5);
        assert_eq!(report.metrics.cells_failed, 0);
        assert_eq!(report.metrics.cells_timed_out, 1);
    }

    /// Fails deterministically on the first N attempts of one cell, then
    /// succeeds — exercises retry without any wall-clock dependence.
    struct FlakyJob {
        id: usize,
        flaky_cell: usize,
        fail_attempts: u32,
    }

    impl Job for FlakyJob {
        type Output = (u64, u32);

        fn label(&self) -> String {
            format!("flaky-{}", self.id)
        }

        fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
            if self.id == self.flaky_cell && ctx.attempt < self.fail_attempts {
                return Err(format!("transient failure on attempt {}", ctx.attempt));
            }
            Ok((ctx.seed, ctx.attempt))
        }
    }

    #[test]
    fn transient_failures_are_retried_deterministically() {
        let run = |threads: usize| {
            let jobs: Vec<FlakyJob> = (0..8)
                .map(|id| FlakyJob {
                    id,
                    flaky_cell: 4,
                    fail_attempts: 2,
                })
                .collect();
            let engine = Engine::new(EngineConfig {
                threads,
                root_seed: 99,
                progress: false,
                retry: RetryPolicy::new(3, Duration::from_millis(1)),
                ..EngineConfig::default()
            });
            engine.run(&jobs)
        };
        let serial = run(1);
        assert_eq!(serial.metrics.cells_ok, 8);
        assert_eq!(serial.metrics.cells_retried, 2);
        let (seed, attempt) = serial.results[4].output().expect("recovered");
        assert_eq!(*attempt, 2, "succeeded on the second retry");
        // The retry attempt reseeds its own ChaCha stream.
        let (seed0, _) = serial.results[0].output().expect("ok");
        assert_ne!(seed, seed0);
        for threads in [4, 7] {
            assert_eq!(run(threads).results, serial.results, "threads = {threads}");
        }
    }

    #[test]
    fn retries_exhausted_fail_the_cell() {
        let jobs = vec![FlakyJob {
            id: 0,
            flaky_cell: 0,
            fail_attempts: 10,
        }];
        let engine = Engine::new(EngineConfig {
            threads: 1,
            progress: false,
            retry: RetryPolicy::new(2, Duration::from_millis(1)),
            ..EngineConfig::default()
        });
        let report = engine.run(&jobs);
        assert_eq!(report.metrics.cells_failed, 1);
        assert_eq!(report.metrics.cells_retried, 2);
        let CellResult::Failed { message, .. } = &report.results[0] else {
            panic!("exhausted retries fail the cell");
        };
        assert!(message.contains("attempt 2"), "{message}");
    }

    #[test]
    fn injected_faults_are_deterministic_and_retryable() {
        // max_attempt = 1: the fault fires on attempt 0 only, so one
        // retry always cures it.
        let faults =
            FaultPlan::new(11).rule(FaultRule::at_cells(FaultKind::Error, vec![1, 3]).transient(1));
        let run = |threads: usize| {
            let jobs: Vec<RngJob> = (0..6).map(|id| RngJob { id }).collect();
            let engine = Engine::new(EngineConfig {
                threads,
                root_seed: 5,
                progress: false,
                retry: RetryPolicy::new(1, Duration::from_millis(1)),
                faults: Some(faults.clone()),
                ..EngineConfig::default()
            });
            engine.run(&jobs)
        };
        let serial = run(1);
        assert_eq!(serial.metrics.cells_ok, 6, "transient faults recover");
        assert_eq!(serial.metrics.cells_retried, 2);
        for threads in [4, 7] {
            assert_eq!(run(threads).results, serial.results, "threads = {threads}");
        }
    }

    /// Requests `key = id % 3` from the shared cache; a
    /// [`FaultKind::CacheBuild`] fault makes this cell's build panic.
    struct CacheJob {
        id: usize,
    }

    impl Job for CacheJob {
        type Output = u64;

        fn label(&self) -> String {
            format!("cache-{}", self.id)
        }

        fn run(&self, ctx: &mut JobCtx<'_>) -> Result<u64, String> {
            let poisoned = matches!(ctx.fault, Some(FaultKind::CacheBuild));
            let key = crate::cache::CacheKey::new("shared").push_u64((self.id % 3) as u64);
            let value = ctx.cache.get_or_insert_with::<u64, _>(key, || {
                if poisoned {
                    panic!("injected cache-build failure");
                }
                (self.id % 3) as u64 * 100
            });
            Ok(*value)
        }
    }

    #[test]
    fn cache_build_failures_keep_counters_deterministic() {
        // Cells 0/3/6/9 all request key 0 and each injects a build
        // failure, so key 0 never materializes: every requester builds
        // exactly once (4 misses), fails its own cell, and leaves the
        // other keys untouched. Single-flight makes the counters exact at
        // any worker count.
        let faults =
            FaultPlan::new(0).rule(FaultRule::at_cells(FaultKind::CacheBuild, vec![0, 3, 6, 9]));
        let run = |threads: usize| {
            let jobs: Vec<CacheJob> = (0..12).map(|id| CacheJob { id }).collect();
            let engine = Engine::new(EngineConfig {
                threads,
                root_seed: 1,
                progress: false,
                faults: Some(faults.clone()),
                ..EngineConfig::default()
            });
            engine.run(&jobs)
        };
        let serial = run(1);
        assert_eq!(serial.metrics.cells_ok, 8);
        assert_eq!(serial.metrics.cells_failed, 4);
        assert_eq!(
            (serial.metrics.cache.misses, serial.metrics.cache.hits),
            (6, 6),
            "4 failed builds of key 0 + 1 build each of keys 1 and 2; the rest hit"
        );
        assert_eq!(serial.metrics.cache.entries, 2, "key 0 never materializes");
        for threads in [4, 7] {
            let report = run(threads);
            assert_eq!(report.results, serial.results, "threads = {threads}");
            assert_eq!(
                (report.metrics.cache.misses, report.metrics.cache.hits),
                (6, 6),
                "threads = {threads}"
            );
        }
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lockbind-pool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_then_resume_reproduces_the_full_run() {
        let jobs: Vec<RngJob> = (0..12).map(|id| RngJob { id }).collect();
        let dir = temp_checkpoint("resume");
        let run = |threads: usize| {
            Engine::new(EngineConfig {
                threads,
                root_seed: 7,
                progress: false,
                checkpoint: Some(dir.clone()),
                ..EngineConfig::default()
            })
            .run(&jobs)
        };

        let full = Engine::new(EngineConfig {
            threads: 1,
            root_seed: 7,
            progress: false,
            ..EngineConfig::default()
        })
        .run(&jobs);

        // A checkpointed run, then cut the segment inside its sixth record
        // to simulate a kill after 5 cells, then resume.
        assert_eq!(run(1).metrics.cells_resumed, 0);
        let segment = dir.join("cache.seg");
        let bytes = std::fs::read(&segment).expect("checkpoint");
        let sixth = crate::checkpoint::Segment::read(&dir)
            .expect("segment")
            .records()
            .nth(5)
            .expect("12 records")
            .1
            .to_vec();
        let cut = bytes
            .windows(sixth.len())
            .position(|w| w == sixth.as_slice())
            .expect("payload on disk")
            + sixth.len() / 2;
        std::fs::write(&segment, &bytes[..cut]).expect("truncate");

        let resumed = run(1);
        assert_eq!(resumed.metrics.cells_resumed, 5);
        assert_eq!(resumed.metrics.cells_ok, 12);
        assert_eq!(
            format!("{:?}", resumed.results),
            format!("{:?}", full.results),
            "resumed results must be bit-identical to the uninterrupted run"
        );
        // The completed checkpoint now covers every cell and resumes to a
        // fully-skipped run.
        let again = run(4);
        assert_eq!(again.metrics.cells_resumed, 12);
        assert_eq!(
            format!("{:?}", again.results),
            format!("{:?}", full.results)
        );
    }

    const CHECKY_MESSAGE: &str = "check failed: [LB0304] cycle0/adder0: clash; \
                                  [LB0202] op1->op2: backwards";

    /// Fails with a check-style message on selected cells when the run has
    /// checking enabled — the shape check-aware bench cells produce.
    struct CheckyJob {
        id: usize,
    }

    impl Job for CheckyJob {
        type Output = usize;

        fn label(&self) -> String {
            format!("checky-{}", self.id)
        }

        fn run(&self, ctx: &mut JobCtx<'_>) -> Result<usize, String> {
            if ctx.check && self.id % 3 == 0 {
                return Err(CHECKY_MESSAGE.to_string());
            }
            Ok(self.id)
        }
    }

    #[test]
    fn check_failures_are_plain_failures_and_no_count_is_restated() {
        let jobs: Vec<CheckyJob> = (0..7).map(|id| CheckyJob { id }).collect();
        let run = |check: bool| {
            Engine::new(EngineConfig {
                threads: 2,
                progress: false,
                check,
                retry: RetryPolicy::new(1, Duration::from_millis(1)),
                ..EngineConfig::default()
            })
            .run(&jobs)
        };
        let unchecked = run(false);
        assert_eq!(
            unchecked.metrics.cells_ok, 7,
            "checks off: everything passes"
        );

        let checked = run(true);
        assert_eq!(checked.metrics.cells_ok, 4);
        assert_eq!(checked.metrics.cells_failed, 3, "cells 0, 3, 6 rejected");
        assert_eq!(checked.metrics.cells_retried, 3, "each retried once");
        let failures = failure_list(&checked.results);
        let cells: Vec<&str> = failures.iter().map(|(cell, _)| cell.as_str()).collect();
        assert_eq!(cells, ["checky-0", "checky-3", "checky-6"]);
        assert!(
            failures
                .iter()
                .all(|(_, message)| message == CHECKY_MESSAGE),
            "the exit-time list keeps each message whole: {failures:?}"
        );
        let summary = checked.metrics.summary();
        assert!(
            summary.starts_with("7 cells (4 ok, 3 failed) in"),
            "{summary}"
        );

        // Each count has one home: the top-level `cells_*` fields hold the
        // engine's, and `obs.counters` holds every other crate's under its
        // own name. Nothing restates either.
        let json = lockbind_obs::json::parse(checked.metrics.to_json().render().as_bytes())
            .expect("metrics JSON parses");
        for member in ["serve", "audit", "check_codes", "cells_check_failed"] {
            assert!(json.get(member).is_none(), "`{member}` is restated");
        }
        assert_eq!(json["cells_retried"].as_u64(), Some(3));
        let counters = &checked.metrics.obs.counters;
        assert!(
            counters.keys().all(|name| !name.starts_with("cells.")),
            "cell counts are mirrored into obs counters: {counters:?}"
        );
    }

    #[test]
    fn mismatched_checkpoint_is_ignored() {
        let jobs: Vec<RngJob> = (0..4).map(|id| RngJob { id }).collect();
        let dir = temp_checkpoint("mismatch");
        let run = |root_seed: u64| {
            Engine::new(EngineConfig {
                threads: 1,
                root_seed,
                progress: false,
                checkpoint: Some(dir.clone()),
                ..EngineConfig::default()
            })
            .run(&jobs)
        };
        run(1);
        // Different root seed → different fingerprint → the store is set
        // aside and the sweep re-runs in full.
        let report = run(2);
        assert_eq!(report.metrics.cells_resumed, 0);
        assert_eq!(report.metrics.cells_ok, 4);
        assert!(dir.join("cache.seg.stale").exists(), "old store kept aside");
    }
}
