//! Engine-backed experiment grids.
//!
//! The paper's figures are grids of independent cells; this module models
//! them as [`lockbind_engine::Job`]s so the execution engine can run them
//! on a worker pool. Two cell types exist:
//!
//! * [`ErrorCell`] — one `(kernel, class, locked_fus, locked_inputs)`
//!   configuration of the Fig. 4 / Fig. 5 error-ratio experiment.
//! * [`OverheadCell`] — one kernel of the Fig. 6 overhead measurement.
//!
//! Cells share their expensive locking-independent inputs through the
//! engine's artifact cache: the [`PreparedKernel`] (schedule, allocation,
//! profiles) is memoized per `(kernel, frames, seed)`, and the
//! [`ClassContext`] (candidate list plus baseline bindings) per
//! `(kernel, frames, seed, class, num_candidates)`.
//!
//! Determinism: every cell is a pure function of its own fields, so the
//! flattened in-order outputs of [`error_grid`] equal the serial
//! [`run_error_experiment`](crate::run_error_experiment) loop exactly, at
//! any worker count.

use std::sync::Arc;

use lockbind_core::CoreError;
use lockbind_engine::{failure_list, ArtifactCache, CacheKey, CellResult, Job, JobCtx};
use lockbind_hls::FuClass;
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;
use lockbind_obs::Json;

use crate::codec;
use crate::errors_experiment::{run_error_cell_cancellable, ClassContext};
use crate::overhead::{measure_overhead, OverheadRecord};
use crate::{ErrorRecord, ExperimentParams, PreparedKernel};

/// Returns the cached [`PreparedKernel`] for `(kernel, frames, seed)`,
/// building it on first use.
pub fn cached_prepared(
    cache: &ArtifactCache,
    kernel: Kernel,
    frames: usize,
    seed: u64,
) -> Arc<PreparedKernel> {
    let key = CacheKey::new("prepared-kernel")
        .push_str(kernel.name())
        .push_usize(frames)
        .push_u64(seed);
    cache.get_or_insert_with(key, || {
        // The single-flight cache builds each key exactly once, so this span
        // and the counters inside fire once per (kernel, frames, seed) at
        // any worker count.
        let _span = obs::span!("prepare.kernel", kernel = kernel.name(), frames = frames);
        PreparedKernel::new(kernel, frames, seed)
    })
}

type ClassContextResult = Result<Option<ClassContext>, CoreError>;

/// Returns the cached [`ClassContext`] for one `(kernel, class)` of a
/// prepared kernel, building it on first use.
pub fn cached_class_context(
    cache: &ArtifactCache,
    prepared: &PreparedKernel,
    kernel: Kernel,
    frames: usize,
    seed: u64,
    class: FuClass,
    num_candidates: usize,
) -> Arc<ClassContextResult> {
    let key = CacheKey::new("class-context")
        .push_str(kernel.name())
        .push_usize(frames)
        .push_u64(seed)
        .push_str(&format!("{class:?}"))
        .push_usize(num_candidates);
    cache.get_or_insert_with(key, || {
        let _span = obs::span!("prepare.class_context", kernel = kernel.name());
        ClassContext::build(prepared, class, num_candidates)
    })
}

/// One cell of the error-ratio experiment grid.
#[derive(Debug, Clone)]
pub struct ErrorCell {
    /// The kernel under test.
    pub kernel: Kernel,
    /// Profiling frames for kernel preparation.
    pub frames: usize,
    /// Kernel-preparation seed.
    pub seed: u64,
    /// FU class being locked.
    pub class: FuClass,
    /// Number of locked FUs.
    pub locked_fus: usize,
    /// Locked inputs per FU.
    pub locked_inputs: usize,
    /// Experiment parameters.
    pub params: ExperimentParams,
}

impl Job for ErrorCell {
    type Output = Vec<ErrorRecord>;

    fn label(&self) -> String {
        format!(
            "{}/{:?}/L{}xm{}",
            self.kernel.name(),
            self.class,
            self.locked_fus,
            self.locked_inputs
        )
    }

    fn stage(&self) -> &'static str {
        "error-cell"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let prepared = cached_prepared(ctx.cache, self.kernel, self.frames, self.seed);
        let class_ctx = cached_class_context(
            ctx.cache,
            &prepared,
            self.kernel,
            self.frames,
            self.seed,
            self.class,
            self.params.num_candidates,
        );
        match class_ctx.as_ref() {
            Err(e) => Err(format!("class context: {e}")),
            Ok(None) => Ok(Vec::new()),
            Ok(Some(cc)) => {
                let records = run_error_cell_cancellable(
                    &prepared,
                    cc,
                    &self.params,
                    self.locked_fus,
                    self.locked_inputs,
                    &ctx.cancel,
                )
                .map_err(|e| e.to_string())?;
                // An infeasible configuration produced no records and has no
                // representative lock to check or audit.
                if !(ctx.check || ctx.audit) || records.is_empty() {
                    return Ok(records);
                }
                // The cell's *representative* lock: its first combination
                // assignment (the per-sweep bindings are far too many to
                // check individually).
                let spec =
                    cc.first_candidates_spec(&prepared, self.locked_fus, self.locked_inputs)?;
                // `--check` mode: lint the representative locked artifact.
                if ctx.check {
                    crate::check::lint_locked_binding(&prepared, None, &spec, &cc.candidates)?;
                }
                // `--audit` mode: realize the representative lock as
                // gate-level modules and score their structural leakage.
                if ctx.audit {
                    let modules =
                        lockbind_core::realize_locked_modules(&spec, prepared.dfg.width())
                            .map_err(|e| format!("audit realize: {e}"))?;
                    for (_, locked) in &modules {
                        crate::check::audit_locked_netlist(locked.netlist())?;
                    }
                }
                Ok(records)
            }
        }
    }

    /// Every field feeds the output; the label leaves out frames and seed.
    fn checkpoint_identity(&self) -> String {
        format!("{self:?}")
    }

    fn encode_output(&self, output: &Self::Output) -> Option<Json> {
        Some(codec::records_json(output, codec::error_record_json))
    }

    fn decode_output(&self, payload: &Json) -> Option<Self::Output> {
        codec::records_from_json(payload, codec::error_record_from_json)
    }
}

/// Builds the full error-experiment grid over `kernels`, in the exact
/// order of the serial loops: kernel, then class, then locked FUs, then
/// locked inputs. Infeasible cells stay in the grid and return empty
/// record lists, keeping the flattened output identical to the serial run.
pub fn error_grid(
    kernels: &[Kernel],
    frames: usize,
    seed: u64,
    params: &ExperimentParams,
) -> Vec<ErrorCell> {
    let mut cells = Vec::new();
    for &kernel in kernels {
        for class in FuClass::ALL {
            for locked_fus in 1..=params.max_locked_fus {
                for locked_inputs in 1..=params.max_locked_inputs {
                    cells.push(ErrorCell {
                        kernel,
                        frames,
                        seed,
                        class,
                        locked_fus,
                        locked_inputs,
                        params: *params,
                    });
                }
            }
        }
    }
    cells
}

/// Flattens in-order grid results into the serial record sequence, plus
/// the run's [`failure_list`].
pub fn collect_error_records(
    results: &[CellResult<Vec<ErrorRecord>>],
) -> (Vec<ErrorRecord>, Vec<(String, String)>) {
    let records = results
        .iter()
        .filter_map(CellResult::output)
        .flatten()
        .cloned()
        .collect();
    (records, failure_list(results))
}

/// One kernel of the Fig. 6 overhead measurement.
#[derive(Debug, Clone)]
pub struct OverheadCell {
    /// The kernel under test.
    pub kernel: Kernel,
    /// Profiling frames for kernel preparation.
    pub frames: usize,
    /// Kernel-preparation seed.
    pub seed: u64,
    /// Candidate locked inputs per class.
    pub num_candidates: usize,
}

impl Job for OverheadCell {
    type Output = Vec<OverheadRecord>;

    fn label(&self) -> String {
        format!("{}/overhead", self.kernel.name())
    }

    fn stage(&self) -> &'static str {
        "overhead"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let prepared = cached_prepared(ctx.cache, self.kernel, self.frames, self.seed);
        measure_overhead(&prepared, self.num_candidates).map_err(|e| e.to_string())
    }

    /// Every field feeds the output; the label leaves out frames and seed.
    fn checkpoint_identity(&self) -> String {
        format!("{self:?}")
    }

    fn encode_output(&self, output: &Self::Output) -> Option<Json> {
        Some(codec::records_json(output, codec::overhead_record_json))
    }

    fn decode_output(&self, payload: &Json) -> Option<Self::Output> {
        codec::records_from_json(payload, codec::overhead_record_from_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_engine::{Engine, EngineConfig};

    fn small_params() -> ExperimentParams {
        ExperimentParams {
            num_candidates: 4,
            max_locked_fus: 2,
            max_locked_inputs: 2,
            max_assignments: 40,
            optimal_budget: 100,
            seed: 7,
        }
    }

    fn quiet_engine(threads: usize) -> Engine {
        Engine::new(EngineConfig {
            threads,
            root_seed: 5,
            fail_fast: false,
            progress: false,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn grid_enumerates_in_serial_order() {
        let params = small_params();
        let cells = error_grid(&[Kernel::Fir, Kernel::EcbEnc4], 40, 5, &params);
        // 2 kernels x 2 classes x 2 fu-counts x 2 input-counts.
        assert_eq!(cells.len(), 16);
        assert_eq!(cells[0].label(), "fir/Adder/L1xm1");
        assert_eq!(cells[1].locked_inputs, 2);
        assert_eq!(cells[2].locked_fus, 2);
    }

    #[test]
    fn grid_matches_serial_experiment() {
        let params = small_params();
        let frames = 40;
        let seed = 5;
        let kernels = [Kernel::Fir];
        let engine = quiet_engine(2);
        let report = engine.run(&error_grid(&kernels, frames, seed, &params));
        let (records, failures) = collect_error_records(&report.results);
        assert!(failures.is_empty(), "failures: {failures:?}");

        let prepared = PreparedKernel::new(Kernel::Fir, frames, seed);
        let serial = crate::run_error_experiment(&prepared, &params).expect("serial runs");
        assert_eq!(records.len(), serial.len());
        for (grid_record, serial_record) in records.iter().zip(&serial) {
            assert_eq!(grid_record.kernel, serial_record.kernel);
            assert_eq!(grid_record.class, serial_record.class);
            assert_eq!(grid_record.locked_fus, serial_record.locked_fus);
            assert_eq!(grid_record.locked_inputs, serial_record.locked_inputs);
            assert_eq!(grid_record.algo, serial_record.algo);
            assert_eq!(grid_record.vs_area, serial_record.vs_area);
            assert_eq!(grid_record.vs_power, serial_record.vs_power);
            assert_eq!(grid_record.mean_errors, serial_record.mean_errors);
        }
        // The grid shares one PreparedKernel + per-class contexts.
        let stats = engine.cache().stats();
        assert!(stats.hits > 0, "cells must reuse cached artifacts");
        assert!(stats.entries <= 3, "1 kernel + at most 2 class contexts");
    }

    #[test]
    fn error_cell_outputs_round_trip_through_the_checkpoint_codec() {
        let params = small_params();
        let frames = 40;
        let seed = 5;
        let cells = error_grid(&[Kernel::Fir], frames, seed, &params);
        let engine = quiet_engine(1);
        let report = engine.run(&cells);
        for (cell, result) in cells.iter().zip(&report.results) {
            let output = result.output().expect("cell ok");
            let payload = cell.encode_output(output).expect("encodes");
            let decoded = cell.decode_output(&payload).expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{output:?}"));
        }
    }

    #[test]
    fn error_grid_lints_clean_under_check_mode() {
        let _serial = crate::check::REJECTIONS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let params = small_params();
        let engine = Engine::new(EngineConfig {
            threads: 2,
            root_seed: 5,
            fail_fast: false,
            progress: false,
            check: true,
            ..EngineConfig::default()
        });
        let report = engine.run(&error_grid(&[Kernel::Fir], 40, 5, &params));
        let (_, failures) = collect_error_records(&report.results);
        assert!(failures.is_empty(), "failures: {failures:?}");
        let counters = &report.metrics.obs.counters;
        assert!(counters["check.artifacts"] > 0, "checks never ran");
        assert_eq!(counters.get("check.rejected"), None);
    }

    #[test]
    fn multiply_free_kernels_produce_empty_multiplier_cells() {
        let params = small_params();
        let engine = quiet_engine(1);
        let cells = error_grid(&[Kernel::EcbEnc4], 40, 5, &params);
        let report = engine.run(&cells);
        let (records, failures) = collect_error_records(&report.results);
        assert!(failures.is_empty(), "failures: {failures:?}");
        assert!(records.iter().all(|r| r.class == FuClass::Adder));
    }
}
