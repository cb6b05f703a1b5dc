//! The combined headline grid: error-ratio cells plus end-to-end
//! locked-simulation and SAT-attack cells.
//!
//! `headline --profile` is the canonical observability entry point, so its
//! grid must exercise every pipeline stage the profiler reports on:
//! scheduling and binding (inside kernel preparation), matching (inside the
//! binding algorithms), the locked-datapath simulation, and the SAT attack.
//! The plain [`ErrorCell`] grid covers the first three;
//! this module adds [`ImpactCell`] (stage `locked-sim`) and [`SatCell`]
//! (stage `sat-attack`) and wraps all three in one [`HeadlineCell`] job
//! type so a single engine run covers the full pipeline.

use lockbind_attacks::{sat_attack, AttackConfig, AttackStop};
use lockbind_core::locked_sim::{output_corruption, wrong_keys};
use lockbind_core::realize_locked_modules;
use lockbind_engine::{failure_list, CellResult, Job, JobCtx};
use lockbind_hls::{FuClass, FuId};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, LockError, LockedNetlist,
};
use lockbind_mediabench::Kernel;
use lockbind_netlist::builders::adder_fu;
use lockbind_obs::Json;

use crate::grid::{cached_prepared, ErrorCell};
use crate::{error_grid, ErrorRecord, ExperimentParams};

/// One kernel of the end-to-end locked-simulation measurement: co-design a
/// lock, realize it as gate-level modules, and replay the workload with a
/// wrong key to measure output corruption (the `locked-sim` stage).
#[derive(Debug, Clone)]
pub struct ImpactCell {
    /// The kernel under test.
    pub kernel: Kernel,
    /// Profiling frames for kernel preparation and replay.
    pub frames: usize,
    /// Kernel-preparation seed.
    pub seed: u64,
}

/// Output of an [`ImpactCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactRecord {
    /// Kernel name.
    pub kernel: String,
    /// Fraction of frames with at least one corrupted primary output.
    pub frame_rate: f64,
    /// Frames with corrupted outputs.
    pub frames_corrupted: u64,
    /// Total frames replayed.
    pub frames_total: u64,
}

impl Job for ImpactCell {
    type Output = ImpactRecord;

    fn label(&self) -> String {
        format!("{}/locked-sim", self.kernel.name())
    }

    fn stage(&self) -> &'static str {
        "locked-sim"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let prepared = cached_prepared(ctx.cache, self.kernel, self.frames, self.seed);
        let class = if prepared.alloc.count(FuClass::Multiplier) > 0 {
            FuClass::Multiplier
        } else {
            FuClass::Adder
        };
        let candidates = prepared.candidates(class, 8);
        let design = prepared
            .codesign_problem(&[FuId::new(class, 0)], 2.min(candidates.len()), &candidates)
            .and_then(|problem| problem.realize(&problem.heuristic(&ctx.cancel)?))
            .map_err(|e| e.to_string())?;
        // `--check` mode: lint the co-designed lock end to end — the
        // certificate-assignment pass proves `design.binding` is the
        // certified Eqn. 3 optimum for `design.spec`.
        if ctx.check {
            crate::check::lint_locked_binding(
                &prepared,
                Some(&design.binding),
                &design.spec,
                &candidates,
            )?;
        }
        let modules = realize_locked_modules(&design.spec, prepared.dfg.width())
            .map_err(|e| e.to_string())?;
        // `--audit` mode: score every realized locked module's structural
        // leakage (findings land in the `audit.*` run metrics; only an
        // error-severity finding fails the cell).
        if ctx.audit {
            for (_, locked) in &modules {
                crate::check::audit_locked_netlist(locked.netlist())?;
            }
        }
        let keys = wrong_keys(&modules, 1);
        let corruption = output_corruption(
            &prepared.dfg,
            &design.binding,
            &modules,
            &keys,
            &prepared.trace,
        )
        .map_err(|e| e.to_string())?;
        Ok(ImpactRecord {
            kernel: prepared.name.clone(),
            frame_rate: corruption.frame_rate(),
            frames_corrupted: corruption.frames_corrupted,
            frames_total: corruption.frames_total,
        })
    }
}

/// Locking schemes exercised by the SAT-attack cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatScheme {
    /// Critical-minterm (point-function) locking — SAT-resilient.
    CriticalMinterm,
    /// Random logic locking — broken in a handful of DIPs.
    Rll,
    /// Anti-SAT — iteration count exponential in the input width.
    AntiSat,
    /// Permutation-network locking — per-iteration hardness.
    Permutation,
}

impl SatScheme {
    /// All schemes, in grid order.
    pub const ALL: [SatScheme; 4] = [
        SatScheme::CriticalMinterm,
        SatScheme::Rll,
        SatScheme::AntiSat,
        SatScheme::Permutation,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SatScheme::CriticalMinterm => "critical-minterm",
            SatScheme::Rll => "rll",
            SatScheme::AntiSat => "anti-sat",
            SatScheme::Permutation => "permutation",
        }
    }

    fn lock(self, width: u32) -> Result<LockedNetlist, LockError> {
        let adder = adder_fu(width);
        match self {
            SatScheme::CriticalMinterm => lock_critical_minterms(&adder, &[5, 11]),
            SatScheme::Rll => lock_rll(&adder, 6, 11),
            SatScheme::AntiSat => lock_anti_sat(&adder),
            SatScheme::Permutation => lock_permutation(&adder, 2),
        }
    }
}

/// One locking scheme of the SAT-attack measurement (the `sat-attack`
/// stage): lock a small adder FU and run the full oracle-guided attack.
#[derive(Debug, Clone)]
pub struct SatCell {
    /// The locking scheme under attack.
    pub scheme: SatScheme,
    /// Operand width of the adder FU (small widths keep attacks fast).
    pub width: u32,
}

/// Output of a [`SatCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct SatRecord {
    /// Scheme label.
    pub scheme: &'static str,
    /// Key bits of the locked module.
    pub key_bits: usize,
    /// DIP iterations the attack performed.
    pub iterations: u64,
    /// Whether a functionally-correct key was extracted.
    pub success: bool,
    /// CDCL conflicts across the whole attack.
    pub conflicts: u64,
    /// CDCL propagations across the whole attack.
    pub propagations: u64,
    /// Clause-arena garbage collections the solver performed.
    pub gc_runs: u64,
}

impl Job for SatCell {
    type Output = SatRecord;

    fn label(&self) -> String {
        format!("{}/sat-attack", self.scheme.label())
    }

    fn stage(&self) -> &'static str {
        "sat-attack"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let locked = self.scheme.lock(self.width).map_err(|e| e.to_string())?;
        // `--check` mode: lint the locked gate graph before attacking it.
        if ctx.check {
            crate::check::lint_netlist(locked.netlist())?;
        }
        // `--audit` mode: the structural-leakage scorecard of the scheme
        // under attack (warnings expected for weak schemes; errors fail).
        if ctx.audit {
            crate::check::audit_locked_netlist(locked.netlist())?;
        }
        let config = AttackConfig {
            cancel: ctx.cancel.clone(),
            ..AttackConfig::default()
        };
        let out = sat_attack(&locked, &config);
        if out.stop == AttackStop::Interrupted {
            // Surface the interruption as a cell error so the engine can
            // classify it (deadline fired → `CellResult::TimedOut`).
            return Err(format!(
                "sat attack interrupted after {} iterations",
                out.iterations
            ));
        }
        Ok(SatRecord {
            scheme: self.scheme.label(),
            key_bits: locked.key_bits(),
            iterations: out.iterations,
            success: out.success,
            conflicts: out.solver_stats.conflicts,
            propagations: out.solver_stats.propagations,
            gc_runs: out.solver_stats.gc_runs,
        })
    }
}

/// One cell of the combined headline grid.
#[derive(Debug, Clone)]
pub enum HeadlineCell {
    /// An error-ratio cell (stage `error-cell`).
    Error(ErrorCell),
    /// A locked-simulation cell (stage `locked-sim`).
    Impact(ImpactCell),
    /// A SAT-attack cell (stage `sat-attack`).
    Sat(SatCell),
}

/// Output of a [`HeadlineCell`], mirroring its variant.
#[derive(Debug, Clone)]
pub enum HeadlineOutput {
    /// Error-ratio records.
    Error(Vec<ErrorRecord>),
    /// A locked-simulation record.
    Impact(ImpactRecord),
    /// A SAT-attack record.
    Sat(SatRecord),
}

impl Job for HeadlineCell {
    type Output = HeadlineOutput;

    fn label(&self) -> String {
        match self {
            HeadlineCell::Error(c) => c.label(),
            HeadlineCell::Impact(c) => c.label(),
            HeadlineCell::Sat(c) => c.label(),
        }
    }

    fn stage(&self) -> &'static str {
        match self {
            HeadlineCell::Error(c) => c.stage(),
            HeadlineCell::Impact(c) => c.stage(),
            HeadlineCell::Sat(c) => c.stage(),
        }
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        match self {
            HeadlineCell::Error(c) => c.run(ctx).map(HeadlineOutput::Error),
            HeadlineCell::Impact(c) => c.run(ctx).map(HeadlineOutput::Impact),
            HeadlineCell::Sat(c) => c.run(ctx).map(HeadlineOutput::Sat),
        }
    }

    /// Every field of every variant feeds the output; the labels leave out
    /// frames, seeds and widths.
    fn checkpoint_identity(&self) -> String {
        format!("{self:?}")
    }

    fn encode_output(&self, output: &Self::Output) -> Option<Json> {
        Some(crate::codec::headline_output_json(output))
    }

    fn decode_output(&self, payload: &Json) -> Option<Self::Output> {
        crate::codec::headline_output_from_json(payload)
    }
}

/// Builds the combined headline grid: one SAT-attack cell per scheme, the
/// full error-ratio grid, then one locked-simulation cell per kernel.
///
/// The engine hands cells out in submission order, and a SAT-attack cell
/// runs an order of magnitude longer than any other cell of the grid, so
/// they go first: submitted last, they would leave every worker but one
/// idle at the end of each sweep. [`collect_headline_records`] splits the
/// results by kind, so the order changes no record list.
pub fn headline_grid(
    kernels: &[Kernel],
    frames: usize,
    seed: u64,
    params: &ExperimentParams,
) -> Vec<HeadlineCell> {
    let mut cells: Vec<HeadlineCell> = SatScheme::ALL
        .into_iter()
        .map(|scheme| HeadlineCell::Sat(SatCell { scheme, width: 3 }))
        .collect();
    cells.extend(
        error_grid(kernels, frames, seed, params)
            .into_iter()
            .map(HeadlineCell::Error),
    );
    cells.extend(kernels.iter().map(|&kernel| {
        HeadlineCell::Impact(ImpactCell {
            kernel,
            frames,
            seed,
        })
    }));
    cells
}

/// Per-stage record lists split back out of combined-grid results, plus
/// `(cell, message)` failures.
pub type HeadlineRecords = (
    Vec<ErrorRecord>,
    Vec<ImpactRecord>,
    Vec<SatRecord>,
    Vec<(String, String)>,
);

/// Splits in-order combined-grid results back into per-stage record lists,
/// each in the order its cells were submitted, plus the run's
/// [`failure_list`].
pub fn collect_headline_records(results: &[CellResult<HeadlineOutput>]) -> HeadlineRecords {
    let mut errors = Vec::new();
    let mut impacts = Vec::new();
    let mut sats = Vec::new();
    for output in results.iter().filter_map(CellResult::output) {
        match output {
            HeadlineOutput::Error(records) => errors.extend(records.iter().cloned()),
            HeadlineOutput::Impact(record) => impacts.push(record.clone()),
            HeadlineOutput::Sat(record) => sats.push(record.clone()),
        }
    }
    (errors, impacts, sats, failure_list(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_engine::{Engine, EngineConfig};

    fn small_params() -> ExperimentParams {
        ExperimentParams {
            num_candidates: 4,
            max_locked_fus: 1,
            max_locked_inputs: 1,
            max_assignments: 20,
            optimal_budget: 50,
            seed: 7,
        }
    }

    #[test]
    fn combined_grid_covers_all_stages() {
        let cells = headline_grid(&[Kernel::Fir], 40, 5, &small_params());
        let stages: std::collections::BTreeSet<&str> = cells.iter().map(|c| c.stage()).collect();
        assert!(stages.contains("error-cell"));
        assert!(stages.contains("locked-sim"));
        assert!(stages.contains("sat-attack"));
    }

    #[test]
    fn sat_cells_lead_and_the_order_changes_no_record() {
        let cells = headline_grid(&[Kernel::Fir, Kernel::EcbEnc4], 40, 5, &small_params());
        let sats = SatScheme::ALL.len();
        let is_sat = |cell: &HeadlineCell| matches!(cell, HeadlineCell::Sat(_));
        assert!(cells[..sats].iter().all(is_sat));
        assert!(!cells[sats..].iter().any(is_sat));
        // The order the grid used to submit: error, impact, then SAT cells.
        let mut old = cells[sats..].to_vec();
        old.extend_from_slice(&cells[..sats]);
        let records = |cells: &[HeadlineCell]| {
            let engine = Engine::new(EngineConfig {
                threads: 2,
                root_seed: 5,
                progress: false,
                ..EngineConfig::default()
            });
            format!("{:?}", collect_headline_records(&engine.run(cells).results))
        };
        assert_eq!(records(&cells), records(&old));
    }

    #[test]
    fn combined_grid_runs_end_to_end() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            root_seed: 5,
            fail_fast: false,
            progress: false,
            check: true,
            ..EngineConfig::default()
        });
        let cells = headline_grid(&[Kernel::Fir], 40, 5, &small_params());
        let report = engine.run(&cells);
        let (errors, impacts, sats, failures) = collect_headline_records(&report.results);
        assert!(failures.is_empty(), "failures: {failures:?}");
        assert!(!errors.is_empty());
        assert_eq!(impacts.len(), 1);
        assert_eq!(sats.len(), SatScheme::ALL.len());
        assert!(sats.iter().all(|s| s.success));
        // Corruption may be fully masked on tiny workloads (that masking is
        // the paper's motivation); the cell still must replay every frame.
        assert_eq!(impacts[0].frames_total, 40);
        assert!(impacts[0].frames_corrupted <= impacts[0].frames_total);
    }
}
