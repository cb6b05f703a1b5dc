//! The Fig. 4 / Fig. 5 error-ratio experiment.
//!
//! For every locking configuration ({1,2,3} locked FUs x {1,2,3} locked
//! inputs) and every combination of candidate locked inputs, a circuit is
//! bound with each security-aware algorithm and with the area-/power-aware
//! baselines under the *identical* locking configuration; the ratio of
//! expected application errors (Eqn. 2) quantifies the security gain.
//!
//! Exact reproduction notes (documented deviations, see EXPERIMENTS.md):
//!
//! * Combination assignments across multiple locked FUs grow as
//!   `C(10, m)^L` (1.7M at L=3, m=3); when the count exceeds
//!   [`ExperimentParams::max_assignments`] a deterministic pseudo-random
//!   subsample is used instead of full enumeration.
//! * Ratios use Laplace smoothing `(1 + E_sec) / (1 + E_base)` because the
//!   baselines frequently achieve *zero* expected errors for unlucky
//!   combinations (the paper does not state its convention).

use std::sync::OnceLock;

use lockbind_core::{ClassTable, CoDesignProblem, CoreError, LockingSpec};
use lockbind_hls::{Binding, FuClass, FuId, Minterm};
use lockbind_obs as obs;
use lockbind_resil::{splitmix64, CancelToken};

use crate::PreparedKernel;

/// Which security-aware algorithm produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityAlgo {
    /// Problem 1: locked inputs fixed before binding (Sec. IV).
    ObfAware,
    /// Problem 2, P-time heuristic (Sec. V-A).
    CoDesignHeuristic,
    /// Problem 2, exhaustive optimal (Sec. V-B); only run where tractable.
    CoDesignOptimal,
}

impl SecurityAlgo {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SecurityAlgo::ObfAware => "obf-aware",
            SecurityAlgo::CoDesignHeuristic => "codesign-heur",
            SecurityAlgo::CoDesignOptimal => "codesign-opt",
        }
    }
}

/// One experiment cell: a kernel, FU class, locking configuration, and
/// algorithm, with mean error ratios against both baselines.
#[derive(Debug, Clone)]
pub struct ErrorRecord {
    /// Kernel name (paper x-axis label).
    pub kernel: String,
    /// FU class bound/locked (adders and multipliers are treated
    /// separately, as in the paper).
    pub class: FuClass,
    /// Number of locked FUs (1..=3).
    pub locked_fus: usize,
    /// Locked inputs per FU (1..=3).
    pub locked_inputs: usize,
    /// The security-aware algorithm.
    pub algo: SecurityAlgo,
    /// Mean smoothed ratio of expected errors vs area-aware binding.
    pub vs_area: f64,
    /// Mean smoothed ratio vs power-aware binding.
    pub vs_power: f64,
    /// Mean absolute expected errors of the security-aware configuration.
    pub mean_errors: f64,
    /// Combination assignments evaluated.
    pub samples: usize,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Candidate locked inputs per class (paper: 10).
    pub num_candidates: usize,
    /// Locked-FU counts to sweep (paper: 1..=3).
    pub max_locked_fus: usize,
    /// Locked-input counts to sweep (paper: 1..=3).
    pub max_locked_inputs: usize,
    /// Cap on enumerated combination assignments per configuration; beyond
    /// this a seeded subsample is drawn.
    pub max_assignments: usize,
    /// Run the exact optimal co-design when its search space,
    /// `C(|C|, m)^{|L|}` combination orderings, fits this budget.
    pub optimal_budget: u128,
    /// Subsampling seed.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            num_candidates: 10,
            max_locked_fus: 3,
            max_locked_inputs: 3,
            max_assignments: 1500,
            optimal_budget: 20_000,
            seed: 0x0DAC_2021,
        }
    }
}

/// Laplace-smoothed error ratio.
fn ratio(sec: u64, base: u64) -> f64 {
    (1.0 + sec as f64) / (1.0 + base as f64)
}

/// Locking-independent per-(kernel, class) context: the candidate locked
/// inputs plus the area-/power-aware baseline bindings.
///
/// Building it is the shared part of every cell of a class — under the
/// execution engine it is built once per (kernel, class) and memoized in
/// the artifact cache. The baselines come from
/// [`PreparedKernel::baselines`], so a kernel's classes share one pair.
/// The class's Eqn. 3 candidate table is built later, by the first cell
/// that reads it, and then shared by every cell of the class.
#[derive(Debug, Clone)]
pub struct ClassContext {
    /// The FU class this context covers.
    pub class: FuClass,
    /// The paper's candidate locked-input list for this class.
    pub candidates: Vec<Minterm>,
    /// Area-aware baseline binding (locking-independent).
    pub area: Binding,
    /// Power-aware baseline binding (locking-independent).
    pub power: Binding,
    /// The class's tables, built on first use by [`ClassContext::tables`].
    tables: OnceLock<Result<ClassTables, CoreError>>,
}

/// What every error cell of a class reads and none of them changes: the
/// class's [`ClassTable`] over the context's candidates, and each of the
/// class's FUs' errors per candidate under the two baseline bindings.
#[derive(Debug, Clone)]
struct ClassTables {
    table: ClassTable,
    /// `baselines[j * |C| + i]`: the errors of FU `j` of the class locked
    /// with candidate `i` alone, under the area- and the power-aware
    /// binding. Eqn. 2 on a fixed binding is linear in the locked set, so
    /// a lock's baseline errors are sums of these.
    baselines: Vec<[u64; 2]>,
}

impl ClassContext {
    /// Builds the context, or `None` when the kernel has no candidates for
    /// `class` (e.g. the multiplier class of a multiply-free kernel).
    ///
    /// # Errors
    /// Propagates baseline binding errors from `lockbind-core`.
    pub fn build(
        prepared: &PreparedKernel,
        class: FuClass,
        num_candidates: usize,
    ) -> Result<Option<ClassContext>, CoreError> {
        let candidates = prepared.candidates(class, num_candidates);
        if candidates.is_empty() {
            return Ok(None);
        }
        let (area, power) = prepared.baselines()?.clone();
        Ok(Some(ClassContext {
            class,
            candidates,
            area,
            power,
            tables: OnceLock::new(),
        }))
    }

    /// The class's tables over `prepared`, the kernel this context was
    /// built from. The first call builds them and every later call, from
    /// any thread, reads the same ones. [`build`](Self::build) runs when the
    /// engine fills its artifact cache, before any cell, so building them
    /// there would move the work into set-up rather than remove it.
    ///
    /// # Errors
    /// As [`ClassTable::new`].
    fn tables(&self, prepared: &PreparedKernel) -> Result<&ClassTables, CoreError> {
        self.tables
            .get_or_init(|| {
                let table = ClassTable::new(
                    &prepared.dfg,
                    &prepared.schedule,
                    &prepared.alloc,
                    &prepared.profile,
                    self.class,
                    &self.candidates,
                )?;
                let profile = &prepared.profile;
                let mut baselines = Vec::new();
                for j in 0..prepared.alloc.count(self.class) {
                    let fu = FuId::new(self.class, j);
                    let (area, power) = (self.area.ops_on(fu), self.power.ops_on(fu));
                    baselines.extend(self.candidates.iter().map(|&m| {
                        [&area, &power].map(|ops| ops.iter().map(|&op| profile.count(op, m)).sum())
                    }));
                }
                Ok(ClassTables { table, baselines })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The fixed locking spec of a configuration: the first `locked_inputs`
    /// candidates on each of the first `locked_fus` FUs of the class. It is
    /// the representative lock of an error cell under `--check`/`--audit`
    /// and the spec serve's `bind` requests lock.
    ///
    /// # Errors
    /// A message naming the kernel when it allocates fewer FUs or yields
    /// fewer candidates than the configuration locks.
    pub fn first_candidates_spec(
        &self,
        prepared: &PreparedKernel,
        locked_fus: usize,
        locked_inputs: usize,
    ) -> Result<LockingSpec, String> {
        let available = prepared.alloc.count(self.class);
        if locked_fus > available {
            return Err(format!(
                "kernel '{}' allocates only {available} {} FU(s); cannot lock {locked_fus}",
                prepared.name,
                self.class.name()
            ));
        }
        if locked_inputs > self.candidates.len() {
            return Err(format!(
                "kernel '{}' yields only {} locked-input candidate(s) for class {}; \
                 cannot lock {locked_inputs} per FU",
                prepared.name,
                self.candidates.len(),
                self.class.name()
            ));
        }
        let minterms = &self.candidates[..locked_inputs];
        let entries = (0..locked_fus)
            .map(|i| (FuId::new(self.class, i), minterms.to_vec()))
            .collect();
        LockingSpec::new(&prepared.alloc, entries).map_err(|e| e.to_string())
    }
}

/// Evaluates one experiment cell — one `(locked_fus, locked_inputs)`
/// configuration of one class — and returns its records.
///
/// This is a pure function of its arguments: no global state, no interior
/// ordering dependence, which is what lets the execution engine run cells
/// in parallel with results identical to the serial loop. Configurations
/// outside the feasible bounds (more locked FUs than allocated, more locked
/// inputs than candidates) return an empty record list.
///
/// `cancel` is polled once per combination assignment and per co-design
/// search step, so a cell whose deadline fires stops within one
/// assignment's worth of work; batch callers pass `&CancelToken::new()`.
///
/// # Errors
/// Propagates binding/search errors from `lockbind-core`, and returns
/// [`CoreError::Interrupted`] when `cancel` fires mid-cell.
pub fn run_error_cell_cancellable(
    prepared: &PreparedKernel,
    ctx: &ClassContext,
    params: &ExperimentParams,
    locked_fus: usize,
    locked_inputs: usize,
    cancel: &CancelToken,
) -> Result<Vec<ErrorRecord>, CoreError> {
    let max_fus = params.max_locked_fus.min(prepared.alloc.count(ctx.class));
    let max_inputs = params.max_locked_inputs.min(ctx.candidates.len());
    if locked_fus == 0 || locked_fus > max_fus || locked_inputs == 0 || locked_inputs > max_inputs {
        return Ok(Vec::new());
    }
    let fus: Vec<FuId> = (0..locked_fus).map(|i| FuId::new(ctx.class, i)).collect();
    let cell = {
        // The class's tables (on the class's first cell), the problem's
        // sweep derived from them, and the cell's baseline entries.
        let _span = obs::span!("cell.inputs");
        Cell::build(prepared, ctx, &fus, locked_inputs)?
    };
    let searched = cell.codesign(params.optimal_budget, cancel)?;
    cell.records(params, &searched, cancel)
}

/// [`run_error_cell_cancellable`] with a token that never fires, kept only
/// because the frozen `perfbench` harness calls it. Delete at the next
/// benchmark change.
#[doc(hidden)]
pub fn run_error_cell(
    p: &PreparedKernel,
    ctx: &ClassContext,
    params: &ExperimentParams,
    fus: usize,
    inputs: usize,
) -> Result<Vec<ErrorRecord>, CoreError> {
    run_error_cell_cancellable(p, ctx, params, fus, inputs, &CancelToken::new())
}

/// Runs the full error-ratio experiment for one prepared kernel, producing
/// one [`ErrorRecord`] per (class, configuration, algorithm).
///
/// This is the serial reference loop; the engine-backed grid in
/// [`crate::grid`] produces the identical record sequence cell by cell.
///
/// # Errors
/// Propagates binding/search errors from `lockbind-core` (none are expected
/// for suite kernels).
pub fn run_error_experiment(
    prepared: &PreparedKernel,
    params: &ExperimentParams,
) -> Result<Vec<ErrorRecord>, CoreError> {
    let cancel = CancelToken::new();
    let mut records = Vec::new();
    for class in prepared.classes() {
        let Some(ctx) = ClassContext::build(prepared, class, params.num_candidates)? else {
            continue;
        };
        for locked_fus in 1..=params.max_locked_fus {
            for locked_inputs in 1..=params.max_locked_inputs {
                records.extend(run_error_cell_cancellable(
                    prepared,
                    &ctx,
                    params,
                    locked_fus,
                    locked_inputs,
                    &cancel,
                )?);
            }
        }
    }
    Ok(records)
}

/// The combination assignments a cell evaluates, one at a time:
/// exhaustive when the problem's
/// [configurations](CoDesignProblem::configurations) fit
/// `max_assignments`, otherwise a seeded subsample of that size. Each is
/// one combination per locked FU, generated in place, so no list of
/// assignments is ever built.
struct Assignments {
    digits: Vec<usize>,
    radix: usize,
    /// Assignments still to come.
    remaining: usize,
    /// The subsample's splitmix64 state; `None` for the exhaustive walk.
    sampled: Option<u64>,
    started: bool,
}

impl Assignments {
    fn new(params: &ExperimentParams, problem: &CoDesignProblem, locked_inputs: usize) -> Self {
        let num_fus = problem.locked_fus().len();
        let num_combos = problem.combinations().len();
        let total = problem.configurations();
        if total <= params.max_assignments as u128 {
            Assignments::exhaustive(num_fus, num_combos, total as usize)
        } else {
            let state = params.seed ^ ((num_fus as u64) << 32) ^ locked_inputs as u64;
            Assignments {
                sampled: Some(state),
                ..Assignments::exhaustive(num_fus, num_combos, params.max_assignments)
            }
        }
    }

    /// The first `total` assignments of `radix` combinations to `digits`
    /// locked FUs in mixed-radix order, digit 0 (the first locked FU)
    /// fastest: digit `k` of assignment `index` is
    /// `index / radix^k % radix`, read off a counter that carries instead
    /// of dividing.
    fn exhaustive(digits: usize, radix: usize, total: usize) -> Self {
        Assignments {
            digits: vec![0; digits],
            radix,
            remaining: total,
            sampled: None,
            started: false,
        }
    }

    /// The number of assignments still to come: all of them before the
    /// first [`advance`](Self::advance).
    fn len(&self) -> usize {
        self.remaining
    }

    /// The next assignment, or `None` after the last.
    fn advance(&mut self) -> Option<&[usize]> {
        self.remaining = self.remaining.checked_sub(1)?;
        match &mut self.sampled {
            Some(state) => {
                for digit in &mut self.digits {
                    *digit = (splitmix64(state) as usize) % self.radix;
                }
            }
            None if self.started => {
                for digit in &mut self.digits {
                    *digit += 1;
                    if *digit < self.radix {
                        break;
                    }
                    *digit = 0;
                }
            }
            None => self.started = true,
        }
        Some(&self.digits)
    }
}

/// One error cell's shared state: the co-design problem (its combinations
/// and the sweep derived from the class table), and each (slot,
/// combination)'s baseline errors. The co-design searches and the one
/// streaming pass over the assignments read it.
struct Cell<'a> {
    prepared: &'a PreparedKernel,
    ctx: &'a ClassContext,
    locked_inputs: usize,
    problem: CoDesignProblem<'a>,
    /// `base[k * |combos| + c]`: the errors slot `k`'s FU contributes
    /// locked with combination `c`, under the area- and the power-aware
    /// binding. An assignment's baseline errors are one entry per slot,
    /// summed: the same `u64`s Eqn. 2 gives on the assignment's spec.
    base: Vec<[u64; 2]>,
}

impl<'a> Cell<'a> {
    fn build(
        prepared: &'a PreparedKernel,
        ctx: &'a ClassContext,
        fus: &'a [FuId],
        locked_inputs: usize,
    ) -> Result<Cell<'a>, CoreError> {
        let tables = ctx.tables(prepared)?;
        let problem = CoDesignProblem::with_table(
            &prepared.dfg,
            &prepared.schedule,
            &prepared.alloc,
            &prepared.profile,
            &tables.table,
            fus,
            locked_inputs,
        )?;
        let n = ctx.candidates.len();
        let mut base = Vec::with_capacity(fus.len() * problem.combinations().len());
        for fu in fus {
            let sums = &tables.baselines[fu.index * n..][..n];
            base.extend(problem.combinations().iter().map(|combo| {
                combo.iter().fold([0, 0], |[area, power], &i| {
                    [area + sums[i][0], power + sums[i][1]]
                })
            }));
        }
        Ok(Cell {
            prepared,
            ctx,
            locked_inputs,
            problem,
            base,
        })
    }

    /// This cell's record of `algo` over `samples` assignments.
    fn record(
        &self,
        algo: SecurityAlgo,
        [vs_area, vs_power]: [f64; 2],
        errors: f64,
        samples: usize,
    ) -> ErrorRecord {
        ErrorRecord {
            kernel: self.prepared.name.clone(),
            class: self.ctx.class,
            locked_fus: self.problem.locked_fus().len(),
            locked_inputs: self.locked_inputs,
            algo,
            vs_area,
            vs_power,
            mean_errors: errors,
            samples,
        }
    }

    /// Co-design searches: the heuristic always; the exact search when the
    /// problem's configurations fit `optimal_budget`. Each yields its
    /// search's sweep score; no choice is bound.
    fn codesign(
        &self,
        optimal_budget: u128,
        cancel: &CancelToken,
    ) -> Result<Vec<(SecurityAlgo, u64)>, CoreError> {
        let _span = obs::span!("cell.codesign");
        let heuristic = self.problem.heuristic(cancel)?;
        let mut out = vec![(SecurityAlgo::CoDesignHeuristic, heuristic.errors())];
        if self.problem.configurations() <= optimal_budget {
            let optimal = self.problem.optimal(cancel)?;
            out.push((SecurityAlgo::CoDesignOptimal, optimal.errors()));
        }
        Ok(out)
    }

    /// The cell's records in one pass over its assignments: the
    /// obfuscation-aware record, then one per search in `searched`.
    ///
    /// Obfuscation-aware half: each assignment is scored on the problem's
    /// sweep, one [`score`](lockbind_core::ErrorSweep::score) per
    /// assignment, whose per-cycle optima are the exact errors a cold
    /// `bind_obfuscation_aware` + `expected_application_errors` pair would
    /// produce (the `lockbind-check` mutation suite pins this), and
    /// compared against the baselines locked with the *same* assignment.
    ///
    /// Co-design half. Ratio convention (matching the paper's Fig. 4
    /// bottom, where co-design ratios are far above the obf-aware ones):
    /// the co-design error count is compared against the baseline bindings
    /// locked with *each enumerated candidate combination* of the same
    /// configuration, and the ratios are averaged — i.e. "how much better
    /// is letting the algorithm pick both the binding and the inputs than
    /// locking a same-shaped configuration after area/power-aware
    /// binding".
    ///
    /// Every `f64` sum adds its terms in assignment order, so every record
    /// is byte-identical to the legacy per-assignment binding loop and the
    /// legacy mean over the materialised baseline lists.
    fn records(
        &self,
        params: &ExperimentParams,
        searched: &[(SecurityAlgo, u64)],
        cancel: &CancelToken,
    ) -> Result<Vec<ErrorRecord>, CoreError> {
        let mut walk = Assignments::new(params, &self.problem, self.locked_inputs);
        let n = walk.len();
        let _span = obs::span!("cell.obf_aware", assignments = n);
        let (sweep, radix) = (self.problem.sweep(), self.problem.combinations().len());
        let (mut obf, mut sum_err) = ([0.0; 2], 0.0);
        let mut sums = vec![[0.0; 2]; searched.len()];
        while let Some(assign) = walk.advance() {
            if cancel.is_cancelled() {
                return Err(CoreError::Interrupted {
                    stage: "bench.obf_aware",
                });
            }
            let mut base = [0, 0];
            for (k, &c) in assign.iter().enumerate() {
                let [area, power] = self.base[k * radix + c];
                base = [base[0] + area, base[1] + power];
            }
            let e_obf = sweep.score(assign);
            for (sum, b) in obf.iter_mut().zip(base) {
                *sum += ratio(e_obf, b);
            }
            sum_err += e_obf as f64;
            for (sum, &(_, errors)) in sums.iter_mut().zip(searched) {
                for (s, b) in sum.iter_mut().zip(base) {
                    *s += ratio(errors, b);
                }
            }
        }
        let mean = |[area, power]: [f64; 2]| [area / n as f64, power / n as f64];
        let mut records =
            vec![self.record(SecurityAlgo::ObfAware, mean(obf), sum_err / n as f64, n)];
        for (&sum, &(algo, errors)) in sums.iter().zip(searched) {
            records.push(self.record(algo, mean(sum), errors as f64, n));
        }
        Ok(records)
    }
}

/// Geometric mean helper used by the report binaries (log-scale bars in the
/// paper's figures suggest multiplicative aggregation; the arithmetic mean
/// is also reported).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::OccurrenceProfile;
    use lockbind_mediabench::Kernel;

    /// Every assignment of `walk`, flat with stride `|L|`.
    fn collect(mut walk: Assignments) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(assign) = walk.advance() {
            out.extend_from_slice(assign);
        }
        out
    }

    /// The exhaustive walk's first `total` assignments, materialised.
    fn odometer(digits: usize, radix: usize, total: usize) -> Vec<usize> {
        collect(Assignments::exhaustive(digits, radix, total))
    }

    /// The assignments a cell of `problem` evaluates, materialised.
    fn enumerate_assignments(
        params: &ExperimentParams,
        problem: &CoDesignProblem,
        locked_inputs: usize,
    ) -> Vec<usize> {
        collect(Assignments::new(params, problem, locked_inputs))
    }

    /// Per-(slot, combination) Eqn. 2 errors of a fixed baseline binding,
    /// recounted from the profile: `table[k][ci]` is the errors slot `k`'s
    /// FU contributes locked with combination `ci`.
    fn baseline_tables(
        profile: &OccurrenceProfile,
        binding: &Binding,
        fus: &[FuId],
        combos: &[Vec<usize>],
        candidates: &[Minterm],
    ) -> Vec<Vec<u64>> {
        fus.iter()
            .map(|&fu| {
                let ops = binding.ops_on(fu);
                combos
                    .iter()
                    .map(|combo| {
                        combo
                            .iter()
                            .map(|&i| {
                                ops.iter()
                                    .map(|&op| profile.count(op, candidates[i]))
                                    .sum::<u64>()
                            })
                            .sum()
                    })
                    .collect()
            })
            .collect()
    }

    /// The error cell as it was before streaming, materialised: a
    /// co-design problem built from scratch, the assignment list, each
    /// assignment's two baseline errors from recounted tables, the
    /// obf-aware sums over the lists, and each search's mean ratio over
    /// them. The streaming cell must reproduce its records bitwise.
    fn materialised_cell(
        p: &PreparedKernel,
        params: &ExperimentParams,
        ctx: &ClassContext,
        locked_fus: usize,
        locked_inputs: usize,
    ) -> Vec<ErrorRecord> {
        let fus: Vec<FuId> = (0..locked_fus).map(|i| FuId::new(ctx.class, i)).collect();
        let problem = p
            .codesign_problem(&fus, locked_inputs, &ctx.candidates)
            .expect("builds");
        let assignments = enumerate_assignments(params, &problem, locked_inputs);
        let combos = problem.combinations();
        let base = |binding: &Binding| -> Vec<u64> {
            let table = baseline_tables(&p.profile, binding, &fus, combos, &ctx.candidates);
            assignments
                .chunks_exact(fus.len())
                .map(|assign| assign.iter().enumerate().map(|(k, &ci)| table[k][ci]).sum())
                .collect()
        };
        let (base_area, base_power) = (base(&ctx.area), base(&ctx.power));
        let n = base_area.len();
        let record = |algo, vs_area, vs_power, mean_errors| ErrorRecord {
            kernel: p.name.clone(),
            class: ctx.class,
            locked_fus,
            locked_inputs,
            algo,
            vs_area,
            vs_power,
            mean_errors,
            samples: n,
        };
        let (mut sum_area, mut sum_power, mut sum_err) = (0.0, 0.0, 0.0);
        for (i, assign) in assignments.chunks_exact(fus.len()).enumerate() {
            let e_obf = problem.sweep().score(assign);
            sum_area += ratio(e_obf, base_area[i]);
            sum_power += ratio(e_obf, base_power[i]);
            sum_err += e_obf as f64;
        }
        let n_f = n as f64;
        let mut out = vec![record(
            SecurityAlgo::ObfAware,
            sum_area / n_f,
            sum_power / n_f,
            sum_err / n_f,
        )];
        let never = CancelToken::new();
        let mut searched = vec![(
            SecurityAlgo::CoDesignHeuristic,
            problem.heuristic(&never).expect("runs").errors(),
        )];
        if problem.configurations() <= params.optimal_budget {
            let optimal = problem.optimal(&never).expect("runs").errors();
            searched.push((SecurityAlgo::CoDesignOptimal, optimal));
        }
        for (algo, errors) in searched {
            let vs_area = legacy_mean_ratio(errors, &base_area);
            let vs_power = legacy_mean_ratio(errors, &base_power);
            out.push(record(algo, vs_area, vs_power, errors as f64));
        }
        out
    }

    fn small_params() -> ExperimentParams {
        ExperimentParams {
            num_candidates: 4,
            max_locked_fus: 2,
            max_locked_inputs: 2,
            max_assignments: 60,
            optimal_budget: 200,
            seed: 7,
        }
    }

    #[test]
    fn experiment_produces_records_for_both_classes() {
        let p = PreparedKernel::new(Kernel::Fir, 80, 5);
        let records = run_error_experiment(&p, &small_params()).expect("runs");
        assert!(records.iter().any(|r| r.class == FuClass::Adder));
        assert!(records.iter().any(|r| r.class == FuClass::Multiplier));
        // 2 classes x 2 fu-counts x 2 input-counts x (obf + heur [+ opt]).
        assert!(records.len() >= 16, "records: {}", records.len());
    }

    #[test]
    fn first_candidates_spec_locks_the_leading_candidates_or_says_why_not() {
        let p = PreparedKernel::new(Kernel::Fir, 40, 5);
        let ctx = ClassContext::build(&p, FuClass::Adder, 2)
            .expect("builds")
            .expect("fir has adder candidates");
        let spec = ctx.first_candidates_spec(&p, 2, 2).expect("feasible");
        assert_eq!(spec.iter().count(), 2);
        for (i, (fu, minterms)) in spec.iter().enumerate() {
            assert_eq!(fu, FuId::new(FuClass::Adder, i));
            assert_eq!(minterms, &ctx.candidates[..2]);
        }
        // Serve's `bind` answers with these messages verbatim.
        let adders = p.alloc.count(FuClass::Adder);
        assert_eq!(
            ctx.first_candidates_spec(&p, adders + 1, 1).unwrap_err(),
            format!(
                "kernel 'fir' allocates only {adders} adder FU(s); cannot lock {}",
                adders + 1
            )
        );
        assert_eq!(
            ctx.first_candidates_spec(&p, 1, 3).unwrap_err(),
            "kernel 'fir' yields only 2 locked-input candidate(s) for class adder; \
             cannot lock 3 per FU"
        );
    }

    #[test]
    fn security_algorithms_dominate_baselines_on_average() {
        let p = PreparedKernel::new(Kernel::Motion2, 120, 5);
        let records = run_error_experiment(&p, &small_params()).expect("runs");
        for r in &records {
            assert!(
                r.vs_area >= 0.99,
                "{:?} vs_area {} < 1: security-aware binding should never lose",
                r.algo,
                r.vs_area
            );
            assert!(r.vs_power >= 0.99, "{:?} vs_power {}", r.algo, r.vs_power);
        }

        // On jctrans2 the per-|L| mean of vs_area over all algorithms never
        // drops below 1, not even by the tolerance above.
        let p = PreparedKernel::new(Kernel::Jctrans2, 40, 3);
        let params = ExperimentParams {
            num_candidates: 3,
            max_locked_fus: 2,
            max_locked_inputs: 1,
            max_assignments: 20,
            optimal_budget: 10,
            seed: 1,
        };
        let records = run_error_experiment(&p, &params).expect("runs");
        let mut by_fus = std::collections::BTreeMap::<usize, (f64, usize)>::new();
        for r in &records {
            let e = by_fus.entry(r.locked_fus).or_default();
            e.0 += r.vs_area;
            e.1 += 1;
        }
        assert!(!by_fus.is_empty());
        for (fus, (sum, n)) in by_fus {
            let mean = sum / n as f64;
            assert!(mean >= 1.0 - 1e-9, "|L| = {fus}: mean vs_area {mean}");
        }
    }

    #[test]
    fn optimal_dominates_heuristic_where_run() {
        let p = PreparedKernel::new(Kernel::Jdmerge1, 80, 9);
        let records = run_error_experiment(&p, &small_params()).expect("runs");
        for r in &records {
            if r.algo != SecurityAlgo::CoDesignOptimal {
                continue;
            }
            let heur = records
                .iter()
                .find(|h| {
                    h.algo == SecurityAlgo::CoDesignHeuristic
                        && h.class == r.class
                        && h.locked_fus == r.locked_fus
                        && h.locked_inputs == r.locked_inputs
                })
                .expect("heuristic record exists");
            assert!(
                r.mean_errors >= heur.mean_errors,
                "optimal {} < heuristic {}",
                r.mean_errors,
                heur.mean_errors
            );
        }
    }

    /// The legacy obf-aware cell, reimplemented verbatim: one cold binding
    /// solve and three full Eqn. 2 walks per assignment. The sweep-backed
    /// cell must reproduce its record *bitwise* (same f64 accumulation).
    /// Also returns each assignment's area-/power-aware baseline errors,
    /// the legacy inputs of the co-design records' ratios.
    fn legacy_obf_aware_record(
        p: &PreparedKernel,
        params: &ExperimentParams,
        ctx: &ClassContext,
        locked_fus: usize,
        locked_inputs: usize,
    ) -> (ErrorRecord, Vec<u64>, Vec<u64>) {
        use lockbind_core::{bind_obfuscation_aware, expected_application_errors, LockingSpec};
        let fus: Vec<FuId> = (0..locked_fus).map(|i| FuId::new(ctx.class, i)).collect();
        let (dfg, schedule, alloc, profile) = (&p.dfg, &p.schedule, &p.alloc, &p.profile);
        let candidates = &ctx.candidates;
        let problem = CoDesignProblem::new(
            dfg,
            schedule,
            alloc,
            profile,
            &fus,
            locked_inputs,
            candidates,
        )
        .expect("builds");
        let combos = problem.combinations();
        let assignments = enumerate_assignments(params, &problem, locked_inputs);
        let (mut sum_area, mut sum_power, mut sum_err) = (0.0, 0.0, 0.0);
        let (mut base_area, mut base_power) = (Vec::new(), Vec::new());
        for assign in assignments.chunks_exact(fus.len()) {
            let entries: Vec<(FuId, Vec<Minterm>)> = fus
                .iter()
                .zip(assign)
                .map(|(&fu, &ci)| (fu, combos[ci].iter().map(|&i| ctx.candidates[i]).collect()))
                .collect();
            let spec = LockingSpec::new(&p.alloc, entries).expect("valid");
            let obf = bind_obfuscation_aware(&p.dfg, &p.schedule, &p.alloc, &p.profile, &spec)
                .expect("feasible");
            let e_obf = expected_application_errors(&obf, &p.profile, &spec);
            let e_area = expected_application_errors(&ctx.area, &p.profile, &spec);
            let e_power = expected_application_errors(&ctx.power, &p.profile, &spec);
            sum_area += ratio(e_obf, e_area);
            sum_power += ratio(e_obf, e_power);
            sum_err += e_obf as f64;
            base_area.push(e_area);
            base_power.push(e_power);
        }
        let n = assignments.len() / fus.len();
        let record = ErrorRecord {
            kernel: p.name.clone(),
            class: ctx.class,
            locked_fus,
            locked_inputs,
            algo: SecurityAlgo::ObfAware,
            vs_area: sum_area / n as f64,
            vs_power: sum_power / n as f64,
            mean_errors: sum_err / n as f64,
            samples: n,
        };
        (record, base_area, base_power)
    }

    /// The legacy co-design ratio: the mean over the assignments' baseline
    /// errors, summed in assignment order.
    fn legacy_mean_ratio(errors: u64, bases: &[u64]) -> f64 {
        bases.iter().map(|&b| ratio(errors, b)).sum::<f64>() / bases.len() as f64
    }

    #[test]
    fn sweep_cell_is_bitwise_identical_to_legacy_cell() {
        // Five candidates so three inputs per FU still leave a choice, and
        // a sample cap that both enumerates (small configurations) and
        // subsamples (`C(5, 2)^3 = 1000`).
        let params = ExperimentParams {
            num_candidates: 5,
            max_locked_fus: 3,
            max_locked_inputs: 3,
            max_assignments: 60,
            optimal_budget: 200,
            seed: 7,
        };
        for kernel in [Kernel::Fir, Kernel::Motion2] {
            let p = PreparedKernel::new(kernel, 80, 5);
            for class in [FuClass::Adder, FuClass::Multiplier] {
                let Some(ctx) =
                    ClassContext::build(&p, class, params.num_candidates).expect("builds")
                else {
                    continue;
                };
                for locked_fus in 1..=3 {
                    for locked_inputs in 1..=3 {
                        let fast = run_error_cell_cancellable(
                            &p,
                            &ctx,
                            &params,
                            locked_fus,
                            locked_inputs,
                            &CancelToken::new(),
                        )
                        .expect("runs");
                        let Some(obf) = fast.iter().find(|r| r.algo == SecurityAlgo::ObfAware)
                        else {
                            continue; // infeasible configuration for this class
                        };
                        let (slow, base_area, base_power) =
                            legacy_obf_aware_record(&p, &params, &ctx, locked_fus, locked_inputs);
                        // Bitwise, not approximate: headline artifacts must
                        // stay byte-identical across the fast path.
                        assert_eq!(obf.vs_area.to_bits(), slow.vs_area.to_bits());
                        assert_eq!(obf.vs_power.to_bits(), slow.vs_power.to_bits());
                        assert_eq!(obf.mean_errors.to_bits(), slow.mean_errors.to_bits());
                        assert_eq!(obf.samples, slow.samples);
                        let codesign: Vec<&ErrorRecord> = fast
                            .iter()
                            .filter(|r| r.algo != SecurityAlgo::ObfAware)
                            .collect();
                        assert!(!codesign.is_empty(), "the heuristic always runs");
                        for r in codesign {
                            let errors = r.mean_errors as u64;
                            assert_eq!(
                                r.vs_area.to_bits(),
                                legacy_mean_ratio(errors, &base_area).to_bits(),
                                "{:?} vs_area",
                                r.algo
                            );
                            assert_eq!(
                                r.vs_power.to_bits(),
                                legacy_mean_ratio(errors, &base_power).to_bits(),
                                "{:?} vs_power",
                                r.algo
                            );
                            assert_eq!(r.samples, slow.samples);
                        }
                    }
                }
            }
        }
    }

    /// The streaming cell against [`materialised_cell`] on every
    /// configuration of the smoke grid (`headline 60 5`: every kernel and
    /// class, |L| and |M| in 1..=3), both the exhaustive walk and the
    /// seeded subsample, bit for bit.
    #[test]
    fn streaming_cell_equals_the_materialised_cell_on_the_smoke_grid() {
        let params = ExperimentParams::default();
        let (mut exhaustive, mut sampled) = (0, 0);
        for kernel in Kernel::ALL {
            let p = PreparedKernel::new(kernel, 60, 5);
            for class in p.classes() {
                let Some(ctx) =
                    ClassContext::build(&p, class, params.num_candidates).expect("builds")
                else {
                    continue;
                };
                for locked_fus in 1..=3 {
                    for locked_inputs in 1..=3 {
                        let fast = run_error_cell_cancellable(
                            &p,
                            &ctx,
                            &params,
                            locked_fus,
                            locked_inputs,
                            &CancelToken::new(),
                        )
                        .expect("runs");
                        let slow = materialised_cell(&p, &params, &ctx, locked_fus, locked_inputs);
                        assert_eq!(fast.len(), slow.len(), "{kernel:?} {class:?}");
                        for (f, s) in fast.iter().zip(&slow) {
                            let at = (kernel, class, locked_fus, locked_inputs, f.algo);
                            assert_eq!(f.algo, s.algo, "{at:?}");
                            assert_eq!(f.vs_area.to_bits(), s.vs_area.to_bits(), "{at:?}");
                            assert_eq!(f.vs_power.to_bits(), s.vs_power.to_bits(), "{at:?}");
                            assert_eq!(f.mean_errors.to_bits(), s.mean_errors.to_bits(), "{at:?}");
                            assert_eq!(f.samples, s.samples, "{at:?}");
                        }
                        if fast[0].samples < params.max_assignments {
                            exhaustive += 1;
                        } else {
                            sampled += 1;
                        }
                    }
                }
            }
        }
        assert!(
            exhaustive > 0 && sampled > 0,
            "{exhaustive} exhaustive, {sampled} sampled"
        );
    }

    #[test]
    fn odometer_equals_the_mixed_radix_digits() {
        for digits in 1..=3usize {
            for radix in 1..=12usize {
                let total = radix.pow(digits as u32);
                let want: Vec<usize> = (0..total)
                    .flat_map(|index| (0..digits as u32).map(move |k| index / radix.pow(k) % radix))
                    .collect();
                assert_eq!(
                    odometer(digits, radix, total),
                    want,
                    "|L| = {digits}, r = {radix}"
                );
            }
        }
    }

    /// The subsampled branch's splitmix64 stream is pinned: 3 locked
    /// adders of fir with 2 of 4 candidates each have `6^3 = 216`
    /// configurations, past the cap of 60.
    #[test]
    fn sampled_assignments_are_pinned_for_a_fixed_seed() {
        let p = PreparedKernel::new(Kernel::Fir, 80, 5);
        let ctx = ClassContext::build(&p, FuClass::Adder, 4)
            .expect("builds")
            .expect("fir has adders");
        let fus: Vec<FuId> = (0..3).map(|i| FuId::new(FuClass::Adder, i)).collect();
        let problem = p
            .codesign_problem(&fus, 2, &ctx.candidates)
            .expect("builds");
        assert_eq!(problem.configurations(), 216);
        let sampled = enumerate_assignments(&small_params(), &problem, 2);
        assert_eq!(sampled.len(), 60 * 3);
        assert_eq!(sampled[..12], [0, 0, 3, 0, 5, 4, 3, 0, 2, 0, 1, 4]);
        let weighted: usize = sampled.iter().enumerate().map(|(i, &d)| (i + 1) * d).sum();
        assert_eq!(weighted, 43_273);
    }

    #[test]
    fn pre_cancelled_token_interrupts_a_cell() {
        let p = PreparedKernel::new(Kernel::Fir, 80, 5);
        let ctx = ClassContext::build(&p, FuClass::Adder, 4)
            .expect("builds")
            .expect("fir has adders");
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = run_error_cell_cancellable(&p, &ctx, &small_params(), 1, 1, &cancel).unwrap_err();
        assert!(
            matches!(err, CoreError::Interrupted { .. }),
            "expected Interrupted, got {err:?}"
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 16.0]) - 8.0).abs() < 1e-9);
        assert!(geomean(std::iter::empty()).is_nan());
    }
}
