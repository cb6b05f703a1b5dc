//! Problem 2: binding–obfuscation co-design (Sec. V of the paper).
//!
//! The locked-input identities are now free variables: each locked FU must
//! secure `inputs_per_fu` minterms chosen from a designer-supplied candidate
//! list `C`. A [`CoDesignProblem`] fixes these inputs, checks them once, and
//! builds what every search over them shares: the `C(|C|, m)` combinations
//! and one [`ErrorSweep`], derived by summation from one [`ClassTable`] per
//! locked class. [`CoDesignProblem::new`] builds its own tables;
//! [`CoDesignProblem::with_table`] borrows one that many problems of a
//! class share, and reads the candidates from it.
//! [`CoDesignProblem::optimal`] finds the exact optimum over every
//! `C(|C|, m)^{|L|}` assignment; [`CoDesignProblem::heuristic`] is the
//! paper's P-time sequential heuristic: fix one FU's locked inputs at a
//! time, assuming the not-yet-fixed FUs are unlocked.
//!
//! Both searches score configurations with [`ErrorSweep::score`] rather
//! than a cold binding solve per configuration. Each keeps the
//! configuration as one column per locked slot, so fixing, clearing or
//! relaxing a slot is one write. The optimal search is a depth-first
//! branch-and-bound over the locked slots:
//!
//! * **Multisets.** Locked FUs of one class are interchangeable in every
//!   per-cycle matching, so the score depends only on the multiset of
//!   combinations per class. A slot takes no smaller combination than the
//!   previous slot of its class.
//! * **Bound.** A slot not yet fixed reads the sweep's envelope column
//!   (each op's maximum over every combination), so a partial assignment
//!   scores an upper bound on all its completions. The last slot is
//!   bounded without a solve per child: its unlocked score plus the
//!   combination's gain ([`ErrorSweep::combination_gains`]). Only the
//!   unlocked score depends on the parent, so the last slot's children are
//!   sorted by gain once per search.
//! * **Order and pruning.** Children are visited in descending bound,
//!   ties by combination index, and a child is pruned only when its bound
//!   is *below* the incumbent, so every maximum is scored.
//!
//! Every score (bound or leaf) counts once in `codesign.combos_evaluated`
//! and polls the cancel token once. The selected configuration is
//! *identical* to the legacy first-maximum scan over the
//! `C(|C|, m)^{|L|}` product: a maximum multiset stands for its
//! lowest-rank ordering in the legacy mixed-radix order (each class's
//! largest combinations on its lowest slots), and ties keep the lower
//! rank.
//!
//! Either search returns a [`CoDesignChoice`]: the winner's columns and the
//! score the sweep gave it, with no binding solve. A caller that needs the
//! binding and the spec calls [`CoDesignProblem::realize`], one cold
//! [`bind_obfuscation_aware`] solve that reproduces the byte-exact legacy
//! binding and spec.

use std::cmp::Reverse;

use lockbind_hls::{Allocation, Binding, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

use crate::sweep::walk_cycles;
use crate::{
    bind_obfuscation_aware, combinations, expected_application_errors, ClassTable, CoreError,
    ErrorSweep, LockingSpec,
};

/// Guard on the optimal search's configuration space,
/// [`CoDesignProblem::configurations`]. Serve's `optimal_budget` takes this
/// as its upper bound.
pub const OPTIMAL_SEARCH_LIMIT: u64 = 10_000_000;

/// Result of a co-design run: the binding, the chosen locking spec, and its
/// expected application errors (Eqn. 2).
#[derive(Debug, Clone)]
pub struct CoDesignOutcome {
    /// The security-optimized binding.
    pub binding: Binding,
    /// The chosen locked-input assignment.
    pub spec: LockingSpec,
    /// Expected application errors of (binding, spec) over the workload.
    pub errors: u64,
}

/// A search's winner: one combination per locked slot and the Eqn. 2
/// errors the sweep scored for it. Only the searches make one;
/// [`CoDesignProblem::realize`] turns it into a binding and a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoDesignChoice {
    columns: Vec<usize>,
    errors: u64,
}

impl CoDesignChoice {
    /// Per locked slot, the index of its combination in
    /// [`CoDesignProblem::combinations`].
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Expected application errors (Eqn. 2) of the choice, as the sweep
    /// scored it: what [`CoDesignProblem::realize`] computes cold.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

/// One co-design problem: a scheduled, profiled kernel, its locked FUs, the
/// candidate list and the inputs per FU, with the `C(|C|, m)` combinations
/// and the one [`ErrorSweep`], derived from class tables, that every search
/// on it shares. A configuration is one column per locked slot; column `c`
/// locks the slot's FU with the candidates `combinations()[c]`.
pub struct CoDesignProblem<'a> {
    dfg: &'a Dfg,
    schedule: &'a Schedule,
    alloc: &'a Allocation,
    profile: &'a OccurrenceProfile,
    locked_fus: &'a [FuId],
    candidates: &'a [Minterm],
    combos: Vec<Vec<usize>>,
    sweep: ErrorSweep,
}

impl<'a> CoDesignProblem<'a> {
    /// Checks the inputs, then builds one [`ClassTable`] over `candidates`
    /// per class with a locked FU, and derives the combinations and the
    /// sweep from them. The tables are dropped once the sweep is derived;
    /// a caller with many problems of one class builds the table once and
    /// calls [`with_table`](Self::with_table).
    ///
    /// # Errors
    /// The first that applies: [`CoreError::UnknownFu`] or
    /// [`CoreError::DuplicateFu`] for `locked_fus`,
    /// [`CoreError::NotEnoughCandidates`] unless
    /// `1 <= inputs_per_fu <= candidates.len()`,
    /// [`CoreError::MintermWidthMismatch`] for a candidate wider than the FU
    /// inputs, and [`CoreError::Matching`] when a cycle has more ops of a
    /// class than FUs (as [`bind_obfuscation_aware`] reports).
    pub fn new(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        alloc: &'a Allocation,
        profile: &'a OccurrenceProfile,
        locked_fus: &'a [FuId],
        inputs_per_fu: usize,
        candidates: &'a [Minterm],
    ) -> Result<Self, CoreError> {
        check_inputs(dfg, alloc, locked_fus, inputs_per_fu, candidates)?;
        let mut tables = Vec::new();
        for class in FuClass::ALL {
            if locked_fus.iter().any(|fu| fu.class == class) {
                tables.push(ClassTable::new(
                    dfg, schedule, alloc, profile, class, candidates,
                )?);
            }
        }
        if tables.is_empty() {
            // No table runs the feasibility checks; run them alone.
            walk_cycles(dfg, schedule, alloc, |_, _| {})?;
        }
        let combos = combinations(candidates.len(), inputs_per_fu);
        let tables: Vec<&ClassTable> = tables.iter().collect();
        let sweep = ErrorSweep::derive(&tables, locked_fus, &combos);
        Ok(CoDesignProblem {
            dfg,
            schedule,
            alloc,
            profile,
            locked_fus,
            candidates,
            combos,
            sweep,
        })
    }

    /// The problem of locking `locked_fus`, all of `table`'s class, with
    /// `inputs_per_fu` of the table's candidates each: the sweep is derived
    /// from `table` by summation, with no profile lookup. The candidates
    /// are the table's, so the table is never read under another list.
    /// `table` must come from the same `dfg`, `schedule`, `alloc` and
    /// `profile`, which already passed its feasibility checks.
    ///
    /// # Errors
    /// As [`new`](Self::new), except [`CoreError::Matching`], which only
    /// the table's build can return.
    ///
    /// # Panics
    /// Panics when a locked FU is not of the table's class.
    pub fn with_table(
        dfg: &'a Dfg,
        schedule: &'a Schedule,
        alloc: &'a Allocation,
        profile: &'a OccurrenceProfile,
        table: &'a ClassTable,
        locked_fus: &'a [FuId],
        inputs_per_fu: usize,
    ) -> Result<Self, CoreError> {
        let candidates = table.candidates();
        check_inputs(dfg, alloc, locked_fus, inputs_per_fu, candidates)?;
        assert!(
            locked_fus.iter().all(|fu| fu.class == table.class()),
            "a {:?} table locks only {:?} FUs",
            table.class(),
            table.class()
        );
        let combos = combinations(candidates.len(), inputs_per_fu);
        let sweep = ErrorSweep::derive(&[table], locked_fus, &combos);
        Ok(CoDesignProblem {
            dfg,
            schedule,
            alloc,
            profile,
            locked_fus,
            candidates,
            combos,
            sweep,
        })
    }

    /// The locked FUs, one slot each, in slot order.
    pub fn locked_fus(&self) -> &'a [FuId] {
        self.locked_fus
    }

    /// The candidate-index combinations, as produced by [`combinations`].
    pub fn combinations(&self) -> &[Vec<usize>] {
        &self.combos
    }

    /// The problem's sweep: the exact Eqn. 2 score of any configuration.
    pub fn sweep(&self) -> &ErrorSweep {
        &self.sweep
    }

    /// The number of assignments of a combination to every locked FU,
    /// `C(|C|, m)^{|L|}` orderings, saturating at `u128::MAX`.
    pub fn configurations(&self) -> u128 {
        (self.combos.len() as u128)
            .checked_pow(self.locked_fus.len() as u32)
            .unwrap_or(u128::MAX)
    }

    /// Exact optimal co-design: the combination assignment of candidate
    /// locked inputs to locked FUs whose obfuscation-aware binding
    /// maximizes Eqn. 2 (Sec. V-B), found by branch-and-bound over
    /// combination multisets (see the module docs). Ties go to the
    /// assignment the exhaustive mixed-radix scan meets first.
    ///
    /// `cancel` is polled once per scored bound or configuration; batch
    /// callers pass `&CancelToken::new()`, which never fires.
    ///
    /// # Errors
    ///
    /// [`CoreError::SearchSpaceTooLarge`] when
    /// [`configurations`](Self::configurations) exceeds
    /// [`OPTIMAL_SEARCH_LIMIT`] (use [`heuristic`](Self::heuristic)
    /// instead) and [`CoreError::Interrupted`] when the token fires
    /// mid-search.
    pub fn optimal(&self, cancel: &CancelToken) -> Result<CoDesignChoice, CoreError> {
        let _span = obs::span!(
            "codesign.optimal",
            locked_fus = self.locked_fus.len(),
            candidates = self.candidates.len()
        );
        let configurations = self.configurations();
        let limit = u128::from(OPTIMAL_SEARCH_LIMIT);
        if configurations > limit {
            return Err(CoreError::SearchSpaceTooLarge {
                configurations,
                limit,
            });
        }

        let fus = self.locked_fus;
        let l = fus.len();
        // A slot takes no smaller combination than the previous slot of its
        // class, so the search visits multisets, not orderings.
        let mut prev = Vec::with_capacity(l);
        let mut mirror = Vec::with_capacity(l);
        for (k, fu) in fus.iter().enumerate() {
            let class: Vec<usize> = (0..l).filter(|&j| fus[j].class == fu.class).collect();
            let at = class
                .iter()
                .position(|&j| j == k)
                .expect("k is of its class");
            prev.push(at.checked_sub(1).map(|i| class[i]));
            mirror.push(class[class.len() - 1 - at]);
        }
        let gains = l
            .checked_sub(1)
            .map_or_else(Vec::new, |last| self.sweep.combination_gains(last));
        // A stable sort keeps equal gains in combination order.
        let mut by_gain: Vec<usize> = (0..gains.len()).collect();
        by_gain.sort_by_key(|&c| Reverse(gains[c]));
        let mut search = Search {
            cols: vec![self.sweep.envelope_column(); l],
            sweep: &self.sweep,
            cancel,
            radix: self.combos.len(),
            prev,
            mirror,
            gains,
            by_gain,
            best: None,
            evaluated: 0,
        };
        let searched = search.visit(0);
        obs::counter!("codesign.combos_evaluated").add(search.evaluated);
        searched?;
        let (errors, _, columns) = search.best.expect("at least one leaf scored");
        Ok(CoDesignChoice { columns, errors })
    }

    /// The paper's P-time co-design heuristic (Sec. V-A): locked FUs are
    /// processed one at a time. For the FU under consideration every
    /// combination is scored on the sweep, with earlier FUs' choices fixed
    /// and later FUs unlocked; the first best combination is frozen, and
    /// the process repeats. The choice's errors are the last slot's best
    /// score, the sweep's score of the complete spec.
    ///
    /// Costs `|L| · C(|C|, m)` sweep scores: polynomial time for bounded
    /// `m`. `cancel` is polled once per score.
    ///
    /// # Errors
    ///
    /// [`CoreError::Interrupted`] when the token fires mid-search.
    pub fn heuristic(&self, cancel: &CancelToken) -> Result<CoDesignChoice, CoreError> {
        let _span = obs::span!(
            "codesign.heuristic",
            locked_fus = self.locked_fus.len(),
            candidates = self.candidates.len()
        );
        // Slots before `k` hold their frozen winners, slot `k` varies, slots
        // after `k` stay unlocked (the all-zero column — exactly the legacy
        // "not-yet-fixed FUs absent from the spec").
        let mut cols = vec![self.sweep.unlocked_column(); self.locked_fus.len()];
        let mut evaluated = 0u64;
        let mut last_best = None;
        for k in 0..cols.len() {
            let mut best: Option<(u64, usize)> = None;
            for ci in 0..self.combos.len() {
                if cancel.is_cancelled() {
                    obs::counter!("codesign.combos_evaluated").add(evaluated);
                    return Err(CoreError::Interrupted {
                        stage: "codesign.heuristic",
                    });
                }
                cols[k] = ci;
                let errors = self.sweep.score(&cols);
                evaluated += 1;
                // Index order + strictly-greater replacement keeps the first
                // maximum.
                if best.is_none_or(|(e, _)| errors > e) {
                    best = Some((errors, ci));
                }
            }
            let (errors, ci) = best.expect("combos non-empty");
            cols[k] = ci;
            last_best = Some(errors);
        }
        obs::counter!("codesign.combos_evaluated").add(evaluated);
        // With no locked FU the spec is empty; score it.
        let errors = last_best.unwrap_or_else(|| self.sweep.score(&cols));
        Ok(CoDesignChoice {
            columns: cols,
            errors,
        })
    }

    /// Solves a search's choice cold: its [`LockingSpec`], the
    /// [`bind_obfuscation_aware`] binding and Eqn. 2. This reproduces the
    /// legacy binding byte-exactly; debug builds also check that Eqn. 2
    /// equals the choice's sweep score. `choice` must come from a search on
    /// this problem.
    ///
    /// # Errors
    /// Anything [`LockingSpec::new`] and [`bind_obfuscation_aware`] can
    /// return.
    ///
    /// # Panics
    /// Panics on a column past [`combinations`](Self::combinations).
    pub fn realize(&self, choice: &CoDesignChoice) -> Result<CoDesignOutcome, CoreError> {
        let _span = obs::span!("codesign.rebind");
        let entries: Vec<(FuId, Vec<Minterm>)> = self
            .locked_fus
            .iter()
            .zip(&choice.columns)
            .map(|(&fu, &ci)| {
                let minterms = self.combos[ci].iter().map(|&i| self.candidates[i]);
                (fu, minterms.collect())
            })
            .collect();
        let spec = LockingSpec::new(self.alloc, entries)?;
        let binding =
            bind_obfuscation_aware(self.dfg, self.schedule, self.alloc, self.profile, &spec)?;
        let errors = expected_application_errors(&binding, self.profile, &spec);
        debug_assert_eq!(
            errors, choice.errors,
            "sweep score must equal realized Eqn. 2 errors"
        );
        Ok(CoDesignOutcome {
            binding,
            spec,
            errors,
        })
    }
}

/// The input checks every [`CoDesignProblem`] constructor runs, in the
/// order its errors are documented.
fn check_inputs(
    dfg: &Dfg,
    alloc: &Allocation,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
) -> Result<(), CoreError> {
    for (i, fu) in locked_fus.iter().enumerate() {
        if fu.index >= alloc.count(fu.class) {
            return Err(CoreError::UnknownFu { fu: fu.to_string() });
        }
        if locked_fus[..i].contains(fu) {
            return Err(CoreError::DuplicateFu { fu: fu.to_string() });
        }
    }
    if inputs_per_fu == 0 || inputs_per_fu > candidates.len() {
        return Err(CoreError::NotEnoughCandidates {
            candidates: candidates.len(),
            requested: inputs_per_fu,
        });
    }
    // A minterm packs two `width`-bit operands into `2*width` bits. A wider
    // candidate can never occur on the target FU's inputs, so accepting it
    // would silently lock nothing (zero weight everywhere) — reject up
    // front instead of producing a vacuous lock.
    let width = dfg.width();
    for c in candidates {
        if c.raw() >> (2 * width) != 0 {
            return Err(CoreError::MintermWidthMismatch {
                minterm: c.raw(),
                width,
            });
        }
    }
    Ok(())
}

/// [`CoDesignProblem::heuristic`] and [`CoDesignProblem::realize`] in
/// their old free-function form, kept only because the frozen `perfbench`
/// harness calls it. Delete at the next benchmark change.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn codesign_heuristic_cancellable(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
    cancel: &CancelToken,
) -> Result<CoDesignOutcome, CoreError> {
    let problem = CoDesignProblem::new(
        dfg,
        schedule,
        alloc,
        profile,
        locked_fus,
        inputs_per_fu,
        candidates,
    )?;
    problem.realize(&problem.heuristic(cancel)?)
}

/// The optimal search's state: a depth-first branch-and-bound over the
/// locked slots in order, each slot taking a combination no smaller than
/// the previous slot of its class.
struct Search<'a> {
    sweep: &'a ErrorSweep,
    /// Per slot, the column it reads: slots above the current depth hold
    /// their combination, later ones the envelope.
    cols: Vec<usize>,
    cancel: &'a CancelToken,
    /// Number of combinations: the legacy scan's digit radix.
    radix: usize,
    /// Per slot, the previous slot of the same class.
    prev: Vec<Option<usize>>,
    /// Per slot, the slot at the mirrored position among its class's
    /// slots: the path is nondecreasing within a class, so slot `k` of
    /// the lowest-rank ordering takes `path[mirror[k]]`.
    mirror: Vec<usize>,
    /// Per combination, the last slot's leaf gain
    /// ([`ErrorSweep::combination_gains`]).
    gains: Vec<u64>,
    /// The combinations by descending gain, ties by index: the order of
    /// the last slot's children under every parent.
    by_gain: Vec<usize>,
    /// The incumbent: (errors, legacy rank, digits).
    best: Option<(u64, u64, Vec<usize>)>,
    evaluated: u64,
}

impl Search<'_> {
    /// Scores the current columns: one evaluation, one poll.
    fn score(&mut self) -> Result<u64, CoreError> {
        if self.cancel.is_cancelled() {
            return Err(CoreError::Interrupted {
                stage: "codesign.optimal",
            });
        }
        self.evaluated += 1;
        Ok(self.sweep.score(&self.cols))
    }

    /// Whether `score` is below the incumbent's errors.
    fn below_incumbent(&self, score: u64) -> bool {
        self.best
            .as_ref()
            .is_some_and(|&(errors, ..)| score < errors)
    }

    /// Scores the leaf below depth `k`, or branches on slot `k` with every
    /// later slot reading the envelope. The children are visited in
    /// descending bound (ties by combination); a child whose bound is
    /// below the incumbent is pruned with all that follow it. Ties are
    /// never pruned, so every maximum is scored.
    fn visit(&mut self, k: usize) -> Result<(), CoreError> {
        if k == self.cols.len() {
            let errors = self.score()?;
            self.offer(errors);
            return Ok(());
        }
        let lo = self.prev[k].map_or(0, |j| self.cols[j]);
        if k + 1 == self.cols.len() {
            // Loading one column raises each subproblem by at most that
            // column's largest weight, so one score bounds every leaf, and
            // the leaves' bounds run in `by_gain` order.
            self.cols[k] = self.sweep.unlocked_column();
            let unlocked = self.score()?;
            for i in 0..self.by_gain.len() {
                let c = self.by_gain[i];
                if c < lo {
                    continue;
                }
                if self.below_incumbent(unlocked + self.gains[c]) {
                    break;
                }
                self.cols[k] = c;
                self.visit(k + 1)?;
            }
        } else {
            let mut children = Vec::with_capacity(self.radix - lo);
            for c in lo..self.radix {
                self.cols[k] = c;
                children.push((self.score()?, c));
            }
            children.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (bound, c) in children {
                if self.below_incumbent(bound) {
                    break;
                }
                self.cols[k] = c;
                self.visit(k + 1)?;
            }
        }
        self.cols[k] = self.sweep.envelope_column();
        Ok(())
    }

    /// Offers the leaf's multiset scored `errors`. It stands for every
    /// ordering of its combinations among same-class slots; the legacy
    /// scan met the lowest-rank one first, the one that puts each class's
    /// largest combinations on its lowest slots (digit 0 is the least
    /// significant). Ties keep the lower rank.
    fn offer(&mut self, errors: u64) {
        if self.below_incumbent(errors) {
            return;
        }
        let digits = self.mirror.iter().map(|&j| self.cols[j]);
        let rank = digits
            .clone()
            .rev()
            .fold(0, |rank, d| rank * self.radix as u64 + d as u64);
        if self
            .best
            .as_ref()
            .is_none_or(|&(be, br, _)| errors > be || rank < br)
        {
            self.best = Some((errors, rank, digits.collect()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::schedule_list;
    use lockbind_mediabench::Kernel;

    fn setup(kernel: Kernel) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        let b = kernel.benchmark(120, 31);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&adder_ops, 6);
        (b.dfg, sched, alloc, profile, candidates)
    }

    #[test]
    fn pre_cancelled_token_interrupts_both_searches() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 0)];
        let problem =
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            problem.optimal(&token).unwrap_err(),
            CoreError::Interrupted {
                stage: "codesign.optimal"
            }
        );
        assert_eq!(
            problem.heuristic(&token).unwrap_err(),
            CoreError::Interrupted {
                stage: "codesign.heuristic"
            }
        );
    }

    #[test]
    fn heuristic_close_to_optimal_single_fu() {
        let never = CancelToken::new();
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 0)];
        let problem =
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates).unwrap();
        let opt = problem.optimal(&never).expect("searchable");
        let heu = problem.heuristic(&never).expect("feasible");
        // Single FU: the heuristic IS the optimal search.
        assert_eq!(opt.errors(), heu.errors());
        assert!(opt.errors() > 0);
    }

    #[test]
    fn heuristic_within_tolerance_of_optimal_two_fus() {
        let never = CancelToken::new();
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Jdmerge1);
        let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 1)];
        let problem =
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates).unwrap();
        let opt = problem.optimal(&never).expect("searchable");
        let heu = problem.heuristic(&never).expect("feasible");
        assert!(heu.errors() <= opt.errors());
        // Paper reports <0.5% degradation; allow 5% slack on our stand-ins.
        assert!(
            heu.errors() as f64 >= 0.95 * opt.errors() as f64,
            "heuristic {} vs optimal {}",
            heu.errors(),
            opt.errors()
        );
    }

    #[test]
    fn codesign_dominates_fixed_random_choice() {
        let never = CancelToken::new();
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Motion2);
        let fus = [FuId::new(FuClass::Adder, 1)];
        let heu = CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 1, &candidates)
            .and_then(|problem| problem.heuristic(&never))
            .expect("feasible");
        // Any fixed candidate choice bound with obf-aware binding is <= the
        // co-design result.
        for &c in &candidates {
            let spec = LockingSpec::new(&alloc, vec![(fus[0], vec![c])]).expect("valid");
            let bind =
                bind_obfuscation_aware(&dfg, &sched, &alloc, &profile, &spec).expect("feasible");
            let e = expected_application_errors(&bind, &profile, &spec);
            assert!(e <= heu.errors());
        }
    }

    /// The legacy exhaustive scan, reproduced verbatim: mixed-radix counter
    /// (digit 0 fastest), one cold binding solve per configuration, first
    /// maximum kept. The branch-and-bound must select the identical
    /// configuration.
    fn optimal_reference(
        dfg: &Dfg,
        sched: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        inputs_per_fu: usize,
        candidates: &[Minterm],
    ) -> CoDesignOutcome {
        let combos = combinations(candidates.len(), inputs_per_fu);
        let l = locked_fus.len();
        let mut counter = vec![0usize; l];
        let mut best: Option<CoDesignOutcome> = None;
        loop {
            let entries: Vec<(FuId, Vec<Minterm>)> = locked_fus
                .iter()
                .zip(&counter)
                .map(|(&fu, &ci)| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
                .collect();
            let spec = LockingSpec::new(alloc, entries).expect("valid");
            let binding =
                bind_obfuscation_aware(dfg, sched, alloc, profile, &spec).expect("feasible");
            let errors = expected_application_errors(&binding, profile, &spec);
            if best.as_ref().is_none_or(|b| errors > b.errors) {
                best = Some(CoDesignOutcome {
                    binding,
                    spec,
                    errors,
                });
            }
            let mut i = 0;
            loop {
                if i == l {
                    return best.expect("at least one combination evaluated");
                }
                counter[i] += 1;
                if counter[i] < combos.len() {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn branch_and_bound_matches_legacy_scan_exactly() {
        let never = CancelToken::new();
        for kernel in [Kernel::Fir, Kernel::Jdmerge1, Kernel::Motion2] {
            let (dfg, sched, alloc, profile, candidates) = setup(kernel);
            let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 2)];
            let fast = CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
                .and_then(|problem| problem.realize(&problem.optimal(&never)?))
                .expect("searchable");
            let slow = optimal_reference(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates);
            assert_eq!(fast.errors, slow.errors, "{kernel:?}");
            // Same winner, not merely the same score: spec and binding must
            // be identical so headline artifacts stay byte-stable.
            assert_eq!(fast.spec, slow.spec, "{kernel:?}");
            assert_eq!(fast.binding, slow.binding, "{kernel:?}");
        }
    }

    #[test]
    fn rejects_overwide_minterm_candidates() {
        // Regression: the heuristic used to accept candidates wider than the
        // kernel's 2*width-bit FU input space; they can never occur on any
        // FU's inputs, so every weight is zero and the "lock" is vacuous.
        // The problem rejects them before either search can run.
        let (dfg, sched, alloc, profile, mut candidates) = setup(Kernel::Fir);
        assert_eq!(dfg.width(), 8);
        candidates.push(Minterm::pack(0x2a0, 0x11, 12)); // raw needs 22 bits > 16
        let fus = [FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 1, &candidates),
            Err(CoreError::MintermWidthMismatch { width: 8, .. })
        ));
    }

    #[test]
    fn search_space_guard_trips() {
        let never = CancelToken::new();
        let (dfg, sched, alloc, profile, _) = setup(Kernel::Dct);
        // 20 candidates choose 3, ^3 FUs = 1140^3 > 1e9 -> guarded.
        let many: Vec<Minterm> = (0..20).map(|i| Minterm::pack(i, i, 8)).collect();
        let fus = [
            FuId::new(FuClass::Adder, 0),
            FuId::new(FuClass::Adder, 1),
            FuId::new(FuClass::Adder, 2),
        ];
        let problem = CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 3, &many).unwrap();
        assert_eq!(problem.configurations(), 1140u128.pow(3));
        let err = problem.optimal(&never).unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge { .. }));
    }

    /// A problem on a borrowed class table equals the one `new` builds on
    /// the table's candidates: the same combinations, the same searches'
    /// choices, and the same realized spec and binding, which read the
    /// candidates from the table.
    #[test]
    fn a_borrowed_table_gives_the_problem_new_builds() {
        let never = CancelToken::new();
        for kernel in [Kernel::Fir, Kernel::Motion2] {
            let (dfg, sched, alloc, profile, candidates) = setup(kernel);
            let table =
                ClassTable::new(&dfg, &sched, &alloc, &profile, FuClass::Adder, &candidates)
                    .expect("feasible");
            assert_eq!(table.candidates(), candidates);
            let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 2)];
            let borrowed =
                CoDesignProblem::with_table(&dfg, &sched, &alloc, &profile, &table, &fus, 2)
                    .expect("valid");
            let owned = CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
                .expect("valid");
            assert_eq!(borrowed.combinations(), owned.combinations());
            for (a, b) in [
                (borrowed.heuristic(&never), owned.heuristic(&never)),
                (borrowed.optimal(&never), owned.optimal(&never)),
            ] {
                let (a, b) = (a.expect("runs"), b.expect("runs"));
                assert_eq!(a, b, "{kernel:?}");
                let (a, b) = (borrowed.realize(&a).unwrap(), owned.realize(&b).unwrap());
                assert_eq!((a.spec, a.binding), (b.spec, b.binding), "{kernel:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "table locks only")]
    fn a_table_locks_only_its_own_class() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let table = ClassTable::new(&dfg, &sched, &alloc, &profile, FuClass::Adder, &candidates)
            .expect("feasible");
        let fus = [FuId::new(FuClass::Multiplier, 0)];
        let _ = CoDesignProblem::with_table(&dfg, &sched, &alloc, &profile, &table, &fus, 1);
    }

    #[test]
    fn validation_errors() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let new = |fus: &[FuId], inputs_per_fu: usize| {
            CoDesignProblem::new(
                &dfg,
                &sched,
                &alloc,
                &profile,
                fus,
                inputs_per_fu,
                &candidates,
            )
            .err()
        };
        let bad_fu = [FuId::new(FuClass::Adder, 9)];
        assert!(matches!(new(&bad_fu, 1), Some(CoreError::UnknownFu { .. })));
        let dup = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 0)];
        assert!(matches!(new(&dup, 1), Some(CoreError::DuplicateFu { .. })));
        let fus = [FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            new(&fus, 99),
            Some(CoreError::NotEnoughCandidates { .. })
        ));
        // FU errors come first, then the candidate count.
        assert!(matches!(
            new(&bad_fu, 99),
            Some(CoreError::UnknownFu { .. })
        ));
        assert!(matches!(new(&dup, 0), Some(CoreError::DuplicateFu { .. })));
    }
}
