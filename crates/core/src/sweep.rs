//! Eqn. 2 error scoring across locked-input combinations.
//!
//! Every co-design search (and the bench error-cell grids) scores thousands
//! to millions of locking configurations: the locked FUs and the candidate
//! list stay fixed while the combination of locked minterms on each FU
//! varies. The legacy path rebuilt a [`LockingSpec`], re-solved every
//! per-cycle assignment problem cold, and re-walked the binding to sum
//! errors — all to score one changed column per cycle.
//!
//! [`ErrorSweep`] is built once per
//! [`CoDesignProblem`](crate::CoDesignProblem), the only place that builds
//! one, and is read-only after that. Per *live* `(cycle, class)` subproblem it holds a column table:
//! for each combination `c` and live op `r`, the Eqn. 3 weight `w(r, c)`,
//! plus one all-zero column standing for "unlocked" and one *envelope*
//! column holding each op's maximum over every combination (the optimal
//! search's bound). The weights depend only on
//! (op, combination), so they are computed once at construction.
//! [`ErrorSweep::score`] takes a configuration as one column index per
//! locked slot and solves every subproblem over the columns its class's
//! slots name; the caller keeps the configuration, so fixing, clearing or
//! relaxing a slot is one write into its own vector.
//!
//! The scored value is *exactly* the legacy one: for any complete
//! configuration, `Σ` per-cycle max-weight totals over the Eqn. 3 matrices
//! equals `expected_application_errors(bind_obfuscation_aware(spec), ..)`
//! — each matrix entry `(i, j)` is precisely op `i`'s error contribution
//! when bound to FU `j`, so the optimal totals and the realized errors are
//! the same sum (Thm. 2 separability).
//!
//! **Locked-column reduction.** Eqn. 3 weights are non-negative, only
//! locked FUs' columns carry weight, and a cycle never has more ops than
//! its class has FUs. So any matching of locked slots to distinct ops
//! extends to a complete assignment whose remaining edges weigh 0, and a
//! cycle's optimum is the max-weight *partial* matching between the locked
//! slots and the live ops (those with a non-zero count for some
//! candidate). Ops with no candidate occurrence, and cycles of a class with
//! no locked slot, always contribute 0 and are dropped at construction.
//!
//! **Fixed 3-row columns.** Every subproblem the grid builds is small:
//! each prepared kernel allocates 3 FUs per class, so at most 3 slots are
//! locked and at most 3 ops are live. For a class of at most 3 FUs every
//! live subproblem is padded with all-zero rows to exactly 3 rows, which is
//! exact: weights are non-negative, so a zero row only lets a slot stay
//! unmatched at weight 0. The class's table is column-major, one `[u64; 3]`
//! per (column, subproblem), so [`ErrorSweep::score`] dispatches on the
//! class's slot count once and then runs one straight-line 3-row closed
//! form down the columns its slots name. One slot: the column's maximum.
//! Two slots `x`, `y`: `max_i x_i + max_{j≠i} y_j`. Three slots `x`, `y`,
//! `z`: the best of the 6 permutations. A class with more than 3 FUs, which
//! only library callers with a wider [`Allocation`] build, keeps one
//! unpadded table per subproblem: one slot takes its column's maximum, and
//! any other shape goes to the cold [`max_weight_matching`] on the selected
//! columns, padded with all-zero columns to `max(R, L)` so every row can be
//! matched. DESIGN §14.1 has the proofs and the measurements.

use lockbind_hls::{Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_matching::{max_weight_matching, MatchingError, WeightMatrix};
use lockbind_obs as obs;

use crate::CoreError;

/// One live `(cycle, class)` subproblem, as built: the class has a locked
/// slot and the cycle has at least one live op of the class.
struct Sub {
    /// Number of live ops.
    rows: usize,
    /// `cols[c * rows + r]`: Eqn. 3 weight of live row `r` under
    /// combination `c`, then an all-zero column ("unlocked"), then the
    /// envelope: each row's maximum over every combination.
    cols: Vec<u64>,
}

impl Sub {
    fn col(&self, c: usize) -> &[u64] {
        &self.cols[c * self.rows..(c + 1) * self.rows]
    }

    /// The optimum of a class with more than 3 FUs when its locked `slots`
    /// read their columns in `cols`: one slot takes its column's maximum,
    /// and any other shape is solved cold.
    fn solve(&self, cols: &[usize], slots: &[usize]) -> u64 {
        match *slots {
            [a] => max_column(self.col(cols[a])),
            _ => self.cold_total(cols, slots),
        }
    }

    /// The optimum by [`max_weight_matching`] on an `R × max(R, L)` matrix:
    /// the `L` slots' columns, then all-zero columns so that every row can
    /// be matched.
    fn cold_total(&self, cols: &[usize], slots: &[usize]) -> u64 {
        let weights = WeightMatrix::from_fn(self.rows, self.rows.max(slots.len()), |r, s| {
            let w = slots.get(s).map_or(0, |&k| self.col(cols[k])[r]);
            Some(i64::try_from(w).unwrap_or(i64::MAX))
        });
        let m = max_weight_matching(&weights).expect("R rows fit max(R, L) columns");
        u64::try_from(m.total).expect("non-negative weights")
    }
}

/// The column tables of one class's live subproblems.
enum Table {
    /// A class of at most 3 FUs: every subproblem padded with all-zero rows
    /// to 3 rows, column-major, so `cols[c * subs + s]` is column `c` of
    /// subproblem `s`.
    Narrow { subs: usize, cols: Vec<[u64; 3]> },
    /// A class of more than 3 FUs: one unpadded table per subproblem.
    Wide(Vec<Sub>),
}

impl Table {
    /// The table of a class of `fus` FUs whose subproblems each hold
    /// `columns` columns.
    fn new(fus: usize, subs: Vec<Sub>, columns: usize) -> Table {
        if fus > 3 {
            return Table::Wide(subs);
        }
        let n = subs.len();
        let mut cols = vec![[0; 3]; columns * n];
        for (s, sub) in subs.iter().enumerate() {
            for c in 0..columns {
                cols[c * n + s][..sub.rows].copy_from_slice(sub.col(c));
            }
        }
        Table::Narrow { subs: n, cols }
    }
}

/// The locked slots of one class and the class's live subproblems.
struct ClassSubs {
    /// The class's slots, in slot order.
    slots: Vec<usize>,
    table: Table,
}

impl ClassSubs {
    /// The class's share of the score: the sum of its subproblems' optima
    /// when slot `k` reads column `cols[k]`.
    fn score(&self, cols: &[usize]) -> u64 {
        match &self.table {
            Table::Narrow { subs, cols: table } => {
                let col = |k: usize| &table[cols[k] * subs..][..*subs];
                match *self.slots {
                    [] => 0,
                    [a] => col(a).iter().map(|x| max_column(x)).sum(),
                    [a, b] => col(a)
                        .iter()
                        .zip(col(b))
                        .map(|(x, y)| best_pair(x, y))
                        .sum(),
                    [a, b, c] => col(a)
                        .iter()
                        .zip(col(b))
                        .zip(col(c))
                        .map(|((x, y), z)| best_triple(x, y, z))
                        .sum(),
                    _ => unreachable!("a class of at most 3 FUs has at most 3 slots"),
                }
            }
            Table::Wide(subs) => subs.iter().map(|sub| sub.solve(cols, &self.slots)).sum(),
        }
    }

    /// Column `c`'s largest weight, summed over the class's subproblems.
    fn column_max_sum(&self, c: usize) -> u64 {
        match &self.table {
            Table::Narrow { subs, cols } => cols[c * subs..][..*subs]
                .iter()
                .map(|x| max_column(x))
                .sum(),
            Table::Wide(subs) => subs.iter().map(|sub| max_column(sub.col(c))).sum(),
        }
    }
}

/// Scorer for locked-input combination sweeps: assign each locked-FU
/// *slot* a combination out of a fixed list, then read the exact Eqn. 2
/// error score.
///
/// Each [`CoDesignProblem`](crate::CoDesignProblem) builds one, reached
/// through [`CoDesignProblem::sweep`](crate::CoDesignProblem::sweep); call
/// [`score`](Self::score) on it for any number of configurations. Scores are byte-exact equal to binding with
/// [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) and evaluating
/// [`expected_application_errors`](crate::expected_application_errors) on
/// the same configuration — proven by this module's unit properties and the
/// `lockbind-check` mutation suite.
///
/// Construction precomputes `3 × (|combos| + 2)` weights per live
/// subproblem of a class of at most 3 FUs, which is every subproblem of a
/// 3 + 3 FU allocation; each is solved by a 3-row closed form of at most 9
/// additions. A class of more than 3 FUs keeps `R × (|combos| + 2)`
/// weights per subproblem over its `R` live ops: one locked slot is an
/// `O(R)` column maximum, and `L` slots are solved cold by the Hungarian
/// algorithm on an `R × max(R, L)` matrix, `O(R² · max(R, L))`.
pub struct ErrorSweep {
    /// One entry per class; a class without a locked slot has no
    /// subproblems.
    classes: Vec<ClassSubs>,
    num_slots: usize,
    /// Number of combinations; also the index of the all-zero column.
    unlocked: usize,
}

impl ErrorSweep {
    /// Builds the sweep context: one column table per live `(cycle, class)`
    /// subproblem. `locked_fus` are checked by
    /// [`CoDesignProblem::new`](crate::CoDesignProblem::new); `combos` lists
    /// candidate-index combinations exactly as produced by
    /// [`combinations`](crate::combinations). Counts one `sweep.builds`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Matching`] when some cycle has more concurrent ops of a
    /// class than allocated FUs — the same infeasibility
    /// [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) reports,
    /// checked on every cycle, including those the sweep then drops.
    ///
    /// # Panics
    /// Panics when a combination indexes past `candidates`.
    pub(crate) fn new(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<Self, CoreError> {
        obs::counter!("sweep.builds").inc();
        for &i in combos.iter().flatten() {
            assert!(i < candidates.len(), "combo index {i} out of range");
        }
        let unlocked = combos.len();
        let slots: Vec<Vec<usize>> = FuClass::ALL
            .iter()
            .map(|&class| {
                (0..locked_fus.len())
                    .filter(|&k| locked_fus[k].class == class)
                    .collect()
            })
            .collect();
        let mut subs: Vec<Vec<Sub>> = FuClass::ALL.iter().map(|_| Vec::new()).collect();

        for t in 0..schedule.num_cycles() {
            for (i, &class) in FuClass::ALL.iter().enumerate() {
                let ops = schedule.class_ops_in_cycle(dfg, class, t);
                let fus = alloc.count(class);
                if ops.is_empty() {
                    continue;
                }
                if fus == 0 {
                    return Err(MatchingError::NoColumns.into());
                }
                if ops.len() > fus {
                    return Err(MatchingError::MoreRowsThanCols {
                        rows: ops.len(),
                        cols: fus,
                    }
                    .into());
                }
                if slots[i].is_empty() {
                    continue;
                }
                // Per live op, its count for every candidate.
                let counts: Vec<Vec<u64>> = ops
                    .iter()
                    .map(|&op| candidates.iter().map(|&c| profile.count(op, c)).collect())
                    .filter(|row: &Vec<u64>| row.iter().any(|&ct| ct > 0))
                    .collect();
                if counts.is_empty() {
                    continue;
                }
                let rows = counts.len();
                let mut cols = Vec::with_capacity((unlocked + 2) * rows);
                for combo in combos {
                    cols.extend(
                        counts
                            .iter()
                            .map(|row| combo.iter().map(|&i| row[i]).sum::<u64>()),
                    );
                }
                cols.resize((unlocked + 1) * rows, 0);
                let envelope: Vec<u64> = (0..rows)
                    .map(|r| (0..unlocked).map(|c| cols[c * rows + r]).max().unwrap_or(0))
                    .collect();
                cols.extend(envelope);
                subs[i].push(Sub { rows, cols });
            }
        }
        let classes = FuClass::ALL
            .into_iter()
            .zip(slots)
            .zip(subs)
            .map(|((class, slots), subs)| ClassSubs {
                slots,
                table: Table::new(alloc.count(class), subs, unlocked + 2),
            })
            .collect();
        Ok(ErrorSweep {
            classes,
            num_slots: locked_fus.len(),
            unlocked,
        })
    }

    /// The all-zero column: a slot reading it is unlocked, the heuristic's
    /// "not yet fixed". Its index is the number of combinations.
    pub fn unlocked_column(&self) -> usize {
        self.unlocked
    }

    /// The envelope column: each live op's maximum weight over every
    /// combination. A matching only grows when its weights do, so a slot
    /// reading it bounds every combination the slot could take: the
    /// co-design search's admissible bound.
    pub(crate) fn envelope_column(&self) -> usize {
        self.unlocked + 1
    }

    /// The exact Eqn. 2 error score of the configuration whose slot `k`
    /// reads column `cols[k]`: a combination index, the
    /// [unlocked column](Self::unlocked_column), or the envelope. It is the
    /// sum of the per-subproblem max-weight totals, read class by class.
    ///
    /// # Panics
    /// Panics unless `cols` holds one column per slot, each at most the
    /// envelope's index.
    pub fn score(&self, cols: &[usize]) -> u64 {
        assert_eq!(cols.len(), self.num_slots, "one column per slot");
        self.classes.iter().map(|group| group.score(cols)).sum()
    }

    /// Per combination `c`, the sum over the subproblems of slot `slot`'s
    /// class of column `c`'s largest weight. Loading `c` into the slot
    /// while it is unlocked raises each subproblem's optimum by at most
    /// that column's largest weight, so the unlocked score plus this gain
    /// bounds the loaded score.
    ///
    /// # Panics
    /// Panics on out-of-range `slot`.
    pub(crate) fn combination_gains(&self, slot: usize) -> Vec<u64> {
        let group = self
            .classes
            .iter()
            .find(|group| group.slots.contains(&slot))
            .expect("slot out of range");
        (0..self.unlocked)
            .map(|c| group.column_max_sum(c))
            .collect()
    }
}

/// One locked slot: its best live op.
fn max_column(x: &[u64]) -> u64 {
    x.iter().copied().max().unwrap_or(0)
}

/// Two locked slots with columns `x` and `y` over three rows: the best
/// pair of distinct rows. Exact because weights are non-negative, so both
/// slots can always be matched without losing weight.
fn best_pair(x: &[u64; 3], y: &[u64; 3]) -> u64 {
    let ([x0, x1, x2], [y0, y1, y2]) = (*x, *y);
    (x0 + y1.max(y2)).max(x1 + y0.max(y2)).max(x2 + y0.max(y1))
}

/// Three locked slots with columns `x`, `y` and `z` over three rows: the
/// best of the 6 permutations.
fn best_triple(x: &[u64; 3], y: &[u64; 3], z: &[u64; 3]) -> u64 {
    let ([x0, x1, x2], [y0, y1, y2], [z0, z1, z2]) = (*x, *y, *z);
    (x0 + (y1 + z2).max(z1 + y2))
        .max(y0 + (x1 + z2).max(z1 + x2))
        .max(z0 + (x1 + y2).max(y1 + x2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        bind_obfuscation_aware, combinations, expected_application_errors, CoDesignProblem,
        LockingSpec,
    };
    use lockbind_hls::schedule_list;
    use lockbind_mediabench::Kernel;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A kernel scheduled on 3 + 3 FUs, with the top 6 adder candidates.
    fn setup(kernel: Kernel) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        setup_alloc(kernel, FuClass::Adder, Allocation::new(3, 3))
    }

    /// A kernel scheduled on `alloc`, with the top 6 candidates of `class`.
    fn setup_alloc(
        kernel: Kernel,
        class: FuClass,
        alloc: Allocation,
    ) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        let b = kernel.benchmark(100, 17);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let class_ops = b.dfg.ops_of_class(class);
        let candidates = profile.top_candidates_among(&class_ops, 6);
        (b.dfg, sched, alloc, profile, candidates)
    }

    /// A class of `fus` FUs whose `slots` locked slots share one
    /// subproblem over `columns`, each one weight per live row. With at
    /// most 3 FUs its rows are padded to 3, as the sweep pads them.
    fn sub_over(columns: &[Vec<u64>], fus: usize, slots: usize) -> ClassSubs {
        let sub = Sub {
            rows: columns[0].len(),
            cols: columns.concat(),
        };
        ClassSubs {
            slots: (0..slots).collect(),
            table: Table::new(fus, vec![sub], columns.len()),
        }
    }

    /// The legacy score of one configuration: full obf-aware bind + Eqn. 2.
    #[allow(clippy::too_many_arguments)]
    fn legacy_score(
        dfg: &Dfg,
        sched: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        fus: &[FuId],
        combos: &[Vec<usize>],
        candidates: &[Minterm],
        assign: &[Option<usize>],
    ) -> u64 {
        let entries: Vec<(FuId, Vec<Minterm>)> = fus
            .iter()
            .zip(assign)
            .filter_map(|(&fu, ci)| {
                ci.map(|ci| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
            })
            .collect();
        let spec = LockingSpec::new(alloc, entries).expect("valid");
        let bind = bind_obfuscation_aware(dfg, sched, alloc, profile, &spec).expect("feasible");
        expected_application_errors(&bind, profile, &spec)
    }

    /// Locks `locked` FUs of `class` from index `first` (wrapping), then
    /// walks `steps` of `(slot, pick, op)` — `op == 0` unlocks the slot,
    /// anything else gives it combination `pick` — checking the score of
    /// each configuration on the way against a cold bind.
    fn check_walk(
        kernel: Kernel,
        class: FuClass,
        alloc: Allocation,
        locked: usize,
        first: usize,
        per_fu: usize,
        steps: &[(usize, usize, u32)],
    ) -> Result<(), TestCaseError> {
        let (dfg, sched, alloc, profile, candidates) = setup_alloc(kernel, class, alloc);
        prop_assume!(candidates.len() >= per_fu);
        let fus: Vec<FuId> = (0..locked)
            .map(|i| FuId::new(class, (first + i) % alloc.count(class)))
            .collect();
        let combos = combinations(candidates.len(), per_fu);
        let sweep = ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
            .expect("builds");
        let mut cols = vec![sweep.unlocked_column(); fus.len()];
        let mut assign: Vec<Option<usize>> = vec![None; fus.len()];
        for (step, &(slot, pick, op)) in steps.iter().enumerate() {
            let slot = slot % fus.len();
            if op == 0 {
                cols[slot] = sweep.unlocked_column();
                assign[slot] = None;
            } else {
                let ci = pick % combos.len();
                cols[slot] = ci;
                assign[slot] = Some(ci);
            }
            let fast = sweep.score(&cols);
            let slow = legacy_score(
                &dfg,
                &sched,
                &alloc,
                &profile,
                &fus,
                &combos,
                &candidates,
                &assign,
            );
            prop_assert_eq!(fast, slow, "step {}: assign {:?}", step, assign);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Walks a random sequence of slot loads and clears (partially
        /// locked states included) with 1–3 locked adders or multipliers
        /// and 1–3 inputs per FU on any suite kernel, checking the score
        /// against a cold bind after every step. One, two and three locked
        /// slots reach every closed form.
        #[test]
        fn sweep_score_equals_legacy_bind_score(
            kernel in 0usize..11,
            multiplier in any::<bool>(),
            locked in 1usize..=3,
            first in 0usize..3,
            per_fu in 1usize..=3,
            steps in proptest::collection::vec((0usize..3, 0usize..64, 0u32..8), 1..24),
        ) {
            let class = if multiplier { FuClass::Multiplier } else { FuClass::Adder };
            let alloc = Allocation::new(3, 3);
            check_walk(Kernel::ALL[kernel], class, alloc, locked, first, per_fu, &steps)?;
        }

        /// The same walk with 5 + 5 FUs: up to 4 locked slots over up to 5
        /// live ops per cycle reach the cold fallback as well as every
        /// closed form.
        #[test]
        fn wide_allocation_sweep_equals_legacy_bind_score(
            kernel in 0usize..11,
            multiplier in any::<bool>(),
            locked in 1usize..=4,
            first in 0usize..5,
            per_fu in 1usize..=2,
            steps in proptest::collection::vec((0usize..4, 0usize..64, 0u32..8), 1..16),
        ) {
            let class = if multiplier { FuClass::Multiplier } else { FuClass::Adder };
            let alloc = Allocation::new(5, 5);
            check_walk(Kernel::ALL[kernel], class, alloc, locked, first, per_fu, &steps)?;
        }

        /// The kernel against the cold Hungarian solver: on a random
        /// non-negative matrix whose unlocked columns are all-zero, the
        /// subproblem of the locked columns over the live rows (rows with
        /// a non-zero locked weight) has the full optimum.
        #[test]
        fn kernel_equals_cold_matching_total(
            cols in 1usize..=5,
            rows_seed in 0usize..6,
            locked_mask in 0u32..32,
            cells in proptest::collection::vec((0u32..4, 0u64..1000), 25),
        ) {
            let rows = rows_seed % (cols + 1);
            let locked: Vec<usize> = (0..cols).filter(|c| locked_mask >> c & 1 == 1).collect();
            let weight = |r: usize, c: usize| {
                let (sel, w) = cells[r * 5 + c];
                if locked.contains(&c) && sel != 0 { w } else { 0 }
            };
            let cold = max_weight_matching(&WeightMatrix::from_fn(rows, cols, |r, c| {
                Some(weight(r, c) as i64)
            }))
            .expect("rows <= cols");
            let live: Vec<usize> = (0..rows)
                .filter(|&r| locked.iter().any(|&c| weight(r, c) > 0))
                .collect();
            // The sweep builds no subproblem without a locked slot or a
            // live row; such a cycle contributes 0.
            if locked.is_empty() || live.is_empty() {
                prop_assert_eq!(cold.total, 0);
            } else {
                let columns: Vec<Vec<u64>> = locked
                    .iter()
                    .map(|&c| live.iter().map(|&r| weight(r, c)).collect())
                    .collect();
                let slots: Vec<usize> = (0..locked.len()).collect();
                let class = sub_over(&columns, cols, slots.len());
                prop_assert_eq!(class.score(&slots) as i64, cold.total);
            }
        }

        /// A class's score against the cold Hungarian solver on every shape
        /// up to 5 slots over 5 rows: each slot reads one of 5 random
        /// columns or the all-zero column, repeats included (two slots
        /// holding one combination), with zero entries and all-zero
        /// columns. The class has `max(R, L)` FUs, so shapes within 3 FUs
        /// take the padded closed forms and the rest the wide path (1 slot
        /// over any rows, or the cold fallback).
        #[test]
        fn solve_equals_cold_matching(
            rows in 1usize..=5,
            picks in proptest::collection::vec(0usize..6, 1..=5),
            zero in 0u32..32,
            cells in proptest::collection::vec((0u32..3, 0u64..1000), 25),
        ) {
            // Bit `c` of `zero` blanks column `c`; a `sel` of 0 blanks one
            // entry; column 5 is the sweep's all-zero "unlocked" column.
            let mut columns: Vec<Vec<u64>> = (0..5)
                .map(|c| {
                    (0..rows)
                        .map(|r| {
                            let (sel, w) = cells[c * 5 + r];
                            if zero >> c & 1 == 1 || sel == 0 { 0 } else { w }
                        })
                        .collect()
                })
                .collect();
            columns.push(vec![0; rows]);
            // Padded with a zero column per slot, independent of the
            // fallback's own `max(R, L)` width.
            let reference = max_weight_matching(&WeightMatrix::from_fn(
                rows,
                rows + picks.len(),
                |r, s| Some(picks.get(s).map_or(0, |&c| columns[c][r]) as i64),
            ))
            .expect("rows <= cols");
            let solved = sub_over(&columns, rows.max(picks.len()), picks.len()).score(&picks);
            prop_assert_eq!(solved as i64, reference.total, "picks {:?}", picks);
        }

        /// The padding is exact: with 1–3 live rows and 1–3 slots of a
        /// 3-FU class, each slot reading its own random column, the padded
        /// 3-row score equals a cold matching on the unpadded rows, with
        /// the class's unlocked FUs as all-zero columns.
        #[test]
        fn padded_three_row_score_equals_cold_matching(
            rows in 1usize..=3,
            slots in 1usize..=3,
            cells in proptest::collection::vec((0u32..3, 0u64..1000), 9),
        ) {
            let columns: Vec<Vec<u64>> = (0..slots)
                .map(|s| {
                    (0..rows)
                        .map(|r| match cells[s * 3 + r] {
                            (0, _) => 0,
                            (_, w) => w,
                        })
                        .collect()
                })
                .collect();
            let cold = max_weight_matching(&WeightMatrix::from_fn(rows, 3, |r, s| {
                Some(columns.get(s).map_or(0, |col| col[r]) as i64)
            }))
            .expect("rows <= 3");
            let class = sub_over(&columns, 3, slots);
            prop_assert!(matches!(class.table, Table::Narrow { .. }));
            let picks: Vec<usize> = (0..slots).collect();
            prop_assert_eq!(class.score(&picks) as i64, cold.total, "columns {:?}", columns);
        }
    }

    /// A kernel scheduled on 3 + 3 FUs with `adders` locked adders and
    /// `multipliers` locked multipliers, over the top 4 candidates of each
    /// class, and its sweep at `per_fu` inputs per FU.
    struct Mixed {
        dfg: Dfg,
        sched: Schedule,
        alloc: Allocation,
        profile: OccurrenceProfile,
        candidates: Vec<Minterm>,
        combos: Vec<Vec<usize>>,
        fus: Vec<FuId>,
        sweep: ErrorSweep,
    }

    impl Mixed {
        fn new(kernel: Kernel, adders: usize, multipliers: usize, per_fu: usize) -> Mixed {
            let b = kernel.benchmark(100, 17);
            let alloc = Allocation::new(3, 3);
            let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
            let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
            let mut candidates = Vec::new();
            for class in FuClass::ALL {
                candidates.extend(profile.top_candidates_among(&b.dfg.ops_of_class(class), 4));
            }
            let fus: Vec<FuId> = (0..adders)
                .map(|i| FuId::new(FuClass::Adder, i))
                .chain((0..multipliers).map(|i| FuId::new(FuClass::Multiplier, i)))
                .collect();
            let combos = combinations(candidates.len(), per_fu);
            let sweep =
                ErrorSweep::new(&b.dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
                    .expect("builds");
            Mixed {
                dfg: b.dfg,
                sched,
                alloc,
                profile,
                candidates,
                combos,
                fus,
                sweep,
            }
        }

        /// Each slot's column from a random pick: always a combination
        /// when `locks`, otherwise the unlocked column or the envelope for
        /// one pick in eight each.
        fn columns(&self, picks: &[usize], locks: bool) -> Vec<usize> {
            let r = self.combos.len();
            let column = |p: usize| match p % 8 {
                0 if !locks => self.sweep.unlocked_column(),
                1 if !locks => self.sweep.envelope_column(),
                _ => p / 8 % r,
            };
            picks[..self.fus.len()].iter().map(|&p| column(p)).collect()
        }

        /// A cold obfuscation-aware bind and Eqn. 2 of the configuration
        /// `cols`, with unlocked slots left out of the spec.
        fn cold_score(&self, cols: &[usize]) -> u64 {
            let assign: Vec<Option<usize>> = cols
                .iter()
                .map(|&c| (c < self.combos.len()).then_some(c))
                .collect();
            legacy_score(
                &self.dfg,
                &self.sched,
                &self.alloc,
                &self.profile,
                &self.fus,
                &self.combos,
                &self.candidates,
                &assign,
            )
        }
    }

    /// Permutation `index` of a list of at most 3 items: a rotation, then
    /// a reversal; the 6 indices of 3 items give all 6 orders.
    fn permuted(items: &[usize], index: usize) -> Vec<usize> {
        let mut out = items.to_vec();
        if !out.is_empty() {
            out.rotate_left(index % items.len());
            if index / items.len() % 2 == 1 {
                out.reverse();
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Locked slots of one class are interchangeable: permuting the
        /// combinations among the adder slots and among the multiplier
        /// slots leaves the score unchanged. The optimal search visits
        /// multisets on this property.
        #[test]
        fn permuting_same_class_slots_keeps_the_score(
            kernel in 0usize..11,
            adders in 1usize..=3,
            multipliers in 0usize..=3,
            per_fu in 1usize..=2,
            picks in proptest::collection::vec(0usize..512, 6),
            orders in (0usize..6, 0usize..6),
        ) {
            let m = Mixed::new(Kernel::ALL[kernel], adders, multipliers, per_fu);
            let assign = m.columns(&picks, true);
            let score = m.sweep.score(&assign);
            let mut moved = assign.clone();
            for (class, order) in [(FuClass::Adder, orders.0), (FuClass::Multiplier, orders.1)] {
                let slots: Vec<usize> =
                    (0..m.fus.len()).filter(|&k| m.fus[k].class == class).collect();
                for (&k, &from) in slots.iter().zip(&permuted(&slots, order)) {
                    moved[k] = assign[from];
                }
            }
            prop_assert_eq!(m.sweep.score(&moved), score, "{:?} -> {:?}", assign, moved);
        }

        /// `score` on locks mixing 1–3 adders with 1–3 multipliers, each
        /// slot reading a random combination, the unlocked column or the
        /// envelope. Without the envelope it equals a cold bind and Eqn. 2
        /// of the partial spec; with it, it bounds every completion (each
        /// envelope slot given a combination, four random completions per
        /// case), each scored by a cold bind.
        #[test]
        fn score_equals_cold_bind_on_mixed_class_locks(
            kernel in 0usize..11,
            adders in 1usize..=3,
            multipliers in 1usize..=3,
            per_fu in 1usize..=2,
            picks in proptest::collection::vec(0usize..512, 6),
            fills in proptest::collection::vec(proptest::collection::vec(0usize..64, 6), 4),
        ) {
            let m = Mixed::new(Kernel::ALL[kernel], adders, multipliers, per_fu);
            let cols = m.columns(&picks, false);
            let score = m.sweep.score(&cols);
            let envelope = m.sweep.envelope_column();
            if !cols.contains(&envelope) {
                prop_assert_eq!(score, m.cold_score(&cols), "columns {:?}", cols);
            }
            for fill in &fills {
                let completion: Vec<usize> = cols
                    .iter()
                    .zip(fill)
                    .map(|(&c, f)| if c == envelope { f % m.combos.len() } else { c })
                    .collect();
                let exact = m.cold_score(&completion);
                prop_assert!(score >= exact, "{:?} scores {} < {:?} at {}", cols, score, completion, exact);
            }
        }

        /// The search's bounds are admissible. With any set of slots on
        /// the envelope, the score is at least that of the configuration
        /// with those slots loaded; and loading a combination into an
        /// unlocked slot raises the score by at most its gain, by exactly
        /// its gain when no other slot of the class is locked.
        #[test]
        fn envelope_and_gains_bound_the_loaded_score(
            kernel in 0usize..11,
            adders in 1usize..=3,
            multipliers in 0usize..=3,
            per_fu in 1usize..=2,
            picks in proptest::collection::vec(0usize..512, 6),
            relax_and_slot in (0u32..64, 0usize..6),
        ) {
            let (relaxed, slot) = relax_and_slot;
            let m = Mixed::new(Kernel::ALL[kernel], adders, multipliers, per_fu);
            let assign = m.columns(&picks, true);
            let loaded = m.sweep.score(&assign);
            let mut cols = assign.clone();
            for k in (0..m.fus.len()).filter(|k| relaxed >> k & 1 == 1) {
                cols[k] = m.sweep.envelope_column();
            }
            let bound = m.sweep.score(&cols);
            prop_assert!(bound >= loaded, "envelope {} < loaded {}", bound, loaded);

            let mut cols = assign;
            let slot = slot % m.fus.len();
            cols[slot] = m.sweep.unlocked_column();
            let unlocked = m.sweep.score(&cols);
            let gains = m.sweep.combination_gains(slot);
            let alone = m.fus.iter().filter(|f| f.class == m.fus[slot].class).count() == 1;
            for (c, &gain) in gains.iter().enumerate() {
                cols[slot] = c;
                let score = m.sweep.score(&cols);
                prop_assert!(score <= unlocked + gain, "combination {}", c);
                if alone {
                    prop_assert_eq!(score, unlocked + gain, "combination {}", c);
                }
            }
        }
    }

    #[test]
    fn envelope_holds_each_rows_maximum() {
        for kernel in Kernel::ALL {
            let m = Mixed::new(kernel, 3, 3, 2);
            let r = m.combos.len();
            let mut live = 0;
            for group in &m.sweep.classes {
                let Table::Narrow { subs, cols } = &group.table else {
                    panic!("3 + 3 FUs pad every subproblem");
                };
                live += subs;
                for s in 0..*subs {
                    for (row, &envelope) in cols[(r + 1) * subs + s].iter().enumerate() {
                        let max = (0..r).map(|c| cols[c * subs + s][row]).max();
                        assert_eq!(Some(envelope), max, "{kernel:?} row {row}");
                    }
                }
            }
            assert!(live > 0, "{kernel:?}");
        }
    }

    /// The problem checks the locked FUs before it builds a sweep.
    #[test]
    fn rejects_invalid_locked_fus() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let bad = [FuId::new(FuClass::Adder, 9)];
        assert!(matches!(
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &bad, 1, &candidates),
            Err(CoreError::UnknownFu { .. })
        ));
        let dup = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &dup, 1, &candidates),
            Err(CoreError::DuplicateFu { .. })
        ));
    }

    #[test]
    fn infeasible_allocation_surfaces_matching_error() {
        let (dfg, _, _, profile, candidates) = setup(Kernel::Fir);
        let tight = Allocation::new(1, 1);
        // Schedule against a generous allocation, then sweep with a tight
        // one: cycles with 2+ concurrent adds cannot be bound.
        let wide = Allocation::new(3, 3);
        let sched = schedule_list(&dfg, &wide).expect("schedulable");
        let combos = combinations(candidates.len(), 1);
        let fus = [FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &tight, &profile, &fus, &candidates, &combos),
            Err(CoreError::Matching(_))
        ));
        assert!(matches!(
            CoDesignProblem::new(&dfg, &sched, &tight, &profile, &fus, 1, &candidates),
            Err(CoreError::Matching(_))
        ));
    }
}
