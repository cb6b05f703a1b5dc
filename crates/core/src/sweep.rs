//! Eqn. 2 error scoring across locked-input combinations.
//!
//! Every co-design search (and the bench error-cell grids) scores thousands
//! to millions of locking configurations: the locked FUs and the candidate
//! list stay fixed while the combination of locked minterms on each FU
//! varies. The legacy path rebuilt a [`LockingSpec`](crate::LockingSpec),
//! re-solved every per-cycle assignment problem cold, and re-walked the
//! binding to sum errors — all to score one changed column per cycle.
//!
//! Scoring rests on two tables, both read-only once built:
//!
//! * A [`ClassTable`] holds one FU class's live `(cycle)` subproblems over
//!   one candidate list: for each candidate `i` and live op `r`, the
//!   occurrence count `K[r, i]`. It is the only place that probes the
//!   [`OccurrenceProfile`], and it depends on neither the locked FUs nor
//!   the inputs per FU, so one table serves every co-design problem of its
//!   class. Building it runs the binder's feasibility checks on every cycle
//!   and counts one `sweep.tables`.
//! * An [`ErrorSweep`] is derived per
//!   [`CoDesignProblem`](crate::CoDesignProblem) from the tables of its
//!   locked classes. Eqn. 3 is linear in the locked minterm set,
//!   `w(r, M) = Σ_{i∈M} K[r, i]`, so each combination's column is the sum
//!   of its members' candidate columns. After the combinations come one
//!   all-zero column standing for "unlocked" and one *envelope* column
//!   holding each op's maximum over every combination (the optimal search's
//!   bound). Deriving counts one `sweep.builds`.
//!
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
//! no locked slot, always contribute 0 and are dropped.
//!
//! **Fixed 3-row columns.** Every subproblem the grid builds is small:
//! each prepared kernel allocates 3 FUs per class, so at most 3 slots are
//! locked and at most 3 ops are live. For a class of at most 3 FUs every
//! live subproblem is padded with all-zero rows to exactly 3 rows, which is
//! exact: weights are non-negative, so a zero row only lets a slot stay
//! unmatched at weight 0. Both tables are column-major, one `[u64; 3]` per
//! (column, subproblem), so a combination's column is a few 3-wide
//! additions and [`ErrorSweep::score`] dispatches on the class's slot count
//! once and then runs one straight-line 3-row closed form down the columns
//! its slots name. One slot: the column's maximum. Two slots `x`, `y`:
//! `max_i x_i + max_{j≠i} y_j`. Three slots `x`, `y`, `z`: the best of the
//! 6 permutations. A class with more than 3 FUs, which only library callers
//! with a wider [`Allocation`] build, keeps one unpadded table per
//! subproblem: one slot takes its column's maximum, and any other shape
//! goes to the cold [`max_weight_matching`] on the selected columns, padded
//! with all-zero columns to `max(R, L)` so every row can be matched.
//! DESIGN §14.1–14.2 has the proofs and the measurements.

use lockbind_hls::{Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, OpId, Schedule};
use lockbind_matching::{max_weight_matching, MatchingError, WeightMatrix};
use lockbind_obs as obs;

use crate::CoreError;

/// One live subproblem, unpadded: `rows` live ops and `cols[c * rows + r]`,
/// the weight of live row `r` in column `c`. In a [`ClassTable`] the
/// columns are the candidates; in a sweep they are the combinations, then
/// the all-zero column, then the envelope. A class of more than 3 FUs keeps
/// its subproblems in this form; [`Table::new`] pads the others.
#[derive(Debug, Clone)]
struct Sub {
    /// Number of live ops.
    rows: usize,
    cols: Vec<u64>,
}

impl Sub {
    fn col(&self, c: usize) -> &[u64] {
        &self.cols[c * self.rows..(c + 1) * self.rows]
    }

    /// The sweep's columns over `combos`: each combination's column the sum
    /// of its members' candidate columns, then the all-zero column, then
    /// each row's maximum over every combination.
    fn derive(&self, combos: &[Vec<usize>]) -> Sub {
        let rows = self.rows;
        let mut cols = Vec::with_capacity((combos.len() + 2) * rows);
        for combo in combos {
            cols.extend((0..rows).map(|r| combo.iter().map(|&i| self.col(i)[r]).sum::<u64>()));
        }
        cols.resize((combos.len() + 1) * rows, 0);
        let envelope: Vec<u64> = (0..rows)
            .map(|r| {
                (0..combos.len())
                    .map(|c| cols[c * rows + r])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        cols.extend(envelope);
        Sub { rows, cols }
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
#[derive(Debug, Clone)]
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

    /// A sweep's table over `combos`, derived from a class table's
    /// candidate columns: see [`Sub::derive`]. The narrow layout sums the
    /// members' padded columns straight into the combination's column and
    /// raises the envelope as it goes.
    fn derive(&self, combos: &[Vec<usize>]) -> Table {
        match self {
            Table::Narrow { subs, cols } => Table::Narrow {
                subs: *subs,
                cols: derive_narrow(*subs, cols, combos),
            },
            Table::Wide(subs) => Table::Wide(subs.iter().map(|sub| sub.derive(combos)).collect()),
        }
    }
}

/// [`Table::derive`] on the padded layout of `n` subproblems: each
/// combination's column is the 3-wide sum of its members' candidate
/// columns, and the envelope rises with every column written.
fn derive_narrow(n: usize, candidates: &[[u64; 3]], combos: &[Vec<usize>]) -> Vec<[u64; 3]> {
    let mut out = vec![[0; 3]; (combos.len() + 2) * n];
    let (body, tail) = out.split_at_mut(combos.len() * n);
    let envelope = &mut tail[n..];
    for (c, combo) in combos.iter().enumerate() {
        let column = &mut body[c * n..][..n];
        for &i in combo {
            for (x, y) in column.iter_mut().zip(&candidates[i * n..][..n]) {
                for row in 0..3 {
                    x[row] += y[row];
                }
            }
        }
        for (e, x) in envelope.iter_mut().zip(column.iter()) {
            for row in 0..3 {
                e[row] = e[row].max(x[row]);
            }
        }
    }
    out
}

/// Walks every cycle and FU class with the feasibility checks of
/// [`bind_obfuscation_aware`](crate::bind_obfuscation_aware), handing each
/// cycle's non-empty op list of a class to `visit`.
///
/// # Errors
/// [`CoreError::Matching`] when some cycle has more concurrent ops of a
/// class than allocated FUs — the same infeasibility the binder reports.
pub(crate) fn walk_cycles(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    mut visit: impl FnMut(FuClass, Vec<OpId>),
) -> Result<(), CoreError> {
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
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
            visit(class, ops);
        }
    }
    Ok(())
}

/// One FU class's Eqn. 3 candidate table: per live `(cycle)` subproblem of
/// the class, each live op's occurrence count for every candidate of one
/// list. Whether the class has more than 3 FUs (the padded or the unpadded
/// layout) is fixed here, once per class.
///
/// A table depends on the scheduled, profiled kernel, the class and the
/// candidate list only, so every [`CoDesignProblem`](crate::CoDesignProblem)
/// of the class can derive its sweep from one table:
/// [`CoDesignProblem::with_table`](crate::CoDesignProblem::with_table)
/// borrows one and reads its candidates from it, and
/// [`CoDesignProblem::new`](crate::CoDesignProblem::new) builds its own.
#[derive(Debug, Clone)]
pub struct ClassTable {
    class: FuClass,
    candidates: Vec<Minterm>,
    counts: Table,
}

impl ClassTable {
    /// Builds the table of `class` over `candidates`. Counts one
    /// `sweep.tables`.
    ///
    /// # Errors
    /// [`CoreError::Matching`] when some cycle has more concurrent ops of
    /// any class than allocated FUs — the same infeasibility
    /// [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) reports,
    /// checked on every cycle and class, including those the table drops.
    pub fn new(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        class: FuClass,
        candidates: &[Minterm],
    ) -> Result<ClassTable, CoreError> {
        let _span = obs::span!("sweep.table", candidates = candidates.len());
        obs::counter!("sweep.tables").inc();
        let mut subs = Vec::new();
        walk_cycles(dfg, schedule, alloc, |c, ops| {
            if c != class {
                return;
            }
            // Per live op, its count for every candidate.
            let counts: Vec<Vec<u64>> = ops
                .iter()
                .map(|&op| candidates.iter().map(|&m| profile.count(op, m)).collect())
                .filter(|row: &Vec<u64>| row.iter().any(|&ct| ct > 0))
                .collect();
            if counts.is_empty() {
                return;
            }
            let cols = (0..candidates.len())
                .flat_map(|i| counts.iter().map(move |row| row[i]))
                .collect();
            subs.push(Sub {
                rows: counts.len(),
                cols,
            });
        })?;
        Ok(ClassTable {
            class,
            candidates: candidates.to_vec(),
            counts: Table::new(alloc.count(class), subs, candidates.len()),
        })
    }

    /// The FU class the table covers.
    pub fn class(&self) -> FuClass {
        self.class
    }

    /// The candidate list the table counts, in column order.
    pub fn candidates(&self) -> &[Minterm] {
        &self.candidates
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
/// Each [`CoDesignProblem`](crate::CoDesignProblem) derives one from its
/// [`ClassTable`]s, reached through
/// [`CoDesignProblem::sweep`](crate::CoDesignProblem::sweep); call
/// [`score`](Self::score) on it for any number of configurations. Scores
/// are byte-exact equal to binding with
/// [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) and evaluating
/// [`expected_application_errors`](crate::expected_application_errors) on
/// the same configuration — proven by this module's unit properties and the
/// `lockbind-check` mutation suite.
///
/// Deriving sums `3 × |combos| × m` weights per live subproblem of a class
/// of at most 3 FUs (`m` inputs per FU), which is every subproblem of a
/// 3 + 3 FU allocation, into `3 × (|combos| + 2)` weights; each score is a
/// 3-row closed form of at most 9 additions. A class of more than 3 FUs
/// keeps `R × (|combos| + 2)` weights per subproblem over its `R` live ops:
/// one locked slot is an `O(R)` column maximum, and `L` slots are solved
/// cold by the Hungarian algorithm on an `R × max(R, L)` matrix,
/// `O(R² · max(R, L))`.
pub struct ErrorSweep {
    /// One entry per class with a locked slot.
    classes: Vec<ClassSubs>,
    num_slots: usize,
    /// Number of combinations; also the index of the all-zero column.
    unlocked: usize,
}

impl ErrorSweep {
    /// Derives the sweep of `locked_fus` over `combos` (candidate-index
    /// combinations as produced by [`combinations`](crate::combinations))
    /// from `tables`, which hold one table of every locked FU's class, all
    /// over the candidate list the combinations index. Counts one
    /// `sweep.builds`.
    ///
    /// # Panics
    /// Panics when a locked FU's class has no table, or a combination
    /// indexes past the candidates.
    pub(crate) fn derive(
        tables: &[&ClassTable],
        locked_fus: &[FuId],
        combos: &[Vec<usize>],
    ) -> ErrorSweep {
        obs::counter!("sweep.builds").inc();
        let classes = FuClass::ALL
            .into_iter()
            .filter_map(|class| {
                let slots: Vec<usize> = (0..locked_fus.len())
                    .filter(|&k| locked_fus[k].class == class)
                    .collect();
                if slots.is_empty() {
                    return None;
                }
                let table = tables
                    .iter()
                    .find(|table| table.class == class)
                    .expect("a table per locked class");
                Some(ClassSubs {
                    slots,
                    table: table.counts.derive(combos),
                })
            })
            .collect();
        ErrorSweep {
            classes,
            num_slots: locked_fus.len(),
            unlocked: combos.len(),
        }
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
    use lockbind_hls::{schedule_list, OpKind, Trace, ValueRef};
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

    /// The sweep of `fus` derived from one [`ClassTable`] per locked class,
    /// each over `candidates`.
    fn table_sweep(
        dfg: &Dfg,
        sched: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<ErrorSweep, CoreError> {
        let tables = FuClass::ALL
            .into_iter()
            .filter(|&class| fus.iter().any(|fu| fu.class == class))
            .map(|class| ClassTable::new(dfg, sched, alloc, profile, class, candidates))
            .collect::<Result<Vec<_>, _>>()?;
        let tables: Vec<&ClassTable> = tables.iter().collect();
        Ok(ErrorSweep::derive(&tables, fus, combos))
    }

    /// The sweep built from scratch, as it was before class tables: per
    /// live `(cycle, class)` subproblem of a locked class, each
    /// combination's column summed from fresh profile lookups, then the
    /// all-zero column and the envelope, then padded to 3 rows for a class
    /// of at most 3 FUs. The reference the derived sweep must equal.
    fn reference_sweep(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<ErrorSweep, CoreError> {
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

    /// A random DFG of `ops` adds, subtracts and multiplies over 4-bit
    /// operands, each op reading two earlier values, and a random trace of
    /// `frames` frames, both drawn from `seed`.
    fn random_kernel(inputs: usize, ops: usize, frames: usize, seed: u64) -> (Dfg, Trace) {
        let mut s = seed;
        let mut next = move |n: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        };
        let mut dfg = Dfg::new(4);
        let mut values: Vec<ValueRef> = (0..inputs).map(|i| dfg.input(format!("x{i}"))).collect();
        for _ in 0..ops {
            let kind = [OpKind::Add, OpKind::Sub, OpKind::Mul][next(3)];
            let (a, b) = (values[next(values.len())], values[next(values.len())]);
            values.push(ValueRef::Op(dfg.op(kind, a, b)));
        }
        let trace: Trace = (0..frames)
            .map(|_| (0..inputs).map(|_| next(16) as u64).collect())
            .collect();
        (dfg, trace)
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
        let problem =
            CoDesignProblem::new(&dfg, &sched, &alloc, &profile, &fus, per_fu, &candidates)
                .expect("builds");
        let (combos, sweep) = (problem.combinations(), problem.sweep());
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
                combos,
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

        /// The table-derived sweep against the from-scratch reference on
        /// random DFGs and allocations (1–5 FUs per class, so classes of 4
        /// or more FUs take the unpadded layout): the same feasibility
        /// verdict, the same gains, and the same score on every
        /// configuration of combination, unlocked and envelope columns
        /// (a seeded sample past 4096), with adder and multiplier slots
        /// locked together over one mixed candidate list.
        #[test]
        fn derived_sweep_equals_the_reference_build(
            shape in (2usize..6, 3usize..24, 1usize..40),
            seed in any::<u64>(),
            scheduled in (1usize..=5, 1usize..=5),
            tighter in (0usize..=1, 0usize..=1),
            locked in (0usize..=4, 0usize..=4),
            picks in (1usize..=6, 1usize..=2),
        ) {
            let (inputs, ops, frames) = shape;
            let (top, per_fu) = picks;
            let (dfg, trace) = random_kernel(inputs, ops, frames, seed);
            let sched = schedule_list(&dfg, &Allocation::new(scheduled.0, scheduled.1))
                .expect("one FU per class schedules anything");
            // A sweep allocation at most one FU tighter per class than the
            // schedule's can fail the feasibility checks.
            let alloc = Allocation::new(
                scheduled.0.saturating_sub(tighter.0).max(1),
                scheduled.1.saturating_sub(tighter.1).max(1),
            );
            let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
            let all: Vec<_> = FuClass::ALL.iter().flat_map(|&c| dfg.ops_of_class(c)).collect();
            let candidates = profile.top_candidates_among(&all, top);
            prop_assume!(candidates.len() >= per_fu);
            let fus: Vec<FuId> = (0..locked.0.min(alloc.count(FuClass::Adder)))
                .map(|i| FuId::new(FuClass::Adder, i))
                .chain(
                    (0..locked.1.min(alloc.count(FuClass::Multiplier)))
                        .map(|i| FuId::new(FuClass::Multiplier, i)),
                )
                .collect();
            prop_assume!(!fus.is_empty());
            let combos = combinations(candidates.len(), per_fu);
            let derived = table_sweep(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos);
            let reference =
                reference_sweep(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos);
            let (derived, reference) = match (derived, reference) {
                (Ok(d), Ok(r)) => (d, r),
                (d, r) => {
                    prop_assert_eq!(d.err(), r.err());
                    return Ok(());
                }
            };
            prop_assert_eq!(derived.unlocked_column(), reference.unlocked_column());
            for slot in 0..fus.len() {
                prop_assert_eq!(
                    derived.combination_gains(slot),
                    reference.combination_gains(slot),
                    "slot {}", slot
                );
            }
            let radix = combos.len() + 2;
            let total = radix.checked_pow(fus.len() as u32).unwrap_or(usize::MAX);
            let mut state = seed;
            let configurations = total.min(4096);
            for index in 0..configurations {
                let cols: Vec<usize> = (0..fus.len())
                    .map(|k| {
                        if total <= 4096 {
                            index / radix.pow(k as u32) % radix
                        } else {
                            lockbind_resil::splitmix64(&mut state) as usize % radix
                        }
                    })
                    .collect();
                prop_assert_eq!(derived.score(&cols), reference.score(&cols), "columns {:?}", cols);
            }
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
            let sweep = table_sweep(&b.dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
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
        let fus = [FuId::new(FuClass::Adder, 0)];
        // Locked or not, the multiplier table checks the adders' cycles.
        assert!(matches!(
            ClassTable::new(
                &dfg,
                &sched,
                &tight,
                &profile,
                FuClass::Multiplier,
                &candidates
            ),
            Err(CoreError::Matching(_))
        ));
        let combos = combinations(candidates.len(), 1);
        assert!(matches!(
            reference_sweep(&dfg, &sched, &tight, &profile, &fus, &candidates, &combos),
            Err(CoreError::Matching(_))
        ));
        assert!(matches!(
            CoDesignProblem::new(&dfg, &sched, &tight, &profile, &fus, 1, &candidates),
            Err(CoreError::Matching(_))
        ));
    }
}
