//! Incremental Eqn. 2 error scoring across locked-input combinations.
//!
//! Every co-design search (and the bench error-cell grids) scores thousands
//! to millions of *adjacent* locking configurations: the locked FUs and the
//! candidate list stay fixed while one FU's combination of locked minterms
//! changes per step. The legacy path rebuilt a [`LockingSpec`], re-solved
//! every per-cycle assignment problem cold, and re-walked the binding to sum
//! errors — all to score one changed column per cycle.
//!
//! [`ErrorSweep`] scores a configuration from three pieces of state:
//!
//! * per *live* `(cycle, class)` subproblem, a column table: for each
//!   combination `c` and live op `r`, the Eqn. 3 weight `w(r, c)` at
//!   `cols[c * rows + r]`, plus one all-zero column standing for
//!   "unlocked". The weights depend only on (op, combination), so they are
//!   computed once at construction and loading a slot is an index change;
//! * per subproblem, the column each of the class's locked slots reads;
//! * a cached per-subproblem optimum, so scoring a configuration only
//!   re-solves the subproblems whose columns actually moved.
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
//! **Closed forms.** With one locked slot the optimum is its column's
//! maximum. With two it is `max_{i≠j} x_i + y_j` over the two columns, or
//! `max(x_0, y_0)` when only one op is live: with two or more live ops a
//! matching that leaves a slot free never beats one that gives it another
//! op, because weights are non-negative. Three or more slots go through
//! the subset DP, which reads each slot's weights in place from its
//! selected column.

use lockbind_hls::{Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_matching::MatchingError;

use crate::CoreError;

/// One live `(cycle, class)` subproblem: the class has a locked slot and
/// the cycle has at least one live op of the class.
struct Sub {
    class: FuClass,
    /// Number of live ops.
    rows: usize,
    /// `cols[c * rows + r]`: Eqn. 3 weight of live row `r` under
    /// combination `c`; the last column is all-zero ("unlocked").
    cols: Vec<u64>,
    /// Per locked slot of `class` (by position), the column it reads.
    sel: Vec<usize>,
    /// The subproblem's optimal total under the current columns, if solved.
    total: Option<u64>,
}

impl Sub {
    fn col(&self, c: usize) -> &[u64] {
        &self.cols[c * self.rows..(c + 1) * self.rows]
    }

    /// The optimum over the current columns: closed form for one or two
    /// locked slots, the subset DP beyond.
    fn solve(&self, dp: &mut [u64]) -> u64 {
        match *self.sel.as_slice() {
            [a] => max_column(self.col(a)),
            [a, b] => best_pair(self.col(a), self.col(b)),
            _ => best_partial_matching(&self.cols, &self.sel, self.rows, dp),
        }
    }
}

/// One locked-FU slot of the sweep.
struct Slot {
    class: FuClass,
    /// Position among the locked slots of `class`.
    local: usize,
    /// Column currently loaded: a combination index, or the combination
    /// count for unlocked (all-zero weights, matching the heuristic's
    /// "later FUs unlocked").
    col: usize,
}

/// Incremental scorer for locked-input combination sweeps: assign each
/// locked-FU *slot* a combination out of a fixed list, then read the exact
/// Eqn. 2 error score.
///
/// Construct once per `(kernel, locked FUs, candidates, combination list)`
/// context, then drive with [`set_slot`](Self::set_slot) /
/// [`clear_slot`](Self::clear_slot). Scores are byte-exact equal to binding
/// with [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) and
/// evaluating
/// [`expected_application_errors`](crate::expected_application_errors) on
/// the same configuration — proven by this module's unit properties and the
/// `lockbind-check` mutation suite.
///
/// Construction precomputes `Σ rows × (|combos| + 1)` weights. A
/// subproblem with one or two locked slots is solved in closed form in
/// `O(R)` / `O(R²)` for `R` live ops; with `L ≥ 3` by a DP over subsets of
/// the slots in `O(R · L · 2^L)`. `L` is small wherever a sweep runs:
/// every caller enumerates `C(n, m)^L` configurations, and the grid locks
/// 1–3 FUs per class.
pub struct ErrorSweep {
    subs: Vec<Sub>,
    slots: Vec<Slot>,
    /// Number of combinations; also the index of the all-zero column.
    unlocked: usize,
    /// DP table reused by every DP solve, `2^L` entries for the largest `L`.
    dp: Vec<u64>,
}

impl ErrorSweep {
    /// Builds the sweep context: one column table per live `(cycle, class)`
    /// subproblem, every slot initially unlocked. `combos` lists
    /// candidate-index combinations exactly as produced by
    /// [`combinations`](crate::combinations).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownFu`] / [`CoreError::DuplicateFu`] for invalid
    ///   `locked_fus` (same checks as the co-design searches),
    /// * [`CoreError::Matching`] when some cycle has more concurrent ops of
    ///   a class than allocated FUs — the same infeasibility
    ///   [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) reports,
    ///   checked on every cycle, including those the sweep then drops.
    ///
    /// # Panics
    /// Panics when a combination indexes past `candidates`.
    pub fn new(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<Self, CoreError> {
        let unlocked = combos.len();
        let mut slots = Vec::with_capacity(locked_fus.len());
        for (i, &fu) in locked_fus.iter().enumerate() {
            if fu.index >= alloc.count(fu.class) {
                return Err(CoreError::UnknownFu { fu: fu.to_string() });
            }
            if locked_fus[..i].contains(&fu) {
                return Err(CoreError::DuplicateFu { fu: fu.to_string() });
            }
            let local = locked_fus[..i]
                .iter()
                .filter(|f| f.class == fu.class)
                .count();
            slots.push(Slot {
                class: fu.class,
                local,
                col: unlocked,
            });
        }
        for &i in combos.iter().flatten() {
            assert!(i < candidates.len(), "combo index {i} out of range");
        }

        let mut subs = Vec::new();
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
                let locked = locked_fus.iter().filter(|fu| fu.class == class).count();
                if locked == 0 {
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
                let mut cols = Vec::with_capacity((unlocked + 1) * rows);
                for combo in combos {
                    cols.extend(
                        counts
                            .iter()
                            .map(|row| combo.iter().map(|&i| row[i]).sum::<u64>()),
                    );
                }
                cols.resize((unlocked + 1) * rows, 0);
                subs.push(Sub {
                    class,
                    rows,
                    cols,
                    sel: vec![unlocked; locked],
                    // The all-zero table's optimum is 0 — no solve needed
                    // until a column moves.
                    total: Some(0),
                });
            }
        }
        let max_locked = subs.iter().map(|s| s.sel.len()).max().unwrap_or(0);
        Ok(ErrorSweep {
            subs,
            slots,
            unlocked,
            dp: vec![0; 1 << max_locked],
        })
    }

    /// Number of locked-FU slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Loads combination `combo` into slot `slot`, pointing that slot at
    /// `combo`'s column in every subproblem of its FU's class. A no-op when
    /// the slot already holds `combo`; a subproblem's cached optimum
    /// survives when its old and new columns are equal.
    ///
    /// # Panics
    /// Panics on out-of-range `slot` or `combo`.
    pub fn set_slot(&mut self, slot: usize, combo: usize) {
        assert!(combo < self.unlocked, "combo {combo} out of range");
        self.load(slot, combo);
    }

    /// Unlocks slot `slot` (the all-zero column), the heuristic's "not yet
    /// fixed" state. A no-op when already unlocked.
    ///
    /// # Panics
    /// Panics on out-of-range `slot`.
    pub fn clear_slot(&mut self, slot: usize) {
        self.load(slot, self.unlocked);
    }

    fn load(&mut self, slot: usize, col: usize) {
        let slot = &mut self.slots[slot];
        if slot.col == col {
            return;
        }
        slot.col = col;
        for sub in self.subs.iter_mut().filter(|s| s.class == slot.class) {
            let old = std::mem::replace(&mut sub.sel[slot.local], col);
            if sub.col(old) != sub.col(col) {
                sub.total = None;
            }
        }
    }

    /// The exact Eqn. 2 error score of the current configuration: the sum
    /// of per-subproblem max-weight totals, re-solving only the subproblems
    /// whose columns moved since the last score.
    pub fn solve_errors(&mut self) -> u64 {
        let dp = &mut self.dp;
        self.subs
            .iter_mut()
            .map(|sub| match sub.total {
                Some(total) => total,
                None => *sub.total.insert(sub.solve(dp)),
            })
            .sum()
    }
}

/// One locked slot: its best live op.
fn max_column(x: &[u64]) -> u64 {
    x.iter().copied().max().unwrap_or(0)
}

/// Two locked slots with columns `x` and `y`: the best pair of distinct
/// ops, or the better single edge when only one op is live. Exact because
/// weights are non-negative, so with two or more ops both slots can always
/// be matched without losing weight.
fn best_pair(x: &[u64], y: &[u64]) -> u64 {
    if x.len() == 1 {
        return x[0].max(y[0]);
    }
    let mut best = 0;
    for (i, &xi) in x.iter().enumerate() {
        for (j, &yj) in y.iter().enumerate() {
            if i != j {
                best = best.max(xi + yj);
            }
        }
    }
    best
}

/// Max-weight partial matching of `rows` rows against the slots of `sel`,
/// where slot `s` reads column `sel[s]` of the table `cols`, so row `r`'s
/// weight on it is `cols[sel[s] * rows + r]`: a DP over subsets of slots
/// taking the rows one at a time, each row taking at most one slot. After
/// row `r`, `dp[S]` is the best total of rows `0..=r` using only slots in
/// `S`. `dp` needs at least `2^sel.len()` entries.
fn best_partial_matching(cols: &[u64], sel: &[usize], rows: usize, dp: &mut [u64]) -> u64 {
    let full = (1usize << sel.len()) - 1;
    let dp = &mut dp[..=full];
    dp.fill(0);
    for r in 0..rows {
        // Descending: every `mask ^ bit` is smaller than `mask`, so it
        // still holds the value before row `r`.
        for mask in (1..=full).rev() {
            let mut best = dp[mask];
            let mut bits = mask;
            while bits != 0 {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best = best.max(dp[mask ^ (1 << s)] + cols[sel[s] * rows + r]);
            }
            dp[mask] = best;
        }
    }
    dp[full]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_obfuscation_aware, combinations, expected_application_errors, LockingSpec};
    use lockbind_hls::schedule_list;
    use lockbind_matching::{max_weight_matching, WeightMatrix};
    use lockbind_mediabench::Kernel;
    use proptest::prelude::*;

    fn setup(kernel: Kernel) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        setup_class(kernel, FuClass::Adder)
    }

    /// A kernel scheduled on 3 + 3 FUs, with the top 6 candidates of `class`.
    fn setup_class(
        kernel: Kernel,
        class: FuClass,
    ) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        let b = kernel.benchmark(100, 17);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let class_ops = b.dfg.ops_of_class(class);
        let candidates = profile.top_candidates_among(&class_ops, 6);
        (b.dfg, sched, alloc, profile, candidates)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Walks a random sequence of slot loads and clears (partially
        /// locked states included) with 1–3 locked adders or multipliers
        /// and 1–3 inputs per FU on any suite kernel, checking the sweep
        /// against a cold bind after every step. One, two and three locked
        /// slots reach both closed forms and the DP.
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
            let (dfg, sched, alloc, profile, candidates) =
                setup_class(Kernel::ALL[kernel], class);
            prop_assume!(candidates.len() >= per_fu);
            let fus: Vec<FuId> = (0..locked)
                .map(|i| FuId::new(class, (first + i) % 3))
                .collect();
            let combos = combinations(candidates.len(), per_fu);
            let mut sweep =
                ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
                    .expect("builds");
            let mut assign: Vec<Option<usize>> = vec![None; fus.len()];
            for (step, &(slot, pick, op)) in steps.iter().enumerate() {
                let slot = slot % fus.len();
                if op == 0 {
                    sweep.clear_slot(slot);
                    assign[slot] = None;
                } else {
                    let ci = pick % combos.len();
                    sweep.set_slot(slot, ci);
                    assign[slot] = Some(ci);
                }
                let fast = sweep.solve_errors();
                let slow = legacy_score(
                    &dfg, &sched, &alloc, &profile, &fus, &combos, &candidates, &assign,
                );
                prop_assert_eq!(fast, slow, "step {}: assign {:?}", step, assign);
            }
        }

        /// The kernel against the cold Hungarian solver: on a random
        /// non-negative matrix whose unlocked columns are all-zero, the
        /// partial matching of the locked columns against the live rows
        /// (rows with a non-zero locked weight) has the full optimum.
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
            let mut w = Vec::new();
            for &c in &locked {
                w.extend(live.iter().map(|&r| weight(r, c)));
            }
            let identity: Vec<usize> = (0..locked.len()).collect();
            let mut dp = vec![0; 1 << locked.len()];
            let total = best_partial_matching(&w, &identity, live.len(), &mut dp);
            prop_assert_eq!(total as i64, cold.total);
        }

        /// The closed forms against the DP: on random non-negative
        /// columns over 1–5 live rows (single-row and all-zero columns
        /// included), one- and two-slot optima equal
        /// `best_partial_matching`.
        #[test]
        fn closed_forms_equal_the_dp(
            rows in 1usize..=5,
            zero in 0u32..4,
            cells in proptest::collection::vec((0u32..3, 0u64..1000), 10),
        ) {
            // `zero` blanks column x (1), column y (2) or both (3); a
            // `sel` of 0 blanks one entry.
            let entry = |c: usize, r: usize| {
                let (sel, w) = cells[c * 5 + r];
                if zero >> c & 1 == 1 || sel == 0 { 0 } else { w }
            };
            let x: Vec<u64> = (0..rows).map(|r| entry(0, r)).collect();
            let y: Vec<u64> = (0..rows).map(|r| entry(1, r)).collect();
            let xy: Vec<u64> = x.iter().chain(&y).copied().collect();
            let mut dp = vec![0; 4];
            prop_assert_eq!(max_column(&x), best_partial_matching(&xy, &[0], rows, &mut dp));
            prop_assert_eq!(best_pair(&x, &y), best_partial_matching(&xy, &[0, 1], rows, &mut dp));
        }
    }

    #[test]
    fn rejects_invalid_locked_fus() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let combos = combinations(candidates.len(), 1);
        let bad = [FuId::new(FuClass::Adder, 9)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &alloc, &profile, &bad, &candidates, &combos),
            Err(CoreError::UnknownFu { .. })
        ));
        let dup = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &alloc, &profile, &dup, &candidates, &combos),
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
    }
}
