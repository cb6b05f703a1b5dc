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
//! * per *live* `(cycle, class)` subproblem, a weight table over the
//!   class's locked slots × the cycle's live ops only — unlocked FUs'
//!   columns are identically zero and never stored;
//! * per `(op, candidate)` pair, a packed occurrence row
//!   (counts + occupancy bitset) so an Eqn. 3 weight `w(op, combo)` is a
//!   word-parallel masked walk over the combo's candidate bitmask instead of
//!   `|combo|` hash-map probes;
//! * a cached per-subproblem optimum, so scoring a configuration only
//!   re-solves the subproblems whose weights actually moved.
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

use lockbind_hls::{Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, OpId, Schedule};
use lockbind_matching::MatchingError;

use crate::CoreError;

/// One packed candidate-occurrence row: for one op, `counts[k]` is
/// `K[candidates[k], op]` and `occ` has bit `k` set iff that count is
/// non-zero.
struct CandRow {
    counts: Vec<u64>,
    occ: Vec<u64>,
}

impl CandRow {
    /// The op's packed row, or `None` when it never sees any candidate (its
    /// weight is 0 under every combination).
    fn live(
        profile: &OccurrenceProfile,
        op: OpId,
        candidates: &[Minterm],
        words: usize,
    ) -> Option<CandRow> {
        let counts: Vec<u64> = candidates.iter().map(|&c| profile.count(op, c)).collect();
        let mut occ = vec![0u64; words];
        for (i, &ct) in counts.iter().enumerate() {
            if ct > 0 {
                occ[i / 64] |= 1 << (i % 64);
            }
        }
        occ.iter()
            .any(|&o| o != 0)
            .then_some(CandRow { counts, occ })
    }

    /// Eqn. 3 weight of this op against a combination bitmask: the sum of
    /// occurrence counts over `mask ∩ occ`, word-parallel with an instant
    /// zero when the intersection is empty.
    fn weight(&self, mask: &[u64]) -> u64 {
        let mut sum = 0u64;
        for (w, (&m, &o)) in mask.iter().zip(&self.occ).enumerate() {
            let mut bits = m & o;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                sum += self.counts[w * 64 + k];
                bits &= bits - 1;
            }
        }
        sum
    }
}

/// One live `(cycle, class)` subproblem: the class has a locked slot and
/// the cycle has at least one live op of the class.
struct Sub {
    class: FuClass,
    /// Number of locked slots of `class`.
    locked: usize,
    /// Packed candidate rows of the live ops.
    rows: Vec<CandRow>,
    /// `weights[s * rows.len() + r]`: Eqn. 3 weight of live row `r` on the
    /// class's `s`-th locked slot (0 while the slot is unlocked).
    weights: Vec<u64>,
    /// The subproblem's optimal total under the current weights, if solved.
    total: Option<u64>,
}

/// One locked-FU slot of the sweep.
struct Slot {
    class: FuClass,
    /// Position among the locked slots of `class`.
    local: usize,
    /// Index into the combination list currently loaded, `None` = unlocked
    /// (all-zero weights, matching the heuristic's "later FUs unlocked").
    current: Option<usize>,
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
/// Each subproblem is solved by a DP over subsets of its class's `L`
/// locked slots in `O(R · L · 2^L)` for `R` live ops. `L` is small
/// wherever a sweep runs: every caller enumerates `C(n, m)^L`
/// configurations, and the grid locks 1–3 FUs per class.
pub struct ErrorSweep {
    subs: Vec<Sub>,
    slots: Vec<Slot>,
    /// Per combination index, the candidate-set bitmask.
    masks: Vec<Vec<u64>>,
    /// DP table reused by every solve, `2^L` entries for the largest `L`.
    dp: Vec<u64>,
}

impl ErrorSweep {
    /// Builds the sweep context: one weight table per live `(cycle, class)`
    /// subproblem, initially all-zero (fully unlocked). `combos` lists
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
    pub fn new(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<Self, CoreError> {
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
                current: None,
            });
        }
        let words = candidates.len().div_ceil(64).max(1);
        let masks: Vec<Vec<u64>> = combos
            .iter()
            .map(|combo| {
                let mut mask = vec![0u64; words];
                for &i in combo {
                    assert!(i < candidates.len(), "combo index {i} out of range");
                    mask[i / 64] |= 1 << (i % 64);
                }
                mask
            })
            .collect();

        let mut subs = Vec::new();
        for t in 0..schedule.num_cycles() {
            for class in FuClass::ALL {
                let ops = schedule.class_ops_in_cycle(dfg, class, t);
                let cols = alloc.count(class);
                if ops.is_empty() {
                    continue;
                }
                if cols == 0 {
                    return Err(MatchingError::NoColumns.into());
                }
                if ops.len() > cols {
                    return Err(MatchingError::MoreRowsThanCols {
                        rows: ops.len(),
                        cols,
                    }
                    .into());
                }
                let locked = locked_fus.iter().filter(|fu| fu.class == class).count();
                if locked == 0 {
                    continue;
                }
                let rows: Vec<CandRow> = ops
                    .iter()
                    .filter_map(|&op| CandRow::live(profile, op, candidates, words))
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                subs.push(Sub {
                    class,
                    locked,
                    weights: vec![0; locked * rows.len()],
                    rows,
                    // The all-zero table's optimum is 0 — no solve needed
                    // until a weight moves.
                    total: Some(0),
                });
            }
        }
        let max_locked = subs.iter().map(|s| s.locked).max().unwrap_or(0);
        Ok(ErrorSweep {
            subs,
            slots,
            masks,
            dp: vec![0; 1 << max_locked],
        })
    }

    /// Number of locked-FU slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Loads combination `combo` into slot `slot`, rewriting that slot's
    /// weights in every subproblem of its FU's class. A no-op when the slot
    /// already holds `combo`; a subproblem's cached optimum survives when
    /// none of its weights changed value.
    ///
    /// # Panics
    /// Panics on out-of-range `slot` or `combo`.
    pub fn set_slot(&mut self, slot: usize, combo: usize) {
        assert!(combo < self.masks.len(), "combo {combo} out of range");
        let slot = &mut self.slots[slot];
        if slot.current == Some(combo) {
            return;
        }
        slot.current = Some(combo);
        let mask = &self.masks[combo];
        load_slot(&mut self.subs, slot.class, slot.local, |row| {
            row.weight(mask)
        });
    }

    /// Unlocks slot `slot` (all-zero weights), the heuristic's "not yet
    /// fixed" state. A no-op when already unlocked.
    ///
    /// # Panics
    /// Panics on out-of-range `slot`.
    pub fn clear_slot(&mut self, slot: usize) {
        let slot = &mut self.slots[slot];
        if slot.current.take().is_some() {
            load_slot(&mut self.subs, slot.class, slot.local, |_| 0);
        }
    }

    /// The exact Eqn. 2 error score of the current configuration: the sum
    /// of per-subproblem max-weight totals, re-solving only the subproblems
    /// whose weights moved since the last score.
    pub fn solve_errors(&mut self) -> u64 {
        let dp = &mut self.dp;
        self.subs
            .iter_mut()
            .map(|sub| {
                *sub.total.get_or_insert_with(|| {
                    best_partial_matching(&sub.weights, sub.rows.len(), sub.locked, dp)
                })
            })
            .sum()
    }
}

/// Rewrites the `local`-th locked slot's weights in every subproblem of
/// `class`, dropping a subproblem's cached optimum only when a value moved.
fn load_slot(subs: &mut [Sub], class: FuClass, local: usize, weight: impl Fn(&CandRow) -> u64) {
    for sub in subs.iter_mut().filter(|s| s.class == class) {
        let n = sub.rows.len();
        for (w, row) in sub.weights[local * n..(local + 1) * n]
            .iter_mut()
            .zip(&sub.rows)
        {
            let new = weight(row);
            if *w != new {
                *w = new;
                sub.total = None;
            }
        }
    }
}

/// Max-weight partial matching of `rows` rows against `slots` slots, where
/// `w[s * rows + r]` is row `r`'s weight on slot `s`: a DP over subsets of
/// slots taking the rows one at a time, each row taking at most one slot.
/// After row `r`, `dp[S]` is the best total of rows `0..=r` using only
/// slots in `S`. `dp` needs at least `2^slots` entries.
fn best_partial_matching(w: &[u64], rows: usize, slots: usize, dp: &mut [u64]) -> u64 {
    let full = (1usize << slots) - 1;
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
                best = best.max(dp[mask ^ (1 << s)] + w[s * rows + r]);
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
        let b = kernel.benchmark(100, 17);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&adder_ops, 6);
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
        /// locked states included) with 1–3 locked adders on any suite
        /// kernel, checking the sweep against a cold bind after every step.
        #[test]
        fn sweep_score_equals_legacy_bind_score(
            kernel in 0usize..11,
            locked in 1usize..=3,
            first in 0usize..3,
            per_fu in 1usize..=2,
            steps in proptest::collection::vec((0usize..3, 0usize..64, 0u32..8), 1..24),
        ) {
            let (dfg, sched, alloc, profile, candidates) = setup(Kernel::ALL[kernel]);
            prop_assume!(candidates.len() >= per_fu);
            let fus: Vec<FuId> = (0..locked)
                .map(|i| FuId::new(FuClass::Adder, (first + i) % 3))
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
            let mut dp = vec![0; 1 << locked.len()];
            let total = best_partial_matching(&w, live.len(), locked.len(), &mut dp);
            prop_assert_eq!(total as i64, cold.total);
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
