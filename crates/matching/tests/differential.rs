//! Differential matching oracle suite: the cold Hungarian solver
//! cross-checked against brute-force enumeration on random weight matrices
//! — rectangular shapes, forbidden-entry patterns, negative and
//! near-`MAX_WEIGHT` extreme weights, degenerate all-tied instances — with
//! the LP dual certificate of every solve re-verified. This is the harness
//! that keeps `bind_obfuscation_aware` and its LB04xx certificates pinned
//! to the exact Eqn. 3 / Thm. 2 optimum: the certified matching may never
//! differ from brute force by a single unit of weight, and its duals must
//! verify clean on every instance.
//!
//! CI runs this file with `PROPTEST_CASES=512`; the local default is 256
//! cases per property (the acceptance floor for this suite).

use lockbind_matching::{
    brute_force, max_weight_matching_certified, min_cost_matching_certified,
    verify_dual_certificate, MatchingError, WeightMatrix,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const EXTREME: i64 = WeightMatrix::MAX_WEIGHT;

/// One random instance: shape, weights, forbidden pattern.
#[derive(Debug, Clone)]
struct Instance {
    rows: usize,
    cols: usize,
    /// Row-major; `None` = forbidden.
    cells: Vec<Option<i64>>,
}

impl Instance {
    fn matrix(&self) -> WeightMatrix {
        WeightMatrix::from_fn(self.rows, self.cols, |r, c| self.cells[r * self.cols + c])
    }
}

/// Weight strategy spanning the regimes the suite must cover: small values
/// with many degenerate ties, mid-range negatives, and near-`MAX_WEIGHT`
/// extremes (the vendored proptest has no `prop_oneof!`, so regimes are
/// selected by an explicit discriminant).
fn weight_strategy() -> impl Strategy<Value = i64> + Clone {
    (0u32..8, -3i64..=3, -1000i64..=1000, 0usize..4).prop_map(|(sel, small, mid, ext)| match sel {
        0..=3 => small,
        4..=6 => mid,
        _ => [EXTREME, -EXTREME, EXTREME - 1, -EXTREME + 1][ext],
    })
}

/// `Some(weight)` most of the time, `None` (forbidden) with weight 1/8.
fn cell_strategy() -> impl Strategy<Value = Option<i64>> + Clone {
    (0u32..8, weight_strategy()).prop_map(|(sel, w)| if sel == 0 { None } else { Some(w) })
}

/// Random solvable shape (`rows <= cols`), including empty matrices.
fn instance_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Instance> {
    (0..=max_rows)
        .prop_flat_map(move |rows| (Just(rows), rows.max(1)..=max_cols))
        .prop_flat_map(|(rows, cols)| {
            proptest::collection::vec(cell_strategy(), rows * cols)
                .prop_map(move |cells| Instance { rows, cols, cells })
        })
}

/// Solves `weights` with the certified cold solver and brute force, and
/// cross-checks totals, matching validity and the certificate. Returns the
/// agreed optimum (or `None` when both agree the instance is infeasible).
fn check_all_solvers(weights: &WeightMatrix, maximize: bool) -> Result<Option<i64>, TestCaseError> {
    let cold = if maximize {
        max_weight_matching_certified(weights)
    } else {
        min_cost_matching_certified(weights)
    };
    let brute = brute_force(weights, maximize);

    match (&cold, &brute) {
        (Ok(c), Ok(b)) => {
            prop_assert_eq!(c.matching.total, b.total, "cold vs brute total");
            // The matching must be a valid injection over allowed edges
            // whose weights really sum to `total`.
            let mut used = vec![false; weights.cols()];
            let mut sum = 0i64;
            for (r, &col) in c.matching.row_to_col.iter().enumerate() {
                prop_assert!(col < weights.cols(), "column {} out of range", col);
                prop_assert!(!used[col], "column {} reused", col);
                used[col] = true;
                let cell = weights.get(r, col);
                prop_assert!(cell.is_some(), "matched forbidden cell ({}, {})", r, col);
                sum += cell.unwrap_or(0);
            }
            prop_assert_eq!(sum, c.matching.total, "total must equal edge sum");
            // The duals must verify as an optimality certificate.
            let verdict = verify_dual_certificate(weights, &c.matching, &c.certificate);
            prop_assert!(verdict.is_ok(), "certificate rejected: {:?}", verdict);
            Ok(Some(c.matching.total))
        }
        (Err(MatchingError::Infeasible), Err(MatchingError::Infeasible)) => Ok(None),
        _ => {
            prop_assert!(
                false,
                "solver disagreement: cold={:?} brute={:?}",
                cold.as_ref().map(|s| s.matching.total),
                brute.as_ref().map(|m| m.total)
            );
            Ok(None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Agreement on every random instance (both objectives), certificates
    /// included.
    #[test]
    fn fresh_state_matches_cold_and_brute(inst in instance_strategy(5, 7), maximize in proptest::bool::ANY) {
        check_all_solvers(&inst.matrix(), maximize)?;
    }

    /// Degenerate ties: constant matrices make every matching optimal and
    /// every dual step a tie-break. The solvers must agree on the total and
    /// produce verifying certificates, also after one column is perturbed.
    #[test]
    fn all_tied_instances_stay_consistent(
        rows in 1usize..=4,
        extra in 0usize..=3,
        value in -5i64..=5,
        col in 0usize..=6,
        bump in weight_strategy(),
    ) {
        let cols = rows + extra;
        let mut w = WeightMatrix::from_fn(rows, cols, |_, _| Some(value));
        check_all_solvers(&w, true)?;
        for r in 0..rows {
            w.set(r, col % cols, bump);
        }
        check_all_solvers(&w, true)?;
    }

    /// Extreme weights near ±MAX_WEIGHT: potentials must not overflow or
    /// mis-compare even when the forbidden sentinel dwarfs the real
    /// entries.
    #[test]
    fn extreme_weights_stay_exact(
        signs in proptest::collection::vec(proptest::bool::ANY, 9),
        forbid_at in 0usize..9,
    ) {
        let mut w = WeightMatrix::from_fn(3, 3, |r, c| {
            let idx = r * 3 + c;
            if idx == forbid_at {
                None
            } else {
                Some(if signs[idx] { EXTREME } else { -EXTREME })
            }
        });
        check_all_solvers(&w, true)?;
        // Flip the forbidden cell back to an extreme value and re-check.
        w.set(forbid_at / 3, forbid_at % 3, EXTREME);
        check_all_solvers(&w, true)?;
    }
}
