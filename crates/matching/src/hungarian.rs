//! Hungarian algorithm (shortest augmenting paths with potentials).
//!
//! The implementation follows the classic `O(n^2 m)` potential-based
//! formulation: rows are introduced one at a time and an augmenting path of
//! minimum reduced cost is grown Dijkstra-style over the columns. Forbidden
//! edges are modelled as a large-but-finite cost so that infeasibility can be
//! detected exactly afterwards.

use lockbind_obs as obs;

use crate::certificate::{CertifiedMatching, DualCertificate};
use crate::{Matching, MatchingError, WeightMatrix};

/// Finds a complete matching of rows into columns with **minimum** total
/// weight.
///
/// # Errors
///
/// * [`MatchingError::MoreRowsThanCols`] if `rows > cols`,
/// * [`MatchingError::NoColumns`] if the matrix has rows but no columns,
/// * [`MatchingError::Infeasible`] if forbidden edges rule out every complete
///   matching.
///
/// # Example
/// ```
/// use lockbind_matching::{WeightMatrix, min_cost_matching};
/// # fn main() -> Result<(), lockbind_matching::MatchingError> {
/// let w = WeightMatrix::from_fn(2, 2, |r, c| Some(if r == c { 1 } else { 10 }));
/// let m = min_cost_matching(&w)?;
/// assert_eq!(m.total, 2);
/// # Ok(())
/// # }
/// ```
pub fn min_cost_matching(weights: &WeightMatrix) -> Result<Matching, MatchingError> {
    solve(weights, false).map(|(m, _)| m)
}

/// Finds a complete matching of rows into columns with **maximum** total
/// weight (the max-weight bipartite matching of Sec. IV-B of the paper).
///
/// # Errors
///
/// Same conditions as [`min_cost_matching`].
pub fn max_weight_matching(weights: &WeightMatrix) -> Result<Matching, MatchingError> {
    solve(weights, true).map(|(m, _)| m)
}

/// Like [`max_weight_matching`], but also returns the solver's final dual
/// potentials as a [`DualCertificate`] proving the assignment optimal
/// (verifiable offline with
/// [`verify_dual_certificate`](crate::verify_dual_certificate) — dual
/// feasibility plus a zero duality gap, no re-solve required).
///
/// # Errors
///
/// Same conditions as [`min_cost_matching`].
pub fn max_weight_matching_certified(
    weights: &WeightMatrix,
) -> Result<CertifiedMatching, MatchingError> {
    certified(weights, true)
}

/// Like [`min_cost_matching`], but also returns a [`DualCertificate`].
///
/// # Errors
///
/// Same conditions as [`min_cost_matching`].
pub fn min_cost_matching_certified(
    weights: &WeightMatrix,
) -> Result<CertifiedMatching, MatchingError> {
    certified(weights, false)
}

fn certified(weights: &WeightMatrix, maximize: bool) -> Result<CertifiedMatching, MatchingError> {
    obs::counter!("matching.certificates").inc();
    let (matching, certificate) = solve(weights, maximize)?;
    Ok(CertifiedMatching {
        matching,
        certificate,
    })
}

/// The finite cost the solver substitutes for forbidden edges: strictly
/// dominates any matching made of allowed edges, scaled to the instance so
/// potentials never overflow. A pure function of the matrix, so certificate
/// verification reproduces it exactly.
pub(crate) fn dominating_forbidden_cost(weights: &WeightMatrix) -> i64 {
    let n = weights.rows();
    let m = weights.cols();
    let max_abs = (0..n)
        .flat_map(|r| (0..m).filter_map(move |c| weights.get(r, c)))
        .map(i64::abs)
        .max()
        .unwrap_or(0);
    // Cannot overflow: max_abs <= 2^42 and n < 2^20 in any sane instance;
    // saturating keeps pathological inputs well-defined (still dominating,
    // still below INF).
    (max_abs + 1).saturating_mul(2 * n as i64 + 2)
}

fn solve(
    weights: &WeightMatrix,
    maximize: bool,
) -> Result<(Matching, DualCertificate), MatchingError> {
    // A few hundred calls per headline sweep (390 at `60 5`), so one
    // span per call stays affordable when tracing is on.
    obs::counter!("matching.solves").inc();
    let _span = obs::span!("matching.solve");
    let n = weights.rows();
    let m = weights.cols();
    if n == 0 {
        return Ok((
            Matching {
                row_to_col: Vec::new(),
                total: 0,
            },
            DualCertificate {
                u: Vec::new(),
                v: vec![0; m],
                maximize,
            },
        ));
    }
    if m == 0 {
        return Err(MatchingError::NoColumns);
    }
    if n > m {
        return Err(MatchingError::MoreRowsThanCols { rows: n, cols: m });
    }

    // Forbidden edges are modelled as a finite cost strictly dominating any
    // matching made of allowed edges: any single forbidden edge costs more
    // than n of the largest allowed edges.
    let forbidden_cost = dominating_forbidden_cost(weights);

    // Reduced cost access: minimization with forbidden edges as huge cost.
    let cost = |r: usize, c: usize| -> i64 {
        match weights.get(r, c) {
            Some(w) => {
                if maximize {
                    -w
                } else {
                    w
                }
            }
            None => forbidden_cost,
        }
    };

    const INF: i64 = i64::MAX / 2;
    // 1-indexed potentials/match arrays per the classic formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; m + 1];
    // p[j] = row (1-indexed) matched to column j; p[0] is the row being placed.
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];

    let mut augment_steps = 0u64;
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            augment_steps += 1;
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            debug_assert!(delta < INF, "augmenting path search stalled");
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    obs::counter!("matching.augment_paths").add(n as u64);
    obs::counter!("matching.augment_steps").add(augment_steps);

    let mut row_to_col = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            row_to_col[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(row_to_col.iter().all(|&c| c != usize::MAX));

    let mut total = 0i64;
    for (r, &c) in row_to_col.iter().enumerate() {
        match weights.get(r, c) {
            Some(w) => total += w,
            None => return Err(MatchingError::Infeasible),
        }
    }
    // The final potentials are the LP dual certificate: `u[1..=n]` and
    // `v[1..=m]` are dual feasible with zero gap against the matching
    // (`u[0]`/`v[0]` belong to the dummy 0-index of the classic
    // formulation and are dropped).
    let certificate = DualCertificate {
        u: u[1..=n].to_vec(),
        v: v[1..=m].to_vec(),
        maximize,
    };
    Ok((Matching { row_to_col, total }, certificate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;

    #[test]
    fn empty_matrix_matches_nothing() {
        let w = WeightMatrix::zero(0, 5);
        let m = max_weight_matching(&w).expect("empty matching");
        assert!(m.row_to_col.is_empty());
        assert_eq!(m.total, 0);
    }

    #[test]
    fn single_cell() {
        let mut w = WeightMatrix::zero(1, 1);
        w.set(0, 0, 42);
        assert_eq!(max_weight_matching(&w).map(|m| m.total), Ok(42));
        assert_eq!(min_cost_matching(&w).map(|m| m.total), Ok(42));
    }

    #[test]
    fn rows_exceed_cols_is_error() {
        let w = WeightMatrix::zero(3, 2);
        assert_eq!(
            max_weight_matching(&w),
            Err(MatchingError::MoreRowsThanCols { rows: 3, cols: 2 })
        );
    }

    #[test]
    fn no_columns_is_error() {
        let w = WeightMatrix::zero(2, 0);
        assert_eq!(max_weight_matching(&w), Err(MatchingError::NoColumns));
    }

    #[test]
    fn paper_fig2_example() {
        // Ops {OPA, OPB}, FUs {FU1(x), FU2(y), FU3(unlocked)}.
        // K: x@OPA=6, x@OPB=4, y@OPA=9, y@OPB=3.
        let mut w = WeightMatrix::zero(2, 3);
        w.set(0, 0, 6);
        w.set(0, 1, 9);
        w.set(1, 0, 4);
        w.set(1, 1, 3);
        let m = max_weight_matching(&w).expect("feasible");
        assert_eq!(m.total, 13);
        assert_eq!(m.row_to_col, vec![1, 0]);
    }

    #[test]
    fn rectangular_prefers_unused_extra_columns() {
        // 2 rows, 4 cols; best columns are 2 and 3.
        let w = WeightMatrix::from_fn(2, 4, |r, c| Some((r as i64 + 1) * c as i64));
        let m = max_weight_matching(&w).expect("feasible");
        // row1 (weight factor 2) should take col 3 (value 6), row0 col 2 (2).
        assert_eq!(m.total, 8);
        assert_eq!(m.row_to_col, vec![2, 3]);
    }

    #[test]
    fn negative_weights_supported() {
        let w = WeightMatrix::from_fn(2, 2, |r, c| Some(-((r + c) as i64)));
        let m = max_weight_matching(&w).expect("feasible");
        // max: pick (0,0)=0 and (1,1)=-2 vs (0,1)=-1,(1,0)=-1 -> -2 both ways.
        assert_eq!(m.total, -2);
    }

    #[test]
    fn forbidden_edges_are_avoided() {
        let mut w = WeightMatrix::from_fn(2, 2, |_, _| Some(10));
        w.forbid(0, 0);
        let m = max_weight_matching(&w).expect("feasible");
        assert_eq!(m.row_to_col, vec![1, 0]);
        assert_eq!(m.total, 20);
    }

    #[test]
    fn infeasible_when_row_fully_forbidden() {
        let w = WeightMatrix::from_fn(2, 2, |r, _| if r == 0 { None } else { Some(1) });
        assert_eq!(max_weight_matching(&w), Err(MatchingError::Infeasible));
    }

    #[test]
    fn infeasible_when_columns_collide() {
        // Both rows may only use column 0.
        let w = WeightMatrix::from_fn(2, 2, |_, c| if c == 0 { Some(1) } else { None });
        assert_eq!(max_weight_matching(&w), Err(MatchingError::Infeasible));
    }

    #[test]
    fn min_and_max_are_consistent_under_negation() {
        let w = WeightMatrix::from_fn(3, 4, |r, c| Some(((r * 7 + c * 13) % 11) as i64));
        let neg = WeightMatrix::from_fn(3, 4, |r, c| w.get(r, c).map(|x| -x));
        let mx = max_weight_matching(&w).expect("feasible").total;
        let mn = min_cost_matching(&neg).expect("feasible").total;
        assert_eq!(mx, -mn);
    }

    #[test]
    fn matches_brute_force_on_fixed_grid() {
        let w = WeightMatrix::from_fn(4, 5, |r, c| Some(((r * 31 + c * 17) % 23) as i64 - 11));
        let h = max_weight_matching(&w).expect("feasible");
        let b = brute_force(&w, true).expect("feasible");
        assert_eq!(h.total, b.total);
    }

    #[test]
    fn assignment_is_a_permutation() {
        let w = WeightMatrix::from_fn(5, 5, |r, c| Some(((r * 3 + c * 5) % 7) as i64));
        let m = max_weight_matching(&w).expect("feasible");
        let mut seen = [false; 5];
        for &c in &m.row_to_col {
            assert!(!seen[c], "column used twice");
            seen[c] = true;
        }
    }
}
