use std::fmt;

/// A dense rectangular weight matrix for the assignment problem.
///
/// Rows conventionally index the items that *must* be matched (operations in a
/// clock cycle), columns index the resources (functional units). Edges may be
/// marked *forbidden*, in which case the solvers will never select them.
///
/// Weights are `i64`; the solvers guard against overflow by requiring
/// `|weight| <= WeightMatrix::MAX_WEIGHT`.
#[derive(Clone, PartialEq, Eq)]
pub struct WeightMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
    forbidden: Vec<bool>,
}

impl WeightMatrix {
    /// Largest admissible absolute weight (`2^42`). Chosen so that the
    /// solver's internal potentials — which scale with `weight x rows` plus a
    /// forbidden-edge sentinel of the same magnitude — cannot overflow `i64`
    /// for any matrix with fewer than a million rows.
    pub const MAX_WEIGHT: i64 = 1 << 42;

    /// Creates a `rows x cols` matrix with every weight zero and every edge
    /// allowed.
    ///
    /// # Example
    /// ```
    /// use lockbind_matching::WeightMatrix;
    /// let w = WeightMatrix::zero(2, 3);
    /// assert_eq!((w.rows(), w.cols()), (2, 3));
    /// assert_eq!(w.get(1, 2), Some(0));
    /// ```
    pub fn zero(rows: usize, cols: usize) -> Self {
        WeightMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
            forbidden: vec![false; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every cell. Returning
    /// `None` forbids the edge.
    ///
    /// # Example
    /// ```
    /// use lockbind_matching::WeightMatrix;
    /// let w = WeightMatrix::from_fn(2, 2, |r, c| Some((r * 10 + c) as i64));
    /// assert_eq!(w.get(1, 0), Some(10));
    /// ```
    pub fn from_fn<F>(rows: usize, cols: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> Option<i64>,
    {
        let mut m = WeightMatrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                match f(r, c) {
                    Some(w) => m.set(r, c, w),
                    None => m.forbid(r, c),
                }
            }
        }
        m
    }

    /// Number of rows (items to match).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (resources).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets the weight of edge `(row, col)` and re-allows it if it was
    /// forbidden.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds or `|weight|` exceeds
    /// [`WeightMatrix::MAX_WEIGHT`].
    pub fn set(&mut self, row: usize, col: usize, weight: i64) {
        assert!(
            weight.abs() <= Self::MAX_WEIGHT,
            "weight {weight} exceeds WeightMatrix::MAX_WEIGHT"
        );
        let idx = self.index(row, col);
        self.data[idx] = weight;
        self.forbidden[idx] = false;
    }

    /// Marks edge `(row, col)` as forbidden: no matching may use it.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn forbid(&mut self, row: usize, col: usize) {
        let idx = self.index(row, col);
        self.forbidden[idx] = true;
    }

    /// Returns the weight of edge `(row, col)`, or `None` if the edge is
    /// forbidden.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<i64> {
        let idx = self.index(row, col);
        if self.forbidden[idx] {
            None
        } else {
            Some(self.data[idx])
        }
    }

    /// `true` if edge `(row, col)` may be used by a matching.
    pub fn is_allowed(&self, row: usize, col: usize) -> bool {
        !self.forbidden[self.index(row, col)]
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        row * self.cols + col
    }
}

impl fmt::Debug for WeightMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WeightMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                match self.get(r, c) {
                    Some(w) => write!(f, "{w:>6} ")?,
                    None => write!(f, "     x ")?,
                }
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// The result of a complete matching of all rows into distinct columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `row_to_col[r]` is the column assigned to row `r`.
    pub row_to_col: Vec<usize>,
    /// Sum of the selected edge weights.
    pub total: i64,
}

impl Matching {
    /// Inverse view: `col_to_row()[c]` is `Some(r)` if row `r` was assigned to
    /// column `c`.
    ///
    /// # Panics
    /// Panics if any assigned column is `>= cols` or if two rows claim the
    /// same column — either means the matching does not belong to a
    /// `cols`-wide instance, and a silent wrap or overwrite here would
    /// corrupt every consumer that indexes column state through this view.
    ///
    /// # Example
    /// ```
    /// use lockbind_matching::Matching;
    /// let m = Matching { row_to_col: vec![2, 0], total: 7 };
    /// assert_eq!(m.col_to_row(3), vec![Some(1), None, Some(0)]);
    /// ```
    pub fn col_to_row(&self, cols: usize) -> Vec<Option<usize>> {
        let mut inv = vec![None; cols];
        for (r, &c) in self.row_to_col.iter().enumerate() {
            assert!(
                c < cols,
                "matching assigns row {r} to column {c}, out of range for {cols} columns"
            );
            assert!(
                inv[c].is_none(),
                "matching assigns column {c} to two rows ({} and {r})",
                inv[c].unwrap_or(0)
            );
            inv[c] = Some(r);
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matrix_has_zero_weights() {
        let w = WeightMatrix::zero(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(w.get(r, c), Some(0));
            }
        }
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut w = WeightMatrix::zero(2, 2);
        w.set(0, 1, -17);
        assert_eq!(w.get(0, 1), Some(-17));
        assert_eq!(w.get(1, 0), Some(0));
    }

    #[test]
    fn forbid_hides_weight_until_reset() {
        let mut w = WeightMatrix::zero(1, 1);
        w.set(0, 0, 5);
        w.forbid(0, 0);
        assert_eq!(w.get(0, 0), None);
        assert!(!w.is_allowed(0, 0));
        w.set(0, 0, 6);
        assert_eq!(w.get(0, 0), Some(6));
    }

    #[test]
    fn from_fn_builds_expected_cells() {
        let w = WeightMatrix::from_fn(2, 3, |r, c| if r == c { None } else { Some(1) });
        assert_eq!(w.get(0, 0), None);
        assert_eq!(w.get(1, 1), None);
        assert_eq!(w.get(0, 2), Some(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let w = WeightMatrix::zero(1, 1);
        let _ = w.get(1, 0);
    }

    #[test]
    #[should_panic(expected = "MAX_WEIGHT")]
    fn oversized_weight_panics() {
        let mut w = WeightMatrix::zero(1, 1);
        w.set(0, 0, i64::MAX);
    }

    #[test]
    fn col_to_row_inverts() {
        let m = Matching {
            row_to_col: vec![1, 3, 0],
            total: 0,
        };
        assert_eq!(m.col_to_row(4), vec![Some(2), Some(0), None, Some(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn col_to_row_rejects_out_of_range_column() {
        let m = Matching {
            row_to_col: vec![1, 3],
            total: 0,
        };
        let _ = m.col_to_row(2);
    }

    #[test]
    #[should_panic(expected = "two rows")]
    fn col_to_row_rejects_duplicate_columns() {
        let m = Matching {
            row_to_col: vec![1, 1],
            total: 0,
        };
        let _ = m.col_to_row(3);
    }

    #[test]
    fn debug_format_marks_forbidden() {
        let mut w = WeightMatrix::zero(1, 2);
        w.forbid(0, 1);
        let s = format!("{w:?}");
        assert!(s.contains('x'));
    }
}
