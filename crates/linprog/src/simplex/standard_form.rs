//! The equality standard form the engine solves, and the flat sparse
//! columns it and a carried basis store their matrices in.

/// Sparse columns stored flat: column `j` is
/// `entries[ptr[j]..ptr[j + 1]]`, `(row, coeff)` pairs with rows strictly
/// increasing and no zeros, so two columns are the same column exactly when
/// their slices are equal.
#[derive(Clone, Default)]
pub(crate) struct SparseCols {
    /// Column starts; one more entry than there are columns (empty = none).
    pub ptr: Vec<usize>,
    /// Every column's nonzeros back to back.
    pub entries: Vec<(usize, f64)>,
}

impl SparseCols {
    pub fn len(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    pub fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.ptr[j]..self.ptr[j + 1]]
    }

    /// Machine words of heap behind the columns.
    pub(super) fn heap_words(&self) -> usize {
        self.ptr.len() + 2 * self.entries.len()
    }

    /// Appends a column (rows strictly increasing, coefficients nonzero).
    pub(super) fn push_col(&mut self, col: impl Iterator<Item = (usize, f64)>) {
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        self.entries.extend(col);
        self.ptr.push(self.entries.len());
    }
}

/// Equality standard form `min c·x  s.t.  A x = b (b >= 0), 0 <= x <= u`
/// with sparse columns. Produced by [`crate::Problem::to_standard_form`].
pub(crate) struct StandardForm {
    /// Number of structural (caller-visible) variables; the rest are slacks.
    pub num_structural: usize,
    /// The columns of `A`, structural then slack.
    pub cols: SparseCols,
    /// Right-hand side, all entries non-negative.
    pub b: Vec<f64>,
    /// Objective (one per column, slacks carry 0).
    pub c: Vec<f64>,
    /// Upper bounds per column (`f64::INFINITY` when absent).
    pub upper: Vec<f64>,
    /// Rows that were multiplied by -1 to make `b` non-negative.
    pub negated: Vec<bool>,
}

impl StandardForm {
    /// Columns, structural and slack.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// The nonzeros of column `j`.
    pub fn col(&self, j: usize) -> &[(usize, f64)] {
        self.cols.col(j)
    }

    /// Column `j` in the row signs of the problem *as posed* (negated rows
    /// negated back; multiplying by ±1 is exact).
    pub(super) fn posed_col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col(j).iter().map(|&(r, v)| (r, if self.negated[r] { -v } else { v }))
    }
}
