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

/// Equality standard form `min c·x  s.t.  A x = b,  0 <= x <= u` with
/// sparse columns, every row in its sign as posed (`b` may be negative).
/// Produced by [`crate::Problem::to_standard_form`], and grown in place by
/// [`crate::LiveLp::grow`].
#[derive(Default)]
pub(crate) struct StandardForm {
    /// Number of structural (caller-visible) variables; the rest are slacks.
    pub num_structural: usize,
    /// The columns of `A`, structural then slack.
    pub cols: SparseCols,
    /// Right-hand side, as posed.
    pub b: Vec<f64>,
    /// Objective (one per column, slacks carry 0).
    pub c: Vec<f64>,
    /// Upper bounds per column (`f64::INFINITY` when absent).
    pub upper: Vec<f64>,
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
}
