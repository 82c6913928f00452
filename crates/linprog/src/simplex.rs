//! Two-phase revised simplex over the equality standard form, with native
//! variable upper bounds.
//!
//! The basis inverse is kept explicitly, as **sparse columns** (a row whose
//! slack is basic contributes the unit column, and in the path-growth LPs
//! most capacity rows are slack at every vertex visited: the inverse is
//! around 1% nonzero). The three hot operations — pricing vector
//! `y = c_B B⁻¹`, entering column `w = B⁻¹ A_j`, and the eta update after a
//! pivot — read and write its nonzeros only, each sum over the terms the
//! dense matrix would give it, in the same order, minus the ones with a zero
//! factor. Only refactorization (cold fallback, periodic hygiene) works on a
//! dense m×m scratch.
//!
//! Upper bounds are handled the standard way: a nonbasic variable may rest
//! at either bound, entering variables move off whichever bound they sit at,
//! and the ratio test admits three block events (a basic variable hitting
//! zero, a basic variable hitting its own upper bound, or the entering
//! variable flipping straight to its opposite bound without a basis change).
//! This keeps row counts small for problems like the paper's locality
//! redistribution LP, where every aggregate has a cap but only the per-node
//! marginals are genuine rows.

use lowlat_telemetry as telemetry;

use crate::problem::Problem;

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
    fn heap_words(&self) -> usize {
        self.ptr.len() + 2 * self.entries.len()
    }

    /// Appends a column (rows strictly increasing, coefficients nonzero).
    fn push_col(&mut self, col: impl Iterator<Item = (usize, f64)>) {
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        self.entries.extend(col);
        self.ptr.push(self.entries.len());
    }
}

/// An explicit basis inverse held by its nonzeros: one column per row of
/// the problem, each its own `(position, value)` list sorted by position
/// with exact zeros left out — a pivot rewrites the few columns it touches
/// and leaves the rest where they are.
#[derive(Clone, Default)]
struct SparseInverse {
    cols: Vec<Vec<(usize, f64)>>,
}

impl SparseInverse {
    /// The `m` unit columns.
    fn identity(m: usize) -> Self {
        SparseInverse { cols: (0..m).map(|k| vec![(k, 1.0)]).collect() }
    }

    /// Columns, i.e. rows of the problem inverted; 0 = no inverse held.
    fn len(&self) -> usize {
        self.cols.len()
    }

    /// Entry `(row, k)`; zero where column `k` stores nothing.
    fn get(&self, row: usize, k: usize) -> f64 {
        let col = &self.cols[k];
        col.binary_search_by_key(&row, |&(i, _)| i).map_or(0.0, |at| col[at].1)
    }

    fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Machine words of heap behind the columns, their headers included.
    fn heap_words(&self) -> usize {
        3 * self.cols.len() + 2 * self.nnz()
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
    fn posed_col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col(j).iter().map(|&(r, v)| (r, if self.negated[r] { -v } else { v }))
    }
}

/// Why the solver gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective can decrease without bound.
    Unbounded,
    /// The pivot cap (`20_000 + 100 * (rows + cols)`) was hit.
    IterationLimit,
    /// The basis became numerically singular even after refactorization.
    Numerical,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::IterationLimit => write!(f, "iteration limit exceeded"),
            LpError::Numerical => write!(f, "numerical failure"),
        }
    }
}

impl std::error::Error for LpError {}

/// Solver tuning. Every solve outside this crate's tests runs the defaults.
#[derive(Clone, Debug)]
pub(crate) struct SolverOptions {
    /// Hard pivot cap; `0` selects `20_000 + 100 * (rows + cols)`.
    pub(crate) max_iterations: usize,
    /// Base tolerance for reduced costs and pivot magnitudes.
    pub(crate) tol: f64,
    /// Refactorize the basis inverse every this many pivots of one solve;
    /// a warm restart audits a carried inverse numerically once it has
    /// taken this many eta updates across solves.
    pub(crate) refactor_every: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { max_iterations: 0, tol: 1e-9, refactor_every: 2048 }
    }
}

/// A reusable simplex basis — the warm-start handle.
///
/// [`crate::Problem::solve_warm`] reads the previous optimum's basis out of
/// this handle, re-optimizes from it, and writes the new optimal basis back.
/// A fresh (or [`Basis::clear`]ed) handle makes the solve cold. The handle
/// is deliberately forgiving: a basis whose shape does not match the
/// problem, or that turns out singular or infeasible under the new data,
/// silently degrades to a cold solve — staleness can cost time, never
/// correctness.
///
/// Besides the labels (which column is basic in which row, which rest at
/// their upper bound) the handle carries the basis *inverse* — explicit,
/// stored as sparse columns, so the handle's size follows the inverse's
/// nonzeros rather than the square of the row count — together with the
/// sparse columns of the matrix that inverse inverts. A restart
/// compares each basic column of the new problem with the stored one —
/// exactly, in O(nonzeros) — and spends an eta update only on the positions
/// that differ, so a re-solve whose constraint matrix did not change (new
/// right-hand sides, new objective: the deployment cycle's common case)
/// re-multiplies nothing and reads the inverse once, for the basic values.
/// While a solve runs the inverse lives in the solver, not here: a solve
/// that fails ([`LpError`]) leaves the labels behind without it, and the
/// next restart from them refactorizes.
#[derive(Clone, Default)]
pub struct Basis {
    /// Basic column per row, in standard-form column space (structural
    /// variables first, then slacks). Empty = no basis stored.
    basic: Vec<usize>,
    /// Nonbasic standard-form columns resting at their upper bound.
    at_upper: Vec<usize>,
    /// `(rows, standard-form columns)` of the problem that produced this
    /// basis; reuse requires an exact match.
    shape: (usize, usize),
    /// Row of each slack column, in column order — what lets
    /// [`Basis::relabel`] renumber slacks when rows are spliced in.
    slack_rows: Vec<usize>,
    carried: Carried,
}

/// The inverse a [`Basis`] carries so a restart skips the O(m³)
/// refactorization, with what a restart needs to trust it. Everything is
/// in the row signs of the problem *as posed* (the standard form's negation
/// of negative-rhs rows undone), so a right-hand side changing sign does
/// not invalidate it.
#[derive(Clone, Default)]
struct Carried {
    /// The inverse, one sparse column per row of the problem; empty when
    /// none is carried (an inverse over [`BINV_CARRY_LIMIT`], or a solve
    /// that did not finish).
    inverse: SparseInverse,
    /// The matrix `inverse` inverts, one column per basis position. At
    /// export these are the basic columns themselves; [`Basis::relabel`]
    /// maps them along with the inverse and puts unit columns in the new
    /// rows.
    cols: SparseCols,
    /// Eta updates `inverse` has taken since it was last factorized or
    /// numerically audited.
    age: usize,
}

/// Most heap bytes of basis inverse a [`Basis`] carries (what 2048 rows of
/// dense f64 would take); an inverse beyond it is dropped and the warm
/// restart refactorizes.
const BINV_CARRY_LIMIT: usize = 32 << 20;

impl std::fmt::Debug for Basis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Basis")
            .field("shape", &self.shape)
            .field("basic", &self.basic)
            .field("at_upper", &self.at_upper)
            .field("carries_binv", &(self.carried.inverse.len() > 0))
            .finish()
    }
}

impl Basis {
    /// A fresh, cold handle.
    pub fn new() -> Self {
        Basis::default()
    }

    /// True when a previous solve stored a basis to restart from.
    pub fn is_warm(&self) -> bool {
        !self.basic.is_empty()
    }

    /// Forgets the stored basis; the next `solve_warm` will run cold.
    pub fn clear(&mut self) {
        *self = Basis::default();
    }

    /// Heap bytes this handle holds: the labels, and the nonzeros of the
    /// carried inverse and of the basic columns it inverts.
    pub fn heap_bytes(&self) -> usize {
        let words = self.basic.len()
            + self.at_upper.len()
            + self.slack_rows.len()
            + self.carried.inverse.heap_words()
            + self.carried.cols.heap_words();
        words * std::mem::size_of::<usize>()
    }

    /// Re-labels the stored basis for `grown`, a problem that *extends* the
    /// one it was exported from — the column-generation case: every old
    /// column and row survives with its coefficients (an old column may
    /// gain entries in new rows), and new columns and rows are spliced in
    /// anywhere. `columns[old] = new` for each old structural column,
    /// `rows[old] = new` for each old row; slacks follow their rows. Every
    /// row `grown` adds needs a basic column of its own: `enter` lists, in
    /// increasing order of the new rows, the new structural column that
    /// becomes basic in it, or `None` for the row's own slack. All other new
    /// columns are nonbasic at zero, so the extended vertex is the old
    /// optimum wherever the caller's entering columns reproduce it.
    ///
    /// The carried inverse is extended block-diagonally (old inverse
    /// permuted, identity on the new rows — its nonzeros renumbered, nothing
    /// of the new size squared built) and the columns stored with it
    /// follow: old ones through `rows`, a unit column per new row. The
    /// restart completes it against `grown`'s real coefficients — one eta
    /// update per basic column that is not the stored one (an old column
    /// with entries in new rows, an entering column that is not a bare
    /// `+1`) — and falls back to refactorization, then to a cold solve,
    /// when that fails. Nothing of the inverse is touched when `rows` is the
    /// identity (columns were added, no rows).
    ///
    /// Returns `false` (and clears the basis) when the stored basis does
    /// not have the shape the maps describe or the maps are inconsistent —
    /// the caller simply loses the warm start, never correctness.
    pub fn relabel(
        &mut self,
        grown: &Problem,
        columns: &[usize],
        rows: &[usize],
        enter: &[Option<usize>],
    ) -> bool {
        let relabelled = self.try_relabel(grown, columns, rows, enter).is_some();
        if !relabelled {
            self.clear();
        }
        relabelled
    }

    fn try_relabel(
        &mut self,
        grown: &Problem,
        columns: &[usize],
        rows: &[usize],
        enter: &[Option<usize>],
    ) -> Option<()> {
        let (m, n) = self.shape;
        let (new_m, new_structural) = (grown.num_rows(), grown.num_vars());
        if !self.is_warm()
            || columns.len() + self.slack_rows.len() != n
            || rows.len() != m
            || enter.len() + m != new_m
            || rows.iter().any(|&r| r >= new_m)
        {
            return None;
        }
        let mut slack_of = vec![None; new_m];
        let mut slack_rows = Vec::new();
        for (r, slack) in slack_of.iter_mut().enumerate() {
            if grown.has_slack(r) {
                *slack = Some(new_structural + slack_rows.len());
                slack_rows.push(r);
            }
        }
        let new_n = new_structural + slack_rows.len();

        // Old standard-form column -> new; `claim` rejects a map that
        // leaves its range or sends two columns to one.
        let mut taken = vec![false; new_n];
        let mut claim = |j: usize| (!std::mem::replace(taken.get_mut(j)?, true)).then_some(j);
        let mut col_to = Vec::with_capacity(n);
        for &j in columns {
            col_to.push(claim(j).filter(|&j| j < new_structural)?);
        }
        for &r in &self.slack_rows {
            col_to.push(claim(slack_of[rows[r]]?)?);
        }

        // Basis position follows the row: old rows keep their (mapped)
        // basic column, each new row takes its entering column.
        let mut basic = vec![usize::MAX; new_m];
        for (&r, &j) in rows.iter().zip(&self.basic) {
            if basic[r] != usize::MAX {
                return None;
            }
            basic[r] = col_to[j];
        }
        let mut enter = enter.iter();
        for (r, b) in basic.iter_mut().enumerate() {
            if *b == usize::MAX {
                *b = match *enter.next()? {
                    Some(j) => claim(j).filter(|&j| j < new_structural)?,
                    None => claim(slack_of[r]?)?,
                };
            }
        }

        if new_m > m || rows.iter().enumerate().any(|(k, &r)| k != r) {
            self.carried = match std::mem::take(&mut self.carried) {
                old if old.inverse.len() == m => old.extended(rows, new_m).within_budget(),
                _ => Carried::default(),
            };
        }
        self.basic = basic;
        for j in self.at_upper.iter_mut() {
            *j = col_to[*j];
        }
        self.slack_rows = slack_rows;
        self.shape = (new_m, new_n);
        Some(())
    }
}

impl Carried {
    /// This inverse and its matrix after [`Basis::relabel`] to `new_m` rows:
    /// old row and basis position `k` become `rows[k]` (distinct, below
    /// `new_m`), and every other row is new and gets the unit column in
    /// both — the same renumbering of both, costing their nonzeros (the
    /// inverse's columns move, entries renumbered where they lie).
    fn extended(self, rows: &[usize], new_m: usize) -> Carried {
        let m = rows.len();
        let mut old_position = vec![usize::MAX; new_m];
        for (k, &r) in rows.iter().enumerate() {
            old_position[r] = k;
        }
        let monotone = rows.windows(2).all(|w| w[0] < w[1]);
        let mut inverse = SparseInverse { cols: Vec::with_capacity(new_m) };
        let mut old_inverse = self.inverse.cols;
        let mut cols = SparseCols::default();
        cols.ptr.reserve(new_m + 1);
        cols.entries.reserve(self.cols.entries.len() + new_m - m);
        for (r, &k) in old_position.iter().enumerate() {
            if k == usize::MAX {
                inverse.cols.push(vec![(r, 1.0)]);
                cols.push_col(std::iter::once((r, 1.0)));
            } else {
                let mut moved = std::mem::take(&mut old_inverse[k]);
                moved.iter_mut().for_each(|(row, _)| *row = rows[*row]);
                let start = cols.entries.len();
                cols.push_col(self.cols.col(k).iter().map(|&(row, v)| (rows[row], v)));
                if !monotone {
                    moved.sort_unstable_by_key(|&(row, _)| row);
                    cols.entries[start..].sort_unstable_by_key(|&(row, _)| row);
                }
                inverse.cols.push(moved);
            }
        }
        Carried { inverse, cols, age: self.age }
    }

    /// This, or nothing when the inverse is over [`BINV_CARRY_LIMIT`].
    fn within_budget(self) -> Carried {
        let bytes = self.inverse.heap_words() * std::mem::size_of::<usize>();
        if bytes <= BINV_CARRY_LIMIT {
            self
        } else {
            Carried::default()
        }
    }
}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    x: Vec<f64>,
    duals: Vec<f64>,
    objective: f64,
    iterations: usize,
    warm_started: bool,
}

impl Solution {
    /// Value of structural variable `var`.
    pub fn value(&self, var: usize) -> f64 {
        self.x[var]
    }

    /// All structural variable values.
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// The dual value of every posed row, in the order the rows were added:
    /// `∂objective/∂rhs` at the optimum, in the row's own sign as posed (a
    /// negative right-hand side does not flip it). A `<=` row of this
    /// minimisation therefore reads `<= 0` (relaxing it can only lower the
    /// objective), a `>=` row `>= 0`, an `==` row either, and a row that is
    /// slack at the optimum reads 0. Variables resting at a finite upper
    /// bound carry their price in their reduced cost `c_j - Σ_i y_i a_ij`
    /// (negative there), not in a row. Empty for the zero-row problem.
    /// [`crate::certify`] checks a `(values, duals)` pair against the
    /// problem without trusting the solver.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Whether a column the solved problem did not hold — objective
    /// coefficient `cost`, entries `coeffs` as `(posed row, coefficient)`,
    /// nonbasic at zero — would be priced into the basis at this optimum:
    /// its reduced cost `cost - Σ_i y_i a_i` is below minus the solver's
    /// pricing tolerance. `false` proves that adding the column leaves the
    /// optimum where it is, which is what lets a column-generation loop
    /// skip the re-solve. The caller sums in another order than the solver
    /// does, so a reduced cost within `1e-12` of the tolerance answers
    /// `true`: pose the problem and let the solver decide.
    pub fn prices_in(&self, cost: f64, coeffs: &[(usize, f64)]) -> bool {
        let priced: f64 = coeffs.iter().map(|&(row, a)| self.duals[row] * a).sum();
        cost - priced <= -SolverOptions::default().tol + 1e-12
    }

    /// Objective at the optimum.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Total simplex pivots across both phases.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// True when this solve re-optimized from a caller-supplied [`Basis`]
    /// instead of running the two-phase method from scratch.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }
}

/// Where a nonbasic variable rests.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rest {
    Lower,
    Upper,
    Basic,
}

/// The basis inverse, as sparse columns, with the (dense, length-m) working
/// vectors of the revised simplex.
struct Engine<'a> {
    sf: &'a StandardForm,
    m: usize,
    /// Total columns including artificials.
    total_n: usize,
    /// First artificial column index (== sf.num_cols()).
    art_start: usize,
    /// For artificial j (>= art_start), its row is `art_row[j - art_start]`.
    art_row: Vec<usize>,
    /// The basis inverse: element (i,k) is entry `i` of column `k`, exact
    /// zeros not stored.
    binv: SparseInverse,
    /// Basic variable per row.
    basis: Vec<usize>,
    rest: Vec<Rest>,
    /// Current basic solution values (aligned with `basis`).
    xb: Vec<f64>,
    opts: SolverOptions,
    iterations: usize,
    /// Eta updates `binv` has taken since it was last factorized (or, for a
    /// carried inverse, audited) — [`Carried::age`] while a solve runs.
    age: usize,
    /// Consecutive degenerate pivots; triggers Bland's rule.
    stall: usize,
    scratch_y: Vec<f64>,
    scratch_w: Vec<f64>,
    /// Scratch of [`Engine::compute_y`]: the cost of the basic variable in
    /// each position.
    cost_at: Vec<f64>,
    /// Scratch of [`Engine::gather_row`]: one row of the inverse, dense.
    scratch_row: Vec<f64>,
    /// Scratch of [`Engine::eta_update`]: the positions where `scratch_w`
    /// is nonzero, and the buffer an updated column is merged into (then
    /// swapped with the column, whose buffer serves the next merge).
    w_support: Vec<usize>,
    merged: Vec<(usize, f64)>,
}

/// Outcome of the ratio test.
enum Block {
    /// Entering variable flips to its other bound; no basis change.
    BoundFlip,
    /// Basic variable in this row leaves at the given bound.
    Leaves { row: usize, at_upper: bool },
    /// Nothing blocks: unbounded direction.
    None,
}

impl<'a> Engine<'a> {
    fn new(sf: &'a StandardForm, opts: SolverOptions) -> Self {
        let m = sf.b.len();
        let n = sf.num_cols();

        // Pick initial basic columns: slacks that are a bare +1 in their row.
        let mut row_basic: Vec<Option<usize>> = vec![None; m];
        for j in sf.num_structural..n {
            if let [(r, v)] = *sf.col(j) {
                if (v - 1.0).abs() < 1e-12 && row_basic[r].is_none() {
                    row_basic[r] = Some(j);
                }
            }
        }
        let mut art_row = Vec::new();
        let mut basis = vec![usize::MAX; m];
        let mut rest = vec![Rest::Lower; n];
        for (r, rb) in row_basic.iter().enumerate() {
            match rb {
                Some(j) => {
                    basis[r] = *j;
                    rest[*j] = Rest::Basic;
                }
                None => {
                    basis[r] = n + art_row.len();
                    art_row.push(r);
                }
            }
        }
        let total_n = n + art_row.len();
        rest.resize(total_n, Rest::Basic);

        // All initial basis columns are unit vectors => B = I, and every
        // nonbasic starts at its lower bound => xb = b.
        let mut eng = Engine::over(sf, opts, SparseInverse::identity(m), basis, rest, 0);
        eng.total_n = total_n;
        eng.art_row = art_row;
        eng.xb.clone_from(&sf.b);
        eng
    }

    /// An engine over `sf` with the given inverse and labels, no
    /// artificials, and every working vector zeroed.
    fn over(
        sf: &'a StandardForm,
        opts: SolverOptions,
        binv: SparseInverse,
        basis: Vec<usize>,
        rest: Vec<Rest>,
        age: usize,
    ) -> Self {
        let m = sf.b.len();
        let n = sf.num_cols();
        Engine {
            sf,
            m,
            total_n: n,
            art_start: n,
            art_row: Vec::new(),
            binv,
            basis,
            rest,
            xb: vec![0.0; m],
            opts,
            iterations: 0,
            age,
            stall: 0,
            scratch_y: vec![0.0; m],
            scratch_w: vec![0.0; m],
            cost_at: Vec::new(),
            scratch_row: vec![0.0; m],
            w_support: Vec::new(),
            merged: Vec::new(),
        }
    }

    fn has_artificials(&self) -> bool {
        self.total_n > self.art_start
    }

    fn upper(&self, j: usize) -> f64 {
        if j < self.sf.upper.len() {
            self.sf.upper[j]
        } else {
            f64::INFINITY // artificials
        }
    }

    /// `w = B^-1 A_j` into `scratch_w`: the inverse's columns that `A_j`
    /// names, scaled and scattered in the order `A_j` lists them.
    fn compute_w(&mut self, j: usize) {
        let w = &mut self.scratch_w;
        w.fill(0.0);
        if j < self.art_start {
            for &(r, v) in self.sf.col(j) {
                for &(i, bi) in &self.binv.cols[r] {
                    w[i] += v * bi;
                }
            }
        } else {
            for &(i, bi) in &self.binv.cols[self.art_row[j - self.art_start]] {
                w[i] = bi;
            }
        }
    }

    /// `y = c_B' B^-1` into `scratch_y` for the given phase costs (one per
    /// column, artificials included). Only basic variables with a nonzero
    /// cost have a term — phase 1 of the growth LPs costs `omax` and the
    /// `o_l` alone — and of those only the ones the inverse's column stores
    /// an entry for; the terms that remain are summed in basis order, so `y`
    /// is what the sum over all of `c_B` gives.
    fn compute_y(&mut self, cost: &[f64]) {
        self.cost_at.clear();
        self.cost_at.extend(self.basis.iter().map(|&j| cost[j]));
        let cost_at = &self.cost_at;
        for (yk, colk) in self.scratch_y.iter_mut().zip(&self.binv.cols) {
            let costed = colk.iter().filter(|&&(i, _)| cost_at[i] != 0.0);
            *yk = costed.map(|&(i, bik)| cost_at[i] * bik).sum();
        }
    }

    /// Row `r` of the inverse into `scratch_row`, dense.
    fn gather_row(&mut self, r: usize) {
        for (k, at) in self.scratch_row.iter_mut().enumerate() {
            *at = self.binv.get(r, k);
        }
    }

    /// Reduced cost of column `j` given `scratch_y`.
    fn reduced_cost(&self, j: usize, cost: &[f64]) -> f64 {
        let mut dot = 0.0;
        if j < self.art_start {
            for &(r, v) in self.sf.col(j) {
                dot += v * self.scratch_y[r];
            }
        } else {
            dot = self.scratch_y[self.art_row[j - self.art_start]];
        }
        cost[j] - dot
    }

    /// One phase of the simplex: minimize `cost` (one entry per column,
    /// artificials included) from the current basis. Only columns below
    /// `enterable` may enter. Returns Ok(()) at optimality.
    fn run_phase(
        &mut self,
        cost: &[f64],
        enterable: usize,
        max_iter: usize,
    ) -> Result<(), LpError> {
        let tol = self.opts.tol;
        loop {
            if self.iterations >= max_iter {
                return Err(LpError::IterationLimit);
            }
            self.compute_y(cost);

            // Pricing: Dantzig normally, Bland's rule while stalled. A
            // variable at its upper bound enters by *decreasing*, so it is
            // attractive when its reduced cost is positive.
            let bland = self.stall > self.m + 64;
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..enterable {
                if self.rest[j] == Rest::Basic {
                    continue;
                }
                let d = self.reduced_cost(j, cost);
                let score = match self.rest[j] {
                    Rest::Lower => -d,
                    Rest::Upper => d,
                    Rest::Basic => unreachable!(),
                };
                if score > tol {
                    if bland {
                        entering = Some((j, score));
                        break;
                    }
                    match entering {
                        Some((_, best)) if score <= best => {}
                        _ => entering = Some((j, score)),
                    }
                }
            }
            let Some((j, _)) = entering else {
                return Ok(()); // optimal for this phase
            };

            self.compute_w(j);
            let from_upper = self.rest[j] == Rest::Upper;
            // Direction sign: moving off the lower bound increases x_j,
            // off the upper bound decreases it; basic values change by
            // -t * sign * w.
            let sign = if from_upper { -1.0 } else { 1.0 };

            let (theta, block) = self.ratio_test(j, sign, bland);
            match block {
                Block::None => return Err(LpError::Unbounded),
                Block::BoundFlip => {
                    // x_j travels its full range; no basis change.
                    let span = self.upper(j);
                    debug_assert!(span.is_finite());
                    for i in 0..self.m {
                        let v = self.xb[i] - span * sign * self.scratch_w[i];
                        self.xb[i] = if v < 0.0 && v > -1e-7 { 0.0 } else { v };
                    }
                    self.rest[j] = if from_upper { Rest::Lower } else { Rest::Upper };
                    self.iterations += 1;
                    self.stall = if span <= 1e-12 { self.stall + 1 } else { 0 };
                }
                Block::Leaves { row, at_upper } => {
                    self.stall = if theta <= 1e-12 { self.stall + 1 } else { 0 };
                    self.pivot(j, row, theta, sign, from_upper, at_upper);
                }
            }

            if self.iterations.is_multiple_of(self.opts.refactor_every) {
                self.refactorize()?;
            }
        }
    }

    /// Ratio test for entering variable `j` moving with direction `sign`
    /// (`scratch_w` holds `B^-1 A_j`). Returns the step length `t >= 0` and
    /// what blocked it.
    fn ratio_test(&self, j: usize, sign: f64, bland: bool) -> (f64, Block) {
        let piv_tol = 1e-9;
        let mut theta = self.upper(j); // bound-flip distance
        let mut block = if theta.is_finite() { Block::BoundFlip } else { Block::None };
        let mut best_w = 0.0;
        for i in 0..self.m {
            let wi = sign * self.scratch_w[i];
            // Basic value moves as xb_i - t * wi.
            let (limit, at_upper) = if wi > piv_tol {
                ((self.xb[i].max(0.0)) / wi, false)
            } else if wi < -piv_tol {
                let ub = self.upper(self.basis[i]);
                if !ub.is_finite() {
                    continue;
                }
                (((ub - self.xb[i]).max(0.0)) / -wi, true)
            } else {
                continue;
            };
            let better = if limit < theta - 1e-10 {
                true
            } else if limit <= theta + 1e-10 {
                match block {
                    Block::Leaves { row, .. } => {
                        if bland {
                            self.basis[i] < self.basis[row]
                        } else {
                            wi.abs() > best_w
                        }
                    }
                    // Prefer a pivot over a bound flip at equal distance:
                    // it changes the basis and helps escape degeneracy.
                    _ => true,
                }
            } else {
                false
            };
            if better {
                theta = limit.max(0.0);
                best_w = wi.abs();
                block = Block::Leaves { row: i, at_upper };
            }
        }
        (theta, block)
    }

    /// Applies a basis-changing pivot: variable `j` enters moving `theta`
    /// from its current bound (direction `sign`), the basic variable in
    /// `row` leaves at lower (0) or upper bound.
    fn pivot(
        &mut self,
        j: usize,
        r: usize,
        theta: f64,
        sign: f64,
        from_upper: bool,
        leave_at_upper: bool,
    ) {
        let m = self.m;
        debug_assert!(self.scratch_w[r].abs() > 1e-12, "pivot on ~zero element");

        // Update basic values; forgive only round-off-sized negativity so
        // genuine drift still surfaces (and is repaired by refactorization).
        for i in 0..m {
            if i != r {
                let v = self.xb[i] - theta * sign * self.scratch_w[i];
                self.xb[i] = if v < 0.0 && v > -1e-7 { 0.0 } else { v };
            }
        }
        // Entering variable's new value.
        self.xb[r] = if from_upper { self.upper(j) - theta } else { theta };

        self.eta_update(r);

        let old = self.basis[r];
        self.rest[old] = if leave_at_upper { Rest::Upper } else { Rest::Lower };
        self.basis[r] = j;
        self.rest[j] = Rest::Basic;
        self.iterations += 1;
    }

    /// Eta update of the inverse after the column whose `B^-1 A_j` sits in
    /// `scratch_w` replaced basis position `r`: for every column k with an
    /// entry t = (B^-1)_{r,k},
    ///   (B^-1)_{i,k} -= w_i * t / w_r  (i != r);  (B^-1)_{r,k} = t / w_r,
    /// which rewrites the union of the column's entries and `w`'s nonzeros;
    /// a column without that entry is not touched.
    fn eta_update(&mut self, r: usize) {
        self.age += 1;
        let w = &self.scratch_w;
        let wr = w[r];
        self.w_support.clear();
        self.w_support.extend((0..self.m).filter(|&i| w[i] != 0.0));
        let support = &self.w_support;
        let merged = &mut self.merged;
        for col in &mut self.binv.cols {
            let Ok(at) = col.binary_search_by_key(&r, |&(i, _)| i) else {
                continue;
            };
            let scale = col[at].1 / wr;
            // Written by index into a buffer sized for the whole union: an
            // entry that comes out zero is overwritten by the next one.
            merged.clear();
            merged.resize(col.len() + support.len(), (0, 0.0));
            let (mut c, mut n) = (0, 0);
            for &i in support {
                while c < col.len() && col[c].0 < i {
                    merged[n] = col[c];
                    n += 1;
                    c += 1;
                }
                let mut v = 0.0;
                if c < col.len() && col[c].0 == i {
                    v = col[c].1;
                    c += 1;
                }
                v = if i == r { scale } else { v - w[i] * scale };
                merged[n] = (i, v);
                n += usize::from(v != 0.0);
            }
            let rest = col.len() - c;
            merged[n..n + rest].copy_from_slice(&col[c..]);
            merged.truncate(n + rest);
            std::mem::swap(col, merged);
        }
    }

    /// Rebuilds `binv` from scratch by Gauss-Jordan elimination of the basis
    /// matrix — on a dense m×m scratch, the one place that has one — then
    /// recomputes `xb = B^-1 (b - N x_N)`. Guards drift.
    fn refactorize(&mut self) -> Result<(), LpError> {
        telemetry::counter_add("lp.refactorizations", 1);
        #[cfg(test)]
        tests::RESTART_WORK.with(|work| {
            let (columns, audits, refactorizations) = work.get();
            work.set((columns, audits, refactorizations + 1));
        });
        let m = self.m;
        let mut bmat = vec![0.0; m * m];
        for (k, &j) in self.basis.iter().enumerate() {
            if j < self.art_start {
                for &(r, v) in self.sf.col(j) {
                    bmat[k * m + r] = v;
                }
            } else {
                bmat[k * m + self.art_row[j - self.art_start]] = 1.0;
            }
        }
        let inv = invert_column_major(&bmat, m).ok_or(LpError::Numerical)?;
        let nonzeros = |col: &[f64]| {
            col.iter().copied().enumerate().filter(|&(_, v)| v != 0.0).collect::<Vec<_>>()
        };
        self.binv.cols = inv.chunks_exact(m).map(nonzeros).collect();
        self.age = 0;
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes `xb = B^-1 (b - N x_N)` from the current inverse: one
    /// column of it per nonzero of the effective right-hand side, each
    /// entry's terms added in row order.
    fn recompute_xb(&mut self) {
        // Effective rhs: b minus contributions of nonbasics at upper bound.
        let mut rhs = self.sf.b.clone();
        for j in 0..self.art_start {
            if self.rest[j] == Rest::Upper {
                let u = self.sf.upper[j];
                for &(r, v) in self.sf.col(j) {
                    rhs[r] -= v * u;
                }
            }
        }
        self.xb.fill(0.0);
        for (k, &rk) in rhs.iter().enumerate().filter(|&(_, &rk)| rk != 0.0) {
            for &(i, bik) in &self.binv.cols[k] {
                self.xb[i] += bik * rk;
            }
        }
        for x in self.xb.iter_mut().filter(|x| **x < 0.0 && **x > -1e-7) {
            *x = 0.0;
        }
    }

    /// The numerical test that `binv` holds basis position `i`:
    /// `scratch_w = B^-1 A_{basis[i]}` is the unit vector `e_i`.
    fn w_is_unit(&self, i: usize) -> bool {
        self.scratch_w.iter().enumerate().all(|(k, &wk)| {
            let expect = if k == i { 1.0 } else { 0.0 };
            (wk - expect).abs() <= 1e-6
        })
    }

    /// Makes `binv` the inverse of the current basis matrix, given that it
    /// inverts the matrix with columns `inverts` (one per basis position,
    /// posed row signs — [`Carried::cols`]). A position whose basic column
    /// *is* the stored column needs nothing, and telling so is an exact
    /// O(nonzeros) comparison; one that is not (the basis was extended by
    /// [`Basis::relabel`], or a coefficient changed) takes `w = B^-1 A_j`
    /// and one eta update, which puts the real column there and leaves every
    /// other position intact — O(m) + O(nonzeros of the inverse) per
    /// differing column, nothing at all when the constraint matrix did not
    /// change, and far below the O(m³) refactorization it lets a warm
    /// restart skip.
    ///
    /// The comparison trusts that `binv` still inverts `inverts` to working
    /// accuracy. What checks that is the numerical test [`Engine::w_is_unit`]
    /// on *every* position, replacing what fails it: run once the inverse
    /// has taken `refactor_every` eta updates since it was last factorized
    /// or so audited, and — asserting it agrees with the comparison — on
    /// every restart of a debug build.
    ///
    /// `false` when so many columns differ that refactorizing is no dearer
    /// (and cleaner), or a replacement would be singular: the caller
    /// refactorizes.
    fn bring_binv_current(&mut self, inverts: &SparseCols) -> bool {
        let m = self.m;
        let audit = self.age >= self.opts.refactor_every;
        if audit {
            self.age = 0;
        }
        let mut replaceable = 8 + m / 4;
        let mut replaced = 0u64;
        let complete = 'positions: {
            for i in 0..m {
                let differs = !self.sf.posed_col(self.basis[i]).eq(inverts.col(i).iter().copied());
                if !(differs || audit || cfg!(debug_assertions)) {
                    continue;
                }
                self.compute_w(self.basis[i]);
                let stale = differs || !self.w_is_unit(i);
                debug_assert!(
                    differs || audit || !stale,
                    "position {i} holds its stored column but B^-1 A_j is not e_{i}"
                );
                if stale {
                    // Pivot on nothing small against the rest of the column:
                    // a poorly conditioned update would spoil the positions
                    // already settled.
                    let largest = self.scratch_w.iter().fold(0.0, |a: f64, w| a.max(w.abs()));
                    if replaceable == 0 || self.scratch_w[i].abs() <= 1e-3 * largest {
                        break 'positions false;
                    }
                    replaceable -= 1;
                    replaced += 1;
                    self.eta_update(i);
                }
            }
            true
        };
        if telemetry::enabled() {
            telemetry::counter_add("lp.restart_columns_replaced", replaced);
            telemetry::counter_add("lp.restart_full_audits", u64::from(audit));
        }
        #[cfg(test)]
        tests::RESTART_WORK.with(|work| {
            let (columns, audits, refactorizations) = work.get();
            work.set((columns + replaced, audits + u64::from(audit), refactorizations));
        });
        complete
    }

    /// Dual-simplex-style repair: drives bound-violating basic variables to
    /// the bound they violate, entering the nonbasic column that least
    /// damages phase-2 optimality. This is what makes a warm restart
    /// survive the deployment cycle's minute-to-minute drift — the restored
    /// vertex is usually *slightly* infeasible under the new data, and a
    /// handful of dual pivots repairs it where a cold solve would redo
    /// phase 1 from scratch. Returns `false` when it gives up (caller
    /// falls back to a cold solve); correctness never depends on success.
    fn dual_repair(&mut self, cost: &[f64], max_pivots: usize) -> bool {
        let m = self.m;
        let scale = 1.0 + self.sf.b.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let feas_tol = 1e-7 * scale;
        for _ in 0..max_pivots {
            // Most violated basic variable.
            let mut r = usize::MAX;
            let mut worst = feas_tol;
            let mut to_upper = false;
            for i in 0..m {
                if -self.xb[i] > worst {
                    worst = -self.xb[i];
                    r = i;
                    to_upper = false;
                }
                let ub = self.upper(self.basis[i]);
                if self.xb[i] - ub > worst {
                    worst = self.xb[i] - ub;
                    r = i;
                    to_upper = true;
                }
            }
            if r == usize::MAX {
                // Feasible (within tolerance): snap round-off into range.
                for i in 0..m {
                    let ub = self.upper(self.basis[i]);
                    self.xb[i] = self.xb[i].clamp(0.0, ub);
                }
                return true;
            }
            self.compute_y(cost);
            self.gather_row(r);
            // Entering candidate: the eligible column with the smallest
            // |reduced cost| per unit of repair (classic dual ratio test,
            // used as a least-damage heuristic since c may have drifted).
            let mut best: Option<(usize, f64, f64)> = None;
            for j in 0..self.total_n {
                if self.rest[j] == Rest::Basic {
                    continue;
                }
                let alpha = if j < self.art_start {
                    self.sf.col(j).iter().map(|&(row, v)| v * self.scratch_row[row]).sum::<f64>()
                } else {
                    self.scratch_row[self.art_row[j - self.art_start]]
                };
                let sign = if self.rest[j] == Rest::Upper { -1.0 } else { 1.0 };
                // Moving j off its bound changes xb[r] by -t * dir.
                let dir = sign * alpha;
                let eligible = if to_upper { dir > 1e-7 } else { dir < -1e-7 };
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, cost);
                let d_eff = if self.rest[j] == Rest::Upper { -d } else { d };
                let ratio = d_eff.abs() / dir.abs();
                let better = match best {
                    Some((_, br, ba)) => {
                        ratio < br - 1e-12 || (ratio <= br + 1e-12 && dir.abs() > ba)
                    }
                    None => true,
                };
                if better {
                    best = Some((j, ratio, dir.abs()));
                }
            }
            let Some((j, _, _)) = best else {
                return false; // nothing can repair this row
            };
            self.compute_w(j);
            let from_upper = self.rest[j] == Rest::Upper;
            let sign = if from_upper { -1.0 } else { 1.0 };
            let wr = sign * self.scratch_w[r];
            let target = if to_upper { self.upper(self.basis[r]) } else { 0.0 };
            let theta = (self.xb[r] - target) / wr;
            if !theta.is_finite() || theta < 0.0 {
                return false;
            }
            self.pivot(j, r, theta, sign, from_upper, to_upper);
        }
        false
    }

    /// After phase 1: pivot basic artificials out where possible so phase 2
    /// cannot push them positive. Rows whose artificial cannot be displaced
    /// are linearly dependent and inert (their `w` entry is zero for every
    /// column), so leaving the artificial basic at 0 is safe.
    fn drive_out_artificials(&mut self) {
        let m = self.m;
        for r in 0..m {
            if self.basis[r] < self.art_start {
                continue;
            }
            self.gather_row(r);
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.art_start {
                if self.rest[j] == Rest::Basic {
                    continue;
                }
                let mut w_rj = 0.0;
                for &(rr, v) in self.sf.col(j) {
                    w_rj += v * self.scratch_row[rr];
                }
                if w_rj.abs() > 1e-7 {
                    match best {
                        Some((_, bv)) if w_rj.abs() <= bv => {}
                        _ => best = Some((j, w_rj.abs())),
                    }
                }
            }
            if let Some((j, _)) = best {
                let from_upper = self.rest[j] == Rest::Upper;
                self.compute_w(j);
                if self.scratch_w[r].abs() <= 1e-12 {
                    continue;
                }
                // Degenerate pivot: the artificial sits at ~0, so theta ~ 0
                // and no basic value moves materially.
                let sign = if from_upper { -1.0 } else { 1.0 };
                let theta = (self.xb[r] / (sign * self.scratch_w[r])).max(0.0);
                self.pivot(j, r, theta, sign, from_upper, false);
            }
        }
    }

    fn extract(&self) -> Solution {
        let mut x = vec![0.0; self.sf.num_structural];
        for j in 0..self.sf.num_structural {
            if self.rest[j] == Rest::Upper {
                x[j] = self.sf.upper[j];
            }
        }
        for (r, &j) in self.basis.iter().enumerate() {
            if j < self.sf.num_structural {
                x[j] = self.xb[r].max(0.0);
            }
        }
        let objective = x.iter().zip(&self.sf.c).map(|(xi, ci)| xi * ci).sum();
        // `scratch_y` is the pricing vector of the round that found nothing
        // to enter, i.e. `c_B B^-1` at the optimal basis, in the standard
        // form's row signs.
        let duals = self
            .scratch_y
            .iter()
            .zip(&self.sf.negated)
            .map(|(&y, &negated)| if negated { -y } else { y })
            .collect();
        Solution { x, duals, objective, iterations: self.iterations, warm_started: false }
    }

    /// Restores an engine from a previously exported basis. The carried
    /// inverse *moves* out of the handle (and back in at
    /// [`Engine::export_basis`]; until then the handle keeps its labels
    /// only) and is reused once [`Engine::bring_binv_current`] has replaced
    /// the columns that differ from the ones it was carried with (none when
    /// the constraint matrix did not change — the deployment-cycle common
    /// case); otherwise it is rebuilt by refactorization. The restored
    /// vertex may be primal-infeasible under the new data — the caller
    /// repairs it with [`Engine::dual_repair`]. `None` means the basis is
    /// unusable (wrong shape, corrupt, or singular) and the caller should
    /// solve cold.
    fn with_basis(sf: &'a StandardForm, opts: SolverOptions, warm: &mut Basis) -> Option<Self> {
        let m = sf.b.len();
        let n = sf.num_cols();
        if warm.shape != (m, n) || warm.basic.len() != m || m == 0 {
            return None;
        }
        let mut rest = vec![Rest::Lower; n];
        for &j in &warm.at_upper {
            if j >= n || !sf.upper[j].is_finite() {
                return None;
            }
            rest[j] = Rest::Upper;
        }
        for &j in &warm.basic {
            // Out-of-range column, duplicate, or a column listed both basic
            // and at-upper: the basis is corrupt.
            if j >= n || rest[j] != Rest::Lower {
                return None;
            }
            rest[j] = Rest::Basic;
        }
        let Carried { inverse, cols: inverts, age } = std::mem::take(&mut warm.carried);
        let mut eng = Engine::over(sf, opts, inverse, warm.basic.clone(), rest, age);
        let carried = eng.binv.len() == m && inverts.len() == m && {
            flip_negated_rows(&mut eng.binv, &sf.negated);
            eng.bring_binv_current(&inverts)
        };
        if carried {
            eng.recompute_xb();
        } else {
            // Rebuild the inverse; a singular basis surfaces here.
            eng.refactorize().ok()?;
        }
        Some(eng)
    }

    /// Moves the current basis and its inverse into `out` for reuse by a
    /// later solve, with the basic columns the inverse inverts. A basis
    /// still holding an artificial (a degenerate, linearly dependent row)
    /// is not representable for restart; `out` is cleared instead.
    fn export_basis(&mut self, out: &mut Basis) {
        if self.basis.iter().any(|&j| j >= self.art_start) {
            out.clear();
            return;
        }
        let sf = self.sf;
        out.basic.clone_from(&self.basis);
        out.at_upper.clear();
        out.at_upper.extend((0..self.art_start).filter(|&j| self.rest[j] == Rest::Upper));
        out.shape = (self.m, self.art_start);
        out.slack_rows.clear();
        out.slack_rows.extend((sf.num_structural..self.art_start).map(|j| sf.col(j)[0].0));
        let mut inverse = std::mem::take(&mut self.binv);
        flip_negated_rows(&mut inverse, &sf.negated);
        if telemetry::enabled() {
            let nnz = inverse.nnz() as f64;
            telemetry::observe("lp.inverse_nnz", nnz);
            telemetry::observe("lp.inverse_fill", nnz / (self.m * self.m) as f64);
        }
        let mut cols = SparseCols::default();
        for &j in &self.basis {
            cols.push_col(sf.posed_col(j));
        }
        out.carried = Carried { inverse, cols, age: self.age }.within_budget();
    }
}

/// Converts a basis inverse between the standard form's row signs and the
/// posed problem's: negating row k of a matrix negates column k of its
/// inverse.
fn flip_negated_rows(binv: &mut SparseInverse, negated: &[bool]) {
    for (col, _) in binv.cols.iter_mut().zip(negated).filter(|(_, &neg)| neg) {
        col.iter_mut().for_each(|(_, v)| *v = -*v);
    }
}

/// Inverts an m*m column-major matrix by Gauss-Jordan with partial pivoting.
/// Returns `None` if (numerically) singular.
fn invert_column_major(a: &[f64], m: usize) -> Option<Vec<f64>> {
    // Work row-major for the elimination, convert at the edges.
    let mut w = vec![0.0; m * m];
    for k in 0..m {
        for i in 0..m {
            w[i * m + k] = a[k * m + i];
        }
    }
    let mut inv = vec![0.0; m * m];
    for i in 0..m {
        inv[i * m + i] = 1.0;
    }
    for col in 0..m {
        let mut piv = col;
        let mut best = w[col * m + col].abs();
        for i in col + 1..m {
            let v = w[i * m + col].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if piv != col {
            for k in 0..m {
                w.swap(col * m + k, piv * m + k);
                inv.swap(col * m + k, piv * m + k);
            }
        }
        let d = w[col * m + col];
        for k in 0..m {
            w[col * m + k] /= d;
            inv[col * m + k] /= d;
        }
        for i in 0..m {
            if i != col {
                let f = w[i * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        w[i * m + k] -= f * w[col * m + k];
                        inv[i * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
    }
    let mut out = vec![0.0; m * m];
    for i in 0..m {
        for k in 0..m {
            out[k * m + i] = inv[i * m + k];
        }
    }
    Some(out)
}

/// Warm entry point used by [`crate::Problem::solve_warm`]: restart
/// phase 2 from `basis` when it still fits the problem, fall back to the
/// two-phase cold solve otherwise, and leave the new optimal basis in
/// `basis` either way.
pub(crate) fn solve_standard_form_warm(
    sf: &StandardForm,
    opts: &SolverOptions,
    basis: &mut Basis,
) -> Result<Solution, LpError> {
    let attempted_warm = basis.is_warm();
    if attempted_warm {
        if let Some(mut eng) = Engine::with_basis(sf, opts.clone(), basis) {
            let m = sf.b.len();
            let n = sf.num_cols();
            let max_iter =
                if opts.max_iterations == 0 { 20_000 + 100 * (m + n) } else { opts.max_iterations };
            // The restored vertex is usually slightly infeasible under the
            // new data; a few dual pivots repair it. Budget is generous —
            // repair beyond it means the problems diverged too far for a
            // restart to pay off anyway.
            if eng.dual_repair(&sf.c, 64 + m / 2) {
                match eng.run_phase(&sf.c, n, max_iter) {
                    Ok(()) => {
                        let mut sol = eng.extract();
                        eng.export_basis(basis);
                        sol.warm_started = true;
                        if telemetry::enabled() {
                            telemetry::counter_add("lp.solves", 1);
                            telemetry::counter_add("lp.warm_hits", 1);
                            telemetry::observe("lp.pivots", sol.iterations() as f64);
                        }
                        return Ok(sol);
                    }
                    Err(LpError::Unbounded) => {
                        // Reachable from a feasible vertex => genuinely
                        // unbounded.
                        return Err(LpError::Unbounded);
                    }
                    // Iteration-limit or numerical trouble along the warm
                    // path: retry cold rather than propagate a restart
                    // artifact.
                    Err(_) => {}
                }
            }
        }
    }
    // A stored basis that did not carry the solve to optimality costs a
    // cold restart — the "degrade" the telemetry layer makes visible.
    if attempted_warm {
        telemetry::counter_add("lp.degrade_to_cold", 1);
    }
    solve_standard_form_cold(sf, opts, Some(basis))
}

/// The two-phase cold solve behind [`crate::Problem::solve`] (and the warm
/// entry point's fallback); exports the final basis when asked.
pub(crate) fn solve_standard_form_cold(
    sf: &StandardForm,
    opts: &SolverOptions,
    export: Option<&mut Basis>,
) -> Result<Solution, LpError> {
    if telemetry::enabled() {
        telemetry::counter_add("lp.solves", 1);
        telemetry::counter_add("lp.cold_solves", 1);
    }
    let m = sf.b.len();
    let n = sf.num_cols();

    // Trivial case: no constraints. Negative-cost variables run to their
    // upper bound (or to infinity).
    if m == 0 {
        if let Some(basis) = export {
            basis.clear();
        }
        let mut x = vec![0.0; sf.num_structural];
        for j in 0..sf.num_structural {
            if sf.c[j] < -opts.tol {
                if sf.upper[j].is_finite() {
                    x[j] = sf.upper[j];
                } else {
                    return Err(LpError::Unbounded);
                }
            }
        }
        let objective = x.iter().zip(&sf.c).map(|(a, b)| a * b).sum();
        return Ok(Solution {
            x,
            duals: Vec::new(),
            objective,
            iterations: 0,
            warm_started: false,
        });
    }

    let max_iter =
        if opts.max_iterations == 0 { 20_000 + 100 * (m + n) } else { opts.max_iterations };
    let mut eng = Engine::new(sf, opts.clone());

    // Costs are one per column: in phase 2 an artificial left basic at zero
    // in a dependent row costs nothing.
    let mut phase2_cost = sf.c.clone();
    phase2_cost.resize(eng.total_n, 0.0);
    if eng.has_artificials() {
        let art_start = eng.art_start;
        let mut phase1_cost = vec![0.0; eng.total_n];
        phase1_cost[art_start..].fill(1.0);
        match eng.run_phase(&phase1_cost, eng.total_n, max_iter) {
            Ok(()) => {}
            Err(LpError::Unbounded) => {
                // Phase-1 objective is bounded below by 0; this is numerics.
                return Err(LpError::Numerical);
            }
            Err(e) => return Err(e),
        }
        let art_sum: f64 =
            eng.basis.iter().zip(&eng.xb).filter(|(&j, _)| j >= art_start).map(|(_, &v)| v).sum();
        let scale = 1.0 + sf.b.iter().map(|v| v.abs()).fold(0.0, f64::max);
        if art_sum > 1e-7 * scale {
            return Err(LpError::Infeasible);
        }
        eng.drive_out_artificials();
    }

    // Artificials may never re-enter.
    eng.run_phase(&phase2_cost, eng.art_start, max_iter)?;
    if let Some(basis) = export {
        eng.export_basis(basis);
    }
    let sol = eng.extract();
    telemetry::observe("lp.pivots", sol.iterations() as f64);
    Ok(sol)
}

#[cfg(test)]
pub(super) mod tests {
    use proptest::prelude::*;

    use super::{
        flip_negated_rows, invert_column_major, solve_standard_form_cold, solve_standard_form_warm,
        Block, Engine, Rest, SolverOptions, SparseCols, SparseInverse, StandardForm,
    };
    use crate::{Basis, LpError, Problem, Relation};

    thread_local! {
        /// `(columns replaced, full audits, refactorizations)` by this
        /// thread since the last [`restart_work`] began: what
        /// [`Engine::bring_binv_current`] did on its warm restarts, and how
        /// often [`Engine::refactorize`] ran (restart fallback or hygiene).
        pub(super) static RESTART_WORK: std::cell::Cell<(u64, u64, u64)> =
            const { std::cell::Cell::new((0, 0, 0)) };
    }

    /// Runs `f`; returns its result and the restart work it caused.
    fn restart_work<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
        RESTART_WORK.set((0, 0, 0));
        let out = f();
        (out, RESTART_WORK.get())
    }

    /// The path-growth LP in miniature. Columns: each aggregate's paths
    /// `(cost, links crossed)` back to back, an overload `o_l` per link of
    /// `links` (ascending), `omax`. Rows: per link `Σ z − 100·o_l <= 100`
    /// and `o_l − omax <= 0`, then `Σ_p z_ap = 250` per aggregate. Returns
    /// the problem with a key per column and per row, for
    /// [`Basis::relabel`]'s maps.
    #[allow(clippy::type_complexity)]
    fn growth_lp(
        links: &[usize],
        paths: &[Vec<(f64, Vec<usize>)>],
    ) -> (Problem, Vec<(u8, usize, usize)>, Vec<(u8, usize)>) {
        let mut col_keys = Vec::new();
        for (a, of_a) in paths.iter().enumerate() {
            col_keys.extend((0..of_a.len()).map(|p| (0u8, a, p)));
        }
        let first_o = col_keys.len();
        col_keys.extend(links.iter().map(|&l| (1u8, l, 0)));
        let omax = col_keys.len();
        col_keys.push((2, 0, 0));
        let mut p = Problem::minimize(col_keys.len());
        p.set_objective(omax, 1000.0);
        let mut row_keys = Vec::new();
        for (at, &l) in links.iter().enumerate() {
            let mut row = vec![(first_o + at, -100.0)];
            for (j, &(_, a, path)) in col_keys[..first_o].iter().enumerate() {
                if paths[a][path].1.contains(&l) {
                    row.push((j, 1.0));
                }
            }
            p.add_row(Relation::Le, 100.0, &row);
            p.add_row(Relation::Le, 0.0, &[(first_o + at, 1.0), (omax, -1.0)]);
            row_keys.extend([(0u8, l), (1, l)]);
        }
        let mut j = 0;
        for (a, of_a) in paths.iter().enumerate() {
            let row: Vec<(usize, f64)> = (j..j + of_a.len()).map(|j| (j, 1.0)).collect();
            for (&(cost, _), &(j, _)) in of_a.iter().zip(&row) {
                p.set_objective(j, cost);
            }
            p.add_row(Relation::Eq, 250.0, &row);
            row_keys.push((2, a));
            j += of_a.len();
        }
        (p, col_keys, row_keys)
    }

    #[test]
    fn growth_past_2048_rows_restarts_warm_on_a_handle_of_linear_size() {
        // 760 links (ids 0, 4, 8, ..), four aggregates on two 5-link paths
        // each: 1524 rows, almost all of them slack at the optimum. Each
        // growth step gives every aggregate a cheaper path over three new
        // links (ids between the old ones: their rows splice into the
        // middle) and two old ones, 100 new links a step, so the third LP
        // has 2124 rows — past what a dense inverse was carried for.
        fn moved_to<K: PartialEq>(old: &[K], grown: &[K]) -> Vec<usize> {
            old.iter().map(|key| grown.iter().position(|k| k == key).unwrap()).collect()
        }
        let mut links: Vec<usize> = (0..760).map(|k| 4 * k).collect();
        let mut paths: Vec<Vec<(f64, Vec<usize>)>> = (0..4)
            .map(|a| {
                let path =
                    |p: usize| (0..5).map(|t| 4 * ((a * 97 + p * 31 + t * 53) % 760)).collect();
                vec![(10.0, path(0)), (11.0, path(1))]
            })
            .collect();
        let (lp, mut col_keys, mut row_keys) = growth_lp(&links, &paths);
        let mut handle = Basis::new();
        lp.solve_warm(&mut handle).expect("feasible: overload is allowed");
        for step in 1..=3usize {
            links.extend((300..400).map(|k| 4 * k + step));
            links.sort_unstable();
            for (a, of_a) in paths.iter_mut().enumerate() {
                let new = (0..3).map(|t| 4 * (300 + a * 20 + t) + step);
                let old = (0..2).map(|t| 4 * ((a * 11 + step * 7 + t) % 760));
                of_a.push((10.0 - step as f64, new.chain(old).collect()));
            }
            let (lp, grown_cols, grown_rows) = growth_lp(&links, &paths);
            let columns = moved_to(&col_keys, &grown_cols);
            let rows = moved_to(&row_keys, &grown_rows);
            let m = lp.num_rows();
            let (warm, (_, _, refactorizations)) = restart_work(|| {
                assert!(handle.relabel(&lp, &columns, &rows, &vec![None; m - rows.len()]));
                lp.solve_warm(&mut handle).unwrap()
            });
            assert!(warm.warm_started() && warm.iterations() > 0, "step {step}");
            assert_eq!(refactorizations, 0, "step {step}: {m} rows");
            assert!(handle.carried.inverse.len() == m, "step {step}: the inverse is carried");
            assert!(
                handle.heap_bytes() <= 64 * 8 * m,
                "step {step}: {} bytes for {m} rows",
                handle.heap_bytes()
            );
            (col_keys, row_keys) = (grown_cols, grown_rows);
        }
        assert!(row_keys.len() > 2048);
    }

    /// The dense column-major inverse this engine used to hold — element
    /// (i,k) at `binv[k*m + i]`, zeros stored — with its kernels as they
    /// were: the reference the sparse ones must agree with to the bit.
    #[derive(Clone)]
    struct DenseInverse {
        m: usize,
        binv: Vec<f64>,
    }

    impl DenseInverse {
        fn identity(m: usize) -> Self {
            DenseInverse::of(&SparseInverse::identity(m))
        }

        /// `sparse` scattered.
        fn of(sparse: &SparseInverse) -> Self {
            let m = sparse.len();
            let mut binv = vec![0.0; m * m];
            for (k, col) in sparse.cols.iter().enumerate() {
                for &(i, v) in col {
                    binv[k * m + i] = v;
                }
            }
            DenseInverse { m, binv }
        }

        fn compute_w(&self, eng: &Engine, j: usize) -> Vec<f64> {
            let m = self.m;
            let mut w = vec![0.0; m];
            if j < eng.art_start {
                for &(r, v) in eng.sf.col(j) {
                    let colr = &self.binv[r * m..r * m + m];
                    for (wi, bi) in w.iter_mut().zip(colr) {
                        *wi += v * bi;
                    }
                }
            } else {
                let r = eng.art_row[j - eng.art_start];
                w.copy_from_slice(&self.binv[r * m..r * m + m]);
            }
            w
        }

        fn compute_y(&self, basis: &[usize], cost: &[f64]) -> Vec<f64> {
            let m = self.m;
            let costed: Vec<(usize, f64)> = basis
                .iter()
                .enumerate()
                .filter(|&(_, &j)| cost[j] != 0.0)
                .map(|(i, &j)| (i, cost[j]))
                .collect();
            (0..m)
                .map(|k| {
                    let colk = &self.binv[k * m..k * m + m];
                    costed.iter().map(|&(i, c)| c * colk[i]).sum()
                })
                .collect()
        }

        fn eta_update(&mut self, r: usize, w: &[f64]) {
            let m = self.m;
            let wr = w[r];
            for k in 0..m {
                let colk = &mut self.binv[k * m..k * m + m];
                let t = colk[r];
                if t == 0.0 {
                    continue;
                }
                let scale = t / wr;
                for i in 0..m {
                    colk[i] -= w[i] * scale;
                }
                colk[r] = scale;
            }
        }

        fn refactorize(&mut self, eng: &Engine) {
            let m = self.m;
            let mut bmat = vec![0.0; m * m];
            for (k, &j) in eng.basis.iter().enumerate() {
                if j < eng.art_start {
                    for &(r, v) in eng.sf.col(j) {
                        bmat[k * m + r] = v;
                    }
                } else {
                    bmat[k * m + eng.art_row[j - eng.art_start]] = 1.0;
                }
            }
            self.binv = invert_column_major(&bmat, m).expect("the engine inverted it");
        }

        fn recompute_xb(&self, eng: &Engine) -> Vec<f64> {
            let m = self.m;
            let mut rhs = eng.sf.b.clone();
            for j in 0..eng.art_start {
                if eng.rest[j] == Rest::Upper {
                    let u = eng.sf.upper[j];
                    for &(r, v) in eng.sf.col(j) {
                        rhs[r] -= v * u;
                    }
                }
            }
            let mut xb = vec![0.0; m];
            for (k, &rk) in rhs.iter().enumerate().filter(|&(_, &rk)| rk != 0.0) {
                for (x, bik) in xb.iter_mut().zip(&self.binv[k * m..k * m + m]) {
                    *x += bik * rk;
                }
            }
            for x in xb.iter_mut().filter(|x| **x < 0.0 && **x > -1e-7) {
                *x = 0.0;
            }
            xb
        }

        fn flip_negated_rows(&mut self, negated: &[bool]) {
            let m = self.m;
            for (k, _) in negated.iter().enumerate().filter(|(_, &neg)| neg) {
                self.binv[k * m..(k + 1) * m].iter_mut().for_each(|v| *v = -*v);
            }
        }

        fn extended(&self, rows: &[usize], new_m: usize) -> DenseInverse {
            let m = self.m;
            let mut binv = vec![0.0; new_m * new_m];
            for (k, &rk) in rows.iter().enumerate() {
                let to = &mut binv[rk * new_m..(rk + 1) * new_m];
                for (&ri, &v) in rows.iter().zip(&self.binv[k * m..(k + 1) * m]) {
                    to[ri] = v;
                }
            }
            for r in (0..new_m).filter(|r| !rows.contains(r)) {
                binv[r * new_m + r] = 1.0;
            }
            DenseInverse { m: new_m, binv }
        }

        /// [`Engine::bring_binv_current`]'s completion on this inverse, for
        /// the labels and problem of `eng`: one eta update per position whose
        /// basic column is not the one in `inverts`.
        fn complete(&mut self, eng: &Engine, inverts: &SparseCols) -> bool {
            let mut replaceable = 8 + self.m / 4;
            for i in 0..self.m {
                let j = eng.basis[i];
                if eng.sf.posed_col(j).eq(inverts.col(i).iter().copied()) {
                    continue;
                }
                let w = self.compute_w(eng, j);
                let largest = w.iter().fold(0.0, |a: f64, w| a.max(w.abs()));
                if replaceable == 0 || w[i].abs() <= 1e-3 * largest {
                    return false;
                }
                replaceable -= 1;
                self.eta_update(i, &w);
            }
            true
        }
    }

    #[test]
    fn extended_inverse_is_completed_without_refactorizing() {
        // A pricing round in miniature. Old LP: min t s.t. -t <= -1 (a
        // negated row), x - t <= 0, x <= 3. Grown LP: an equality row
        // z = 2 whose column z also loads the old row 1, and a new `<=` row
        // in which the *old* basic column t gains an entry — so the basis
        // matrix is not block-triangular over the old one either way.
        let mut old = Problem::minimize(2); // t, x
        old.set_objective(0, 1.0);
        old.set_objective(1, -0.1);
        old.add_row(Relation::Le, -1.0, &[(0, -1.0)]);
        old.add_row(Relation::Le, 0.0, &[(1, 1.0), (0, -1.0)]);
        old.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
        let mut basis = Basis::new();
        old.solve_warm(&mut basis).unwrap();

        let mut grown = Problem::minimize(4); // t, x, y, z
        grown.set_objective(0, 1.0);
        grown.set_objective(1, -0.1);
        grown.add_row(Relation::Le, -1.0, &[(0, -1.0)]);
        grown.add_row(Relation::Le, 2.0, &[(1, 1.0), (0, -1.0), (3, 1.0)]);
        grown.add_row(Relation::Le, 0.0, &[(2, 1.0), (0, -1.0)]);
        grown.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
        grown.add_row(Relation::Eq, 2.0, &[(3, 1.0)]);
        assert!(basis.relabel(&grown, &[0, 1], &[0, 1, 3], &[None, Some(3)]));

        let sf = grown.to_standard_form();
        let carried_age = basis.carried.age;
        let (eng, (replaced, _, refactorizations)) = restart_work(|| {
            Engine::with_basis(&sf, SolverOptions::default(), &mut basis.clone()).unwrap()
        });
        // t gained an entry in a new row and z is no bare +1: two columns
        // completed by eta updates, and no refactorization (which would
        // have reset the age).
        assert_eq!((replaced, refactorizations), (2, 0));
        assert_eq!(eng.age, carried_age + 2);
        let mut eng = eng;
        for i in 0..eng.m {
            eng.compute_w(eng.basis[i]);
            for (k, &wk) in eng.scratch_w.iter().enumerate() {
                let expect = if k == i { 1.0 } else { 0.0 };
                assert!((wk - expect).abs() < 1e-12, "B^-1 A_{i} [{k}] = {wk}");
            }
        }
        // And the restart stands at the old optimum: t = 1, x = 1.
        let warm = grown.solve_warm(&mut basis).unwrap();
        assert!(warm.warm_started());
        assert_eq!(warm.iterations(), 0);
        assert!((warm.value(0) - 1.0).abs() < 1e-12 && (warm.value(1) - 1.0).abs() < 1e-12);
    }

    /// `bring_binv_current` on the inverse `handle` carries, loaded but not
    /// yet completed: the positions the numerical test fails beforehand,
    /// whether the completion succeeded, and the `(columns, audits)` it
    /// took. `None` when the labels do not give an engine at all.
    fn complete_carried(
        sf: &StandardForm,
        opts: &SolverOptions,
        handle: &Basis,
    ) -> Option<(usize, bool, (u64, u64))> {
        let mut eng = Engine::with_basis(sf, opts.clone(), &mut handle.clone())?;
        eng.binv.clone_from(&handle.carried.inverse);
        flip_negated_rows(&mut eng.binv, &sf.negated);
        eng.age = handle.carried.age;
        let stale = (0..eng.m)
            .filter(|&i| {
                eng.compute_w(eng.basis[i]);
                !eng.w_is_unit(i)
            })
            .count();
        let (complete, (replaced, audits, _)) =
            restart_work(|| eng.bring_binv_current(&handle.carried.cols));
        Some((stale, complete, (replaced, audits)))
    }

    /// A random LP over small integers: `<=` / `>=` rows a witness point
    /// satisfies, plus a bounding box, as dense rows.
    #[derive(Clone, Debug)]
    struct DenseLp {
        c: Vec<f64>,
        /// Upper bound per variable, `f64::INFINITY` for none.
        upper: Vec<f64>,
        rows: Vec<(Vec<f64>, Relation, f64)>,
    }

    impl DenseLp {
        fn problem(&self) -> Problem {
            let mut p = Problem::minimize(self.c.len());
            for (j, (&cj, &uj)) in self.c.iter().zip(&self.upper).enumerate() {
                p.set_objective(j, cj);
                if uj.is_finite() {
                    p.set_upper_bound(j, uj);
                }
            }
            for (a, rel, rhs) in &self.rows {
                let sparse: Vec<(usize, f64)> =
                    a.iter().copied().enumerate().filter(|&(_, v)| v != 0.0).collect();
                p.add_row(*rel, *rhs, &sparse);
            }
            p
        }
    }

    /// What changes between the LP a basis was exported from and the LP
    /// restarted from it.
    #[derive(Clone, Debug)]
    enum Change {
        /// New right-hand sides (another witness, other slacks).
        Rhs(Vec<i32>, Vec<i32>),
        Objective(Vec<i32>),
        /// `delta` on one coefficient of a basic / nonbasic structural column.
        Coefficient {
            basic: bool,
            pick: usize,
            row: usize,
            delta: i32,
        },
        /// Growth: new `(cost, coefficient per old row)` columns and
        /// `(coefficient per column, >=?, slack at the old optimum)` rows,
        /// the first `front` of each spliced in before the old ones.
        Growth {
            cols: Vec<(i32, Vec<i32>)>,
            rows: Vec<(Vec<i32>, bool, i32)>,
            front: (usize, usize),
        },
    }

    fn arb_change() -> impl Strategy<Value = Change> {
        let ints =
            |range: std::ops::RangeInclusive<i32>, len| proptest::collection::vec(range, len);
        (
            0usize..5,
            (ints(0..=3, 4), ints(0..=5, 5), ints(-5..=5, 4)),
            (0usize..4, 0usize..5, 1i32..=3, any::<bool>()),
            (
                proptest::collection::vec((-5i32..=5, ints(-4..=4, 5)), 0..=3),
                proptest::collection::vec((ints(-4..=4, 7), any::<bool>(), 0i32..=5), 0..=3),
                (0usize..=3, 0usize..=3),
            ),
        )
            .prop_map(
                |(kind, (witness, slacks, c), (pick, row, size, down), (cols, rows, front))| {
                    match kind {
                        0 => Change::Rhs(witness, slacks),
                        1 => Change::Objective(c),
                        2 | 3 => {
                            let delta = if down { -size } else { size };
                            Change::Coefficient { basic: kind == 2, pick, row, delta }
                        }
                        _ => Change::Growth { cols, rows, front },
                    }
                },
            )
    }

    fn arb_lp() -> impl Strategy<Value = DenseLp> {
        (2usize..=4, 1usize..=4).prop_flat_map(|(n, m)| {
            let ints =
                |range: std::ops::RangeInclusive<i32>, len| proptest::collection::vec(range, len);
            let rows = proptest::collection::vec((ints(-4..=4, n), any::<bool>(), 0i32..=5), m);
            (rows, ints(0..=3, n), ints(-5..=5, n)).prop_map(move |(rows, witness, c)| {
                let c = c.iter().map(|&v| v as f64).collect();
                let mut lp = DenseLp { c, upper: vec![f64::INFINITY; n], rows: Vec::new() };
                for (a, ge, slack) in rows {
                    let a: Vec<f64> = a.iter().map(|&v| v as f64).collect();
                    lp.rows.push(row_through(a, &witness, ge, slack));
                }
                lp.rows.push((vec![1.0; n], Relation::Le, 50.0));
                lp
            })
        })
    }

    /// The row `a·x <= a·at + slack` (or `>= a·at - slack`).
    fn row_through<T: Copy + Into<f64>>(
        a: Vec<f64>,
        at: &[T],
        ge: bool,
        slack: i32,
    ) -> (Vec<f64>, Relation, f64) {
        let dot: f64 = a.iter().zip(at).map(|(&ai, &xi)| ai * xi.into()).sum();
        if ge {
            (a, Relation::Ge, dot - slack as f64)
        } else {
            (a, Relation::Le, dot + slack as f64)
        }
    }

    /// Applies `change` to `lp` (solved to `x`, basis in `handle`): the LP to
    /// restart, with `handle` re-labelled for it where it grew. `None` when
    /// the change has nothing to pick from.
    fn changed(lp: &DenseLp, x: &[f64], handle: &mut Basis, change: &Change) -> Option<DenseLp> {
        let (n, m) = (lp.c.len(), lp.rows.len());
        let mut next = lp.clone();
        match change {
            Change::Rhs(witness, slacks) => {
                for ((a, rel, rhs), &slack) in next.rows[..m - 1].iter_mut().zip(slacks) {
                    *rhs = row_through(a.clone(), &witness[..n], *rel == Relation::Ge, slack).2;
                }
            }
            Change::Objective(c) => {
                next.c = c[..n].iter().map(|&v| v as f64).collect();
            }
            Change::Coefficient { basic, pick, row, delta } => {
                let candidates: Vec<usize> =
                    (0..n).filter(|j| handle.basic.contains(j) == *basic).collect();
                let j = *candidates.get(pick % candidates.len().max(1))?;
                next.rows[row % m].0[j] += *delta as f64;
            }
            Change::Growth { cols, rows, front } => {
                let (front_cols, front_rows) = (front.0.min(cols.len()), front.1.min(rows.len()));
                let k = cols.len();
                let widen = |old: &[f64], new: &dyn Fn(usize) -> f64| -> Vec<f64> {
                    let new = (0..k).map(new);
                    let mut wide: Vec<f64> = new.clone().take(front_cols).collect();
                    wide.extend_from_slice(old);
                    wide.extend(new.skip(front_cols));
                    wide
                };
                next.c = widen(&lp.c, &|c| cols[c].0 as f64);
                next.upper = widen(&lp.upper, &|_| f64::INFINITY);
                let at: Vec<f64> = widen(x, &|_| 0.0);
                let mut old_rows: Vec<_> = lp.rows[..m - 1]
                    .iter()
                    .enumerate()
                    .map(|(i, (a, rel, rhs))| (widen(a, &|c| cols[c].1[i] as f64), *rel, *rhs))
                    .collect();
                // The box covers the new columns too: the grown LP stays bounded.
                old_rows.push((vec![1.0; n + k], Relation::Le, 50.0));
                let new_rows = rows.iter().map(|(a, ge, slack)| {
                    let a = widen(&a[..n].iter().map(|&v| v as f64).collect::<Vec<_>>(), &|c| {
                        a[4 + c] as f64
                    });
                    row_through(a, &at, *ge, *slack)
                });
                let mut new_rows: Vec<_> = new_rows.collect();
                next.rows = new_rows.drain(..front_rows).collect();
                next.rows.extend(old_rows);
                next.rows.extend(new_rows);
                let columns: Vec<usize> = (0..n).map(|j| front_cols + j).collect();
                let row_map: Vec<usize> = (0..m).map(|i| front_rows + i).collect();
                let grown = next.problem();
                assert!(handle.relabel(&grown, &columns, &row_map, &vec![None; rows.len()]));
            }
        }
        Some(next)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The restart's contract over every kind of change it meets: the
        /// exact column comparison replaces the positions the numerical
        /// test would have (integer data: the two can be told apart),
        /// touches nothing when only right-hand sides or costs moved, and
        /// the restarted solve reaches the cold optimum.
        #[test]
        fn restart_pays_for_the_columns_that_changed(lp in arb_lp(), change in arb_change()) {
            let opts = SolverOptions::default();
            let mut handle = Basis::new();
            let first = lp.problem().solve_warm(&mut handle).expect("feasible at the witness");
            prop_assert!(handle.is_warm(), "no equality rows: nothing keeps an artificial basic");
            let Some(next) = changed(&lp, first.values(), &mut handle, &change) else {
                return Ok(());
            };
            let next = next.problem();
            let sf = next.to_standard_form();
            let matrix_kept = matches!(change, Change::Rhs(..) | Change::Objective(..));
            match complete_carried(&sf, &opts, &handle) {
                Some((stale, complete, (replaced, audits))) => {
                    prop_assert_eq!(audits, 0);
                    if complete {
                        prop_assert_eq!(replaced, stale as u64, "cheap vs numerical verdict");
                    }
                    if matrix_kept {
                        prop_assert!(complete && replaced == 0, "{replaced} columns re-multiplied");
                    }
                }
                None => prop_assert!(!matrix_kept, "an unchanged matrix keeps its basis"),
            }
            match (next.solve_warm(&mut handle), next.solve()) {
                (Ok(warm), Ok(cold)) => {
                    let (a, b) = (warm.objective(), cold.objective());
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())), "warm {a} vs cold {b}");
                    prop_assert!(warm.warm_started() || !matrix_kept);
                }
                (warm, cold) => prop_assert_eq!(warm.map(|s| s.objective()).ok(), cold.map(|s| s.objective()).ok()),
            }
        }
    }

    /// One move of the drive that [`sparse_inverse_is_the_dense_one_to_the_bit`]
    /// takes the engine and the dense reference through.
    #[derive(Clone, Debug)]
    enum Step {
        /// The `pick`-th nonbasic column enters: a pivot (the leaving
        /// variable at zero or at its upper bound), a bound flip, or
        /// nothing (an unbounded ray).
        Enter(usize),
        Refactorize,
        /// Export, and restart on the same matrix with the right-hand sides
        /// of the flagged rows changing sign.
        Restart(Vec<bool>),
        /// Export, relabel and restart on a grown LP: new `(cost,
        /// coefficient per old row, insert before)` columns, new
        /// `(coefficient per column, >=?, rhs, insert before)` rows, and
        /// two old rows trading places — a row map that is not monotone.
        Grow {
            cols: Vec<(i32, Vec<i32>, usize)>,
            rows: Vec<(Vec<i32>, bool, i32, usize)>,
            swap: Option<(usize, usize)>,
        },
    }

    /// Most rows or columns a driven LP reaches: 5 + 3 growths of 2.
    const DRIVEN: usize = 12;

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let ints =
            |range: std::ops::RangeInclusive<i32>, len| proptest::collection::vec(range, len);
        let grow = (
            proptest::collection::vec((-5i32..=5, ints(-3..=3, DRIVEN), 0usize..DRIVEN), 0..=2),
            proptest::collection::vec(
                (ints(-3..=3, DRIVEN), any::<bool>(), -4i32..=6, 0usize..DRIVEN),
                0..=2,
            ),
            (any::<bool>(), 0usize..DRIVEN, 0usize..DRIVEN),
        );
        let step = (0usize..10, 0usize..64, proptest::collection::vec(any::<bool>(), DRIVEN), grow)
            .prop_map(|(kind, pick, flags, (cols, rows, (swap, a, b)))| match kind {
                0..=5 => Step::Enter(pick),
                6 => Step::Refactorize,
                7 => Step::Restart(flags),
                _ => Step::Grow { cols, rows, swap: swap.then_some((a, b)) },
            });
        proptest::collection::vec(step, 1..=14)
    }

    /// [`arb_lp`] with upper bounds on some variables and, sometimes, an
    /// equality row through the witness (an artificial in the first basis).
    fn arb_bounded_lp() -> impl Strategy<Value = DenseLp> {
        let ints =
            |range: std::ops::RangeInclusive<i32>, len| proptest::collection::vec(range, len);
        (arb_lp(), ints(0..=6, 4), ints(-3..=3, 4), any::<bool>()).prop_map(
            |(mut lp, upper, eq, with_eq)| {
                let n = lp.c.len();
                for (u, &bound) in lp.upper.iter_mut().zip(&upper) {
                    if bound > 0 {
                        *u = bound as f64;
                    }
                }
                if with_eq {
                    let a: Vec<f64> = eq[..n].iter().map(|&v| v as f64).collect();
                    let rhs = a.iter().sum();
                    lp.rows.insert(0, (a, Relation::Eq, rhs));
                }
                lp
            },
        )
    }

    /// The LP `lp` grows into under [`Step::Grow`], with the maps
    /// [`Basis::relabel`] takes: `(grown, columns, rows)`.
    fn grown(
        lp: &DenseLp,
        cols: &[(i32, Vec<i32>, usize)],
        rows: &[(Vec<i32>, bool, i32, usize)],
        swap: Option<(usize, usize)>,
    ) -> (DenseLp, Vec<usize>, Vec<usize>) {
        let (n, m) = (lp.c.len(), lp.rows.len());
        // `Ok(old index)` / `Err(new index)`, in the grown LP's order.
        let spliced = |old: usize, at: &mut dyn Iterator<Item = usize>| {
            let mut order: Vec<Result<usize, usize>> = (0..old).map(Ok).collect();
            for (new, at) in at.enumerate() {
                order.insert(at % (order.len() + 1), Err(new));
            }
            order
        };
        let col_order = spliced(n, &mut cols.iter().map(|c| c.2));
        let mut row_order = spliced(m, &mut rows.iter().map(|r| r.3));
        if let Some((a, b)) = swap {
            let at = |old| row_order.iter().position(|&r| r == Ok(old % m)).unwrap();
            let (a, b) = (at(a), at(b));
            row_order.swap(a, b);
        }
        let map = |order: &[Result<usize, usize>], old: usize| -> Vec<usize> {
            (0..old).map(|k| order.iter().position(|&o| o == Ok(k)).unwrap()).collect()
        };
        let grown = DenseLp {
            c: col_order
                .iter()
                .map(|&c| c.map_or_else(|new| cols[new].0 as f64, |j| lp.c[j]))
                .collect(),
            upper: col_order.iter().map(|&c| c.map_or(f64::INFINITY, |j| lp.upper[j])).collect(),
            rows: row_order
                .iter()
                .map(|&r| match r {
                    Ok(i) => {
                        let (a, rel, rhs) = &lp.rows[i];
                        let wide = col_order
                            .iter()
                            .map(|&c| c.map_or_else(|new| cols[new].1[i] as f64, |j| a[j]));
                        (wide.collect(), *rel, *rhs)
                    }
                    Err(new) => {
                        let (a, ge, rhs, _) = &rows[new];
                        let rel = if *ge { Relation::Ge } else { Relation::Le };
                        (a[..col_order.len()].iter().map(|&v| v as f64).collect(), rel, *rhs as f64)
                    }
                })
                .collect(),
        };
        (grown, map(&col_order, n), map(&row_order, m))
    }

    /// Equal to the bit, zeros of either sign being one value.
    fn agree(what: &str, sparse: &[f64], dense: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(sparse.len(), dense.len(), "{what}: length");
        for (i, (&a, &b)) in sparse.iter().zip(dense).enumerate() {
            let same = a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
            prop_assert!(same, "{what}[{i}]: sparse {a:e} vs dense {b:e}");
        }
        Ok(())
    }

    /// Every reader of the inverse gives what the dense kernels give on
    /// `dense`, the inverse scattered is `dense`, and it inverts the basis.
    fn check(eng: &mut Engine, dense: &DenseInverse) -> Result<(), TestCaseError> {
        let m = eng.m;
        prop_assert_eq!(eng.binv.len(), m);
        for col in &eng.binv.cols {
            prop_assert!(col.windows(2).all(|e| e[0].0 < e[1].0) && col.iter().all(|e| e.1 != 0.0));
        }
        agree("inverse", &DenseInverse::of(&eng.binv).binv, &dense.binv)?;
        for j in 0..eng.total_n {
            eng.compute_w(j);
            agree("w", &eng.scratch_w, &dense.compute_w(eng, j))?;
            if let Some(i) = eng.basis.iter().position(|&b| b == j) {
                let unit = eng.scratch_w.iter().enumerate();
                let off = unit.map(|(k, &wk)| (wk - if k == i { 1.0 } else { 0.0 }).abs());
                prop_assert!(off.fold(0.0, f64::max) <= 1e-9, "B^-1 B != I at {i}");
            }
        }
        let mut phase2 = eng.sf.c.clone();
        phase2.resize(eng.total_n, 0.0);
        let patchy: Vec<f64> =
            (0..eng.total_n).map(|j| if j % 2 == 0 { 0.0 } else { j as f64 - 2.5 }).collect();
        for cost in [phase2, patchy] {
            eng.compute_y(&cost);
            agree("y", &eng.scratch_y, &dense.compute_y(&eng.basis, &cost))?;
        }
        for r in 0..m {
            eng.gather_row(r);
            let row: Vec<f64> = (0..m).map(|k| dense.binv[k * m + r]).collect();
            agree("row", &eng.scratch_row, &row)?;
        }
        eng.recompute_xb();
        agree("xb", &eng.xb, &dense.recompute_xb(eng))
    }

    /// Takes the engine and the dense reference through `steps` on `lp`,
    /// from the slack basis or from `warm` (a handle to restart from and
    /// the reference as it stood at its export, relabelled alike).
    fn drive(
        lp: &DenseLp,
        warm: Option<(Basis, DenseInverse)>,
        steps: &[Step],
    ) -> Result<(), TestCaseError> {
        let sf = lp.problem().to_standard_form();
        let opts = SolverOptions::default();
        let (mut eng, mut dense) = match warm {
            None => (Engine::new(&sf, opts), DenseInverse::identity(sf.b.len())),
            Some((mut handle, mut dense)) => {
                let inverts = handle.carried.cols.clone();
                let eng = Engine::with_basis(&sf, opts, &mut handle).expect("labels fit");
                dense.flip_negated_rows(&sf.negated);
                if !dense.complete(&eng, &inverts) {
                    dense.refactorize(&eng);
                }
                (eng, dense)
            }
        };
        check(&mut eng, &dense)?;
        for (done, step) in steps.iter().enumerate() {
            match step {
                Step::Enter(pick) => {
                    let nonbasic: Vec<usize> =
                        (0..eng.art_start).filter(|&j| eng.rest[j] != Rest::Basic).collect();
                    let j = nonbasic[pick % nonbasic.len()];
                    eng.compute_w(j);
                    let from_upper = eng.rest[j] == Rest::Upper;
                    let sign = if from_upper { -1.0 } else { 1.0 };
                    match eng.ratio_test(j, sign, false) {
                        (_, Block::None) => {}
                        (_, Block::BoundFlip) => {
                            eng.rest[j] = if from_upper { Rest::Lower } else { Rest::Upper };
                        }
                        (theta, Block::Leaves { row, at_upper }) => {
                            dense.eta_update(row, &eng.scratch_w);
                            eng.pivot(j, row, theta, sign, from_upper, at_upper);
                        }
                    }
                }
                Step::Refactorize => {
                    eng.refactorize().expect("a basis reached by pivots");
                    dense.refactorize(&eng);
                }
                Step::Restart(_) | Step::Grow { .. } => {
                    let mut handle = Basis::new();
                    eng.export_basis(&mut handle);
                    if !handle.is_warm() {
                        continue; // an artificial is still basic: nothing to restart from
                    }
                    dense.flip_negated_rows(&sf.negated);
                    agree(
                        "exported",
                        &DenseInverse::of(&handle.carried.inverse).binv,
                        &dense.binv,
                    )?;
                    let next = match step {
                        Step::Grow { cols, rows, swap } if lp.c.len() + 2 <= DRIVEN => {
                            let (next, columns, row_map) = grown(lp, cols, rows, *swap);
                            let enter = vec![None; rows.len()];
                            prop_assert!(handle.relabel(
                                &next.problem(),
                                &columns,
                                &row_map,
                                &enter
                            ));
                            dense = dense.extended(&row_map, next.rows.len());
                            let carried = DenseInverse::of(&handle.carried.inverse);
                            agree("relabelled", &carried.binv, &dense.binv)?;
                            next
                        }
                        Step::Restart(flags) => {
                            let mut next = lp.clone();
                            for (row, _) in next.rows.iter_mut().zip(flags).filter(|(_, &f)| f) {
                                row.2 = -row.2;
                            }
                            next
                        }
                        _ => lp.clone(),
                    };
                    return drive(&next, Some((handle, dense)), &steps[done + 1..]);
                }
            }
            check(&mut eng, &dense)?;
        }
        Ok(())
    }

    proptest! {
        /// The sparse inverse against the dense one it replaced, through
        /// pivots, bound flips, refactorizations, exports, sign-changing
        /// right-hand sides and relabelling to a grown LP: after every step
        /// the stored nonzeros scatter to the reference's matrix bit for
        /// bit, and every vector read off them is the reference's.
        #[test]
        fn sparse_inverse_is_the_dense_one_to_the_bit(lp in arb_bounded_lp(), steps in arb_steps()) {
            drive(&lp, None, &steps)?;
        }
    }

    #[test]
    fn carried_inverse_is_audited_once_it_is_old_enough() {
        // min ∓(x0 - x1) over x0 + x1 <= 4: every re-solve pivots once, so
        // the carried inverse ages by one eta update per solve and never
        // sees a refactorization of its own (1 pivot < refactor_every).
        let opts = SolverOptions { refactor_every: 8, ..Default::default() };
        let lp = |minute: usize| {
            let sign = if minute.is_multiple_of(2) { 1.0 } else { -1.0 };
            let mut p = Problem::minimize(2);
            p.set_objective(0, -sign);
            p.set_objective(1, sign);
            p.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
            p
        };
        let mut handle = Basis::new();
        solve_standard_form_warm(&lp(0).to_standard_form(), &opts, &mut handle).unwrap();
        assert_eq!(handle.carried.age, 1);
        let (_, (replaced, audits, _)) = restart_work(|| {
            for minute in 1..=opts.refactor_every + 1 {
                let sf = lp(minute).to_standard_form();
                let sol = solve_standard_form_warm(&sf, &opts, &mut handle).unwrap();
                assert!(sol.warm_started() && sol.iterations() == 1);
                assert!((sol.objective() + 4.0).abs() < 1e-12);
            }
        });
        assert_eq!((replaced, audits), (0, 1), "one audit, and it found the inverse sound");
        assert_eq!(handle.carried.age, 2, "the audit restarted the count");
    }

    #[test]
    fn pricing_vector_and_basic_values_match_their_dense_forms() {
        // 40 capacity-like rows (the last with nothing to give) over 30 bounded
        // variables, costs that leave some basics free of charge and some
        // nonbasics at their upper bound.
        let (m, n) = (40usize, 30usize);
        let mut p = Problem::minimize(n);
        for j in 0..n {
            p.set_objective(j, if j % 3 == 0 { 0.0 } else { -(((j * 7) % 5) as f64) - 0.5 });
            p.set_upper_bound(j, 1.0 + (j % 4) as f64);
        }
        for i in 0..m {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .filter(|j| (i * 5 + j * 3) % 7 < 2)
                .map(|j| (j, 1.0 + ((i + 2 * j) % 3) as f64 / 4.0))
                .collect();
            let rhs = if i == m - 1 { 0.0 } else { 4.0 + 2.0 * (i % 5) as f64 };
            p.add_row(Relation::Le, rhs, &coeffs);
        }
        let mut handle = Basis::new();
        p.solve_warm(&mut handle).unwrap();
        let sf = p.to_standard_form();
        let mut eng = Engine::with_basis(&sf, SolverOptions::default(), &mut handle).unwrap();
        assert!(
            eng.basis.iter().any(|&j| sf.c[j] == 0.0) && eng.basis.iter().any(|&j| sf.c[j] != 0.0)
        );
        assert!(eng.rest.contains(&Rest::Upper));

        let binv = DenseInverse::of(&eng.binv).binv;
        assert!(binv.contains(&0.0), "the skipped terms are exercised");
        eng.compute_y(&sf.c);
        for k in 0..m {
            let dense: f64 = (0..m).map(|i| sf.c[eng.basis[i]] * binv[k * m + i]).sum();
            assert_eq!(eng.scratch_y[k], dense, "y[{k}]");
        }
        let mut rhs = sf.b.clone();
        for j in (0..sf.num_cols()).filter(|&j| eng.rest[j] == Rest::Upper) {
            sf.col(j).iter().for_each(|&(r, v)| rhs[r] -= v * sf.upper[j]);
        }
        assert!(rhs.contains(&0.0), "the skipped terms are exercised");
        eng.recompute_xb();
        for i in 0..m {
            let mut acc = 0.0;
            for k in 0..m {
                acc += binv[k * m + i] * rhs[k];
            }
            let dense = if acc < 0.0 && acc > -1e-7 { 0.0 } else { acc };
            assert_eq!(eng.xb[i], dense, "xb[{i}]");
        }
    }

    #[test]
    fn textbook_2d_max() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative)
        let mut p = Problem::minimize(2);
        p.set_objective(0, -3.0);
        p.set_objective(1, -5.0);
        p.add_row(Relation::Le, 4.0, &[(0, 1.0)]);
        p.add_row(Relation::Le, 12.0, &[(1, 2.0)]);
        p.add_row(Relation::Le, 18.0, &[(0, 3.0), (1, 2.0)]);
        let s = p.solve().unwrap();
        assert!((s.objective() + 36.0).abs() < 1e-8, "got {}", s.objective());
        assert!((s.value(0) - 2.0).abs() < 1e-8);
        assert!((s.value(1) - 6.0).abs() < 1e-8);
    }

    #[test]
    fn equality_rows_need_artificials() {
        // min x + y  s.t. x + y = 2, x - y = 0  => x = y = 1
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_row(Relation::Eq, 2.0, &[(0, 1.0), (1, 1.0)]);
        p.add_row(Relation::Eq, 0.0, &[(0, 1.0), (1, -1.0)]);
        let s = p.solve().unwrap();
        assert!((s.value(0) - 1.0).abs() < 1e-8);
        assert!((s.value(1) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn ge_rows() {
        // min 2x + 3y  s.t. x + y >= 10, x <= 6  => x=6, y=4, obj=24
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_row(Relation::Ge, 10.0, &[(0, 1.0), (1, 1.0)]);
        p.add_row(Relation::Le, 6.0, &[(0, 1.0)]);
        let s = p.solve().unwrap();
        assert!((s.objective() - 24.0).abs() < 1e-8);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x - y  s.t. x + y <= 10, x <= 3 (bound), y <= 4 (bound)
        let mut p = Problem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        p.set_upper_bound(0, 3.0);
        p.set_upper_bound(1, 4.0);
        p.add_row(Relation::Le, 10.0, &[(0, 1.0), (1, 1.0)]);
        let s = p.solve().unwrap();
        assert!((s.value(0) - 3.0).abs() < 1e-8);
        assert!((s.value(1) - 4.0).abs() < 1e-8);
        assert!((s.objective() + 7.0).abs() < 1e-8);
    }

    #[test]
    fn bound_flip_only_problem() {
        // No rows at all: negative costs drive variables to their bounds.
        let mut p = Problem::minimize(2);
        p.set_objective(0, -2.0);
        p.set_objective(1, 1.0);
        p.set_upper_bound(0, 5.0);
        let s = p.solve().unwrap();
        assert!((s.value(0) - 5.0).abs() < 1e-9);
        assert_eq!(s.value(1), 0.0);
    }

    #[test]
    fn upper_bound_transport_matches_row_formulation() {
        // Same LP expressed with bounds vs. with explicit cap rows.
        let cases = [(2.0, 7.0), (3.5, 1.0), (1.0, 10.0)];
        for (cap0, cap1) in cases {
            let mut with_bounds = Problem::minimize(2);
            with_bounds.set_objective(0, -3.0);
            with_bounds.set_objective(1, -2.0);
            with_bounds.set_upper_bound(0, cap0);
            with_bounds.set_upper_bound(1, cap1);
            with_bounds.add_row(Relation::Le, 8.0, &[(0, 1.0), (1, 1.0)]);

            let mut with_rows = Problem::minimize(2);
            with_rows.set_objective(0, -3.0);
            with_rows.set_objective(1, -2.0);
            with_rows.add_row(Relation::Le, cap0, &[(0, 1.0)]);
            with_rows.add_row(Relation::Le, cap1, &[(1, 1.0)]);
            with_rows.add_row(Relation::Le, 8.0, &[(0, 1.0), (1, 1.0)]);

            let a = with_bounds.solve().unwrap();
            let b = with_rows.solve().unwrap();
            assert!((a.objective() - b.objective()).abs() < 1e-8);
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize(1);
        p.add_row(Relation::Le, 1.0, &[(0, 1.0)]);
        p.add_row(Relation::Ge, 2.0, &[(0, 1.0)]);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn infeasible_by_bounds() {
        let mut p = Problem::minimize(1);
        p.set_upper_bound(0, 1.0);
        p.add_row(Relation::Ge, 2.0, &[(0, 1.0)]);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0);
        p.add_row(Relation::Ge, 0.0, &[(0, 1.0)]);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn iteration_limit_is_reported() {
        // A feasible LP with a 1-pivot budget must fail with IterationLimit,
        // not hang or return garbage.
        let mut p = Problem::minimize(6);
        for j in 0..6 {
            p.set_objective(j, -1.0);
        }
        for r in 0..6 {
            let coeffs: Vec<(usize, f64)> =
                (0..6).map(|j| (j, if j == r { 2.0 } else { 1.0 })).collect();
            p.add_row(Relation::Le, 10.0, &coeffs);
        }
        let opts = SolverOptions { max_iterations: 1, ..Default::default() };
        let sf = p.to_standard_form();
        assert_eq!(
            solve_standard_form_cold(&sf, &opts, None).unwrap_err(),
            LpError::IterationLimit
        );
    }

    #[test]
    fn bounded_variable_not_unbounded() {
        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0);
        p.set_upper_bound(0, 9.0);
        p.add_row(Relation::Ge, 0.0, &[(0, 1.0)]);
        let s = p.solve().unwrap();
        assert!((s.value(0) - 9.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut p = Problem::minimize(3);
        p.set_objective(0, -0.75);
        p.set_objective(1, 150.0);
        p.set_objective(2, -0.02);
        p.add_row(Relation::Le, 0.0, &[(0, 0.25), (1, -60.0), (2, -0.04)]);
        p.add_row(Relation::Le, 0.0, &[(0, 0.5), (1, -90.0), (2, -0.02)]);
        p.add_row(Relation::Le, 1.0, &[(2, 1.0)]);
        let s = p.solve().unwrap();
        assert!(s.objective() <= 0.0);
    }

    #[test]
    fn redundant_equality_rows() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.add_row(Relation::Eq, 2.0, &[(0, 1.0), (1, 1.0)]);
        p.add_row(Relation::Eq, 2.0, &[(0, 1.0), (1, 1.0)]);
        let s = p.solve().unwrap();
        assert!((s.value(0) + s.value(1) - 2.0).abs() < 1e-8);
        assert!(s.value(0).abs() < 1e-8, "minimizing x drives it to 0");
    }

    #[test]
    fn zero_rhs_equality() {
        let mut p = Problem::minimize(3);
        p.set_objective(0, 5.0);
        p.set_objective(1, 4.0);
        p.set_objective(2, 3.0);
        p.add_row(Relation::Eq, 1.0, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        p.add_row(Relation::Eq, 0.0, &[(0, 1.0), (1, -1.0)]);
        let s = p.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-8);
        assert!((s.value(2) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn free_column_variable_unbounded() {
        let mut p = Problem::minimize(2);
        p.set_objective(1, -1.0);
        p.add_row(Relation::Le, 1.0, &[(0, 1.0)]);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn no_constraints() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
    }

    #[test]
    fn moderately_sized_transport_problem() {
        let (ns, nd) = (4usize, 5usize);
        let supply = [30.0, 20.0, 25.0, 25.0];
        let demand = [20.0, 20.0, 20.0, 20.0, 20.0];
        let mut p = Problem::minimize(ns * nd);
        for i in 0..ns {
            for j in 0..nd {
                p.set_objective(i * nd + j, (i as f64 - j as f64).abs());
            }
        }
        for (i, s) in supply.iter().enumerate() {
            let coeffs: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
            p.add_row(Relation::Eq, *s, &coeffs);
        }
        for (j, d) in demand.iter().enumerate() {
            let coeffs: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
            p.add_row(Relation::Eq, *d, &coeffs);
        }
        let s = p.solve().unwrap();
        for i in 0..ns {
            let row: f64 = (0..nd).map(|j| s.value(i * nd + j)).sum();
            assert!((row - supply[i]).abs() < 1e-6);
        }
        for j in 0..nd {
            let col: f64 = (0..ns).map(|i| s.value(i * nd + j)).sum();
            assert!((col - demand[j]).abs() < 1e-6);
        }
        // Optimal cost equals the earth-mover distance between the supply and
        // demand profiles on the line: sum over prefixes of |cum_supply -
        // cum_demand| = 10 + 10 + 15 + 20 = 55.
        assert!((s.objective() - 55.0).abs() < 1e-6, "got {}", s.objective());
    }

    #[test]
    fn capped_transport_shifts_to_second_best() {
        // One source, two sinks; cheap route capped, overflow to expensive.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0); // cheap
        p.set_objective(1, 4.0); // detour
        p.set_upper_bound(0, 6.0);
        p.add_row(Relation::Eq, 10.0, &[(0, 1.0), (1, 1.0)]);
        let s = p.solve().unwrap();
        assert!((s.value(0) - 6.0).abs() < 1e-8);
        assert!((s.value(1) - 4.0).abs() < 1e-8);
        assert!((s.objective() - 22.0).abs() < 1e-8);
    }
}
