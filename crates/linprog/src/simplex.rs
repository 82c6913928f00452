//! Two-phase revised simplex over the equality standard form, with native
//! variable upper bounds.
//!
//! The basis inverse is kept as a dense **column-major** matrix so the three
//! hot operations — pricing vector `y = c_B B⁻¹`, entering column
//! `w = B⁻¹ A_j`, and the eta update after a pivot — all stream over
//! contiguous memory.
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

    /// Appends a column (rows strictly increasing, coefficients nonzero).
    fn push_col(&mut self, col: impl Iterator<Item = (usize, f64)>) {
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
/// their upper bound) the handle carries the basis *inverse* together with
/// the sparse columns of the matrix that inverse inverts. A restart
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
    /// Column-major m*m inverse; empty when none is carried (very large
    /// bases — see [`BINV_CARRY_LIMIT`] — or a solve that did not finish).
    binv: Vec<f64>,
    /// The matrix `binv` inverts, one column per basis position. At export
    /// these are the basic columns themselves; [`Basis::relabel`] maps them
    /// along with the inverse and puts unit columns in the new rows.
    cols: SparseCols,
    /// Eta updates `binv` has taken since it was last factorized or
    /// numerically audited.
    age: usize,
}

/// Largest row count whose basis inverse is carried inside [`Basis`]
/// (32 MB of f64 at the limit); beyond it a warm restart refactorizes.
const BINV_CARRY_LIMIT: usize = 2048;

impl std::fmt::Debug for Basis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Basis")
            .field("shape", &self.shape)
            .field("basic", &self.basic)
            .field("at_upper", &self.at_upper)
            .field("carries_binv", &!self.carried.binv.is_empty())
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

    /// Heap bytes this handle holds — all but a sliver of it the carried
    /// m*m inverse.
    pub fn heap_bytes(&self) -> usize {
        let words = self.basic.len()
            + self.at_upper.len()
            + self.slack_rows.len()
            + self.carried.binv.len()
            + self.carried.cols.ptr.len()
            + 2 * self.carried.cols.entries.len();
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
    /// permuted, identity on the new rows) and the columns stored with it
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
                old if old.binv.len() == m * m && new_m <= BINV_CARRY_LIMIT => {
                    old.extended(rows, new_m)
                }
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
    /// `new_m`), and every other row is new and gets the unit column in both.
    fn extended(self, rows: &[usize], new_m: usize) -> Carried {
        let m = rows.len();
        let mut old_position = vec![usize::MAX; new_m];
        for (k, &r) in rows.iter().enumerate() {
            old_position[r] = k;
        }
        let mut binv = vec![0.0; new_m * new_m];
        for (k, &rk) in rows.iter().enumerate() {
            let to = &mut binv[rk * new_m..(rk + 1) * new_m];
            for (&ri, &v) in rows.iter().zip(&self.binv[k * m..(k + 1) * m]) {
                to[ri] = v;
            }
        }
        let monotone = rows.windows(2).all(|w| w[0] < w[1]);
        let mut cols = SparseCols::default();
        cols.entries.reserve(self.cols.entries.len() + new_m - m);
        for (r, &k) in old_position.iter().enumerate() {
            if k == usize::MAX {
                binv[r * new_m + r] = 1.0;
                cols.push_col(std::iter::once((r, 1.0)));
            } else {
                let start = cols.entries.len();
                cols.push_col(self.cols.col(k).iter().map(|&(row, v)| (rows[row], v)));
                if !monotone {
                    cols.entries[start..].sort_unstable_by_key(|&(row, _)| row);
                }
            }
        }
        Carried { binv, cols, age: self.age }
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

/// Dense column-major basis inverse with the working vectors of the revised
/// simplex.
struct Engine<'a> {
    sf: &'a StandardForm,
    m: usize,
    /// Total columns including artificials.
    total_n: usize,
    /// First artificial column index (== sf.num_cols()).
    art_start: usize,
    /// For artificial j (>= art_start), its row is `art_row[j - art_start]`.
    art_row: Vec<usize>,
    /// Column-major m*m basis inverse: element (i,k) at `binv[k*m + i]`.
    binv: Vec<f64>,
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
    /// Scratch of [`Engine::compute_y`]: `(position, cost)` of the basic
    /// variables with a nonzero cost.
    costed: Vec<(usize, f64)>,
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
        let mut binv = vec![0.0; m * m];
        for k in 0..m {
            binv[k * m + k] = 1.0;
        }
        Engine {
            sf,
            m,
            total_n,
            art_start: n,
            art_row,
            binv,
            basis,
            rest,
            xb: sf.b.clone(),
            opts,
            iterations: 0,
            age: 0,
            stall: 0,
            scratch_y: vec![0.0; m],
            scratch_w: vec![0.0; m],
            costed: Vec::new(),
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

    /// `w = B^-1 A_j` into `scratch_w`.
    fn compute_w(&mut self, j: usize) {
        let m = self.m;
        let mut w = std::mem::take(&mut self.scratch_w);
        w.iter_mut().for_each(|x| *x = 0.0);
        if j < self.art_start {
            for &(r, v) in self.sf.col(j) {
                let colr = &self.binv[r * m..r * m + m];
                for (wi, bi) in w.iter_mut().zip(colr) {
                    *wi += v * bi;
                }
            }
        } else {
            let r = self.art_row[j - self.art_start];
            w.copy_from_slice(&self.binv[r * m..r * m + m]);
        }
        self.scratch_w = w;
    }

    /// `y = c_B' B^-1` into `scratch_y` for the given phase costs (one per
    /// column, artificials included). Only basic variables with a nonzero
    /// cost have a term — phase 1 of the growth LPs costs `omax` and the
    /// `o_l` alone — and the terms that remain are summed in basis order, so
    /// `y` is what the sum over all of `c_B` gives.
    fn compute_y(&mut self, cost: &[f64]) {
        let m = self.m;
        self.costed.clear();
        self.costed.extend(
            self.basis
                .iter()
                .enumerate()
                .filter(|&(_, &j)| cost[j] != 0.0)
                .map(|(i, &j)| (i, cost[j])),
        );
        for (k, yk) in self.scratch_y.iter_mut().enumerate() {
            let colk = &self.binv[k * m..k * m + m];
            *yk = self.costed.iter().map(|&(i, c)| c * colk[i]).sum();
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

    /// Eta update of the column-major inverse after the column whose
    /// `B^-1 A_j` sits in `scratch_w` replaced basis position `r`: for every
    /// column k,
    ///   t = (B^-1)_{r,k};  (B^-1)_{i,k} -= w_i * t / w_r  (i != r);
    ///   (B^-1)_{r,k} = t / w_r.
    fn eta_update(&mut self, r: usize) {
        self.age += 1;
        let m = self.m;
        let wr = self.scratch_w[r];
        for k in 0..m {
            let colk = &mut self.binv[k * m..k * m + m];
            let t = colk[r];
            if t == 0.0 {
                continue;
            }
            let scale = t / wr;
            for i in 0..m {
                colk[i] -= self.scratch_w[i] * scale;
            }
            // The loop above set colk[r] = t - wr * (t/wr) = 0; restore.
            colk[r] = scale;
        }
    }

    /// Rebuilds `binv` from scratch by Gauss-Jordan elimination of the basis
    /// matrix, then recomputes `xb = B^-1 (b - N x_N)`. Guards drift.
    fn refactorize(&mut self) -> Result<(), LpError> {
        telemetry::counter_add("lp.refactorizations", 1);
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
        self.binv = inv;
        self.age = 0;
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes `xb = B^-1 (b - N x_N)` from the current inverse: one
    /// column of it (contiguous) per nonzero of the effective right-hand
    /// side, each entry's terms added in row order.
    fn recompute_xb(&mut self) {
        let m = self.m;
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
            for (x, bik) in self.xb.iter_mut().zip(&self.binv[k * m..k * m + m]) {
                *x += bik * rk;
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
    /// other position intact — O(m · column-nnz) + O(m²) per differing
    /// column, nothing at all when the constraint matrix did not change, and
    /// far below the O(m³) refactorization it lets a warm restart skip.
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
            let (columns, audits) = work.get();
            work.set((columns + replaced, audits + u64::from(audit)));
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
            // Entering candidate: the eligible column with the smallest
            // |reduced cost| per unit of repair (classic dual ratio test,
            // used as a least-damage heuristic since c may have drifted).
            let mut best: Option<(usize, f64, f64)> = None;
            for j in 0..self.total_n {
                if self.rest[j] == Rest::Basic {
                    continue;
                }
                let alpha = if j < self.art_start {
                    self.sf.col(j).iter().map(|&(row, v)| v * self.binv[row * m + r]).sum::<f64>()
                } else {
                    self.binv[self.art_row[j - self.art_start] * m + r]
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
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.art_start {
                if self.rest[j] == Rest::Basic {
                    continue;
                }
                let mut w_rj = 0.0;
                for &(rr, v) in self.sf.col(j) {
                    w_rj += v * self.binv[rr * m + r];
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
        let Carried { binv, cols: inverts, age } = std::mem::take(&mut warm.carried);
        let mut eng = Engine {
            sf,
            m,
            total_n: n,
            art_start: n,
            art_row: Vec::new(),
            binv,
            basis: warm.basic.clone(),
            rest,
            xb: vec![0.0; m],
            opts,
            iterations: 0,
            age,
            stall: 0,
            scratch_y: vec![0.0; m],
            scratch_w: vec![0.0; m],
            costed: Vec::new(),
        };
        let carried = eng.binv.len() == m * m && inverts.len() == m && {
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
        out.carried = if self.m <= BINV_CARRY_LIMIT {
            let mut binv = std::mem::take(&mut self.binv);
            flip_negated_rows(&mut binv, &sf.negated);
            let mut cols = SparseCols::default();
            for &j in &self.basis {
                cols.push_col(sf.posed_col(j));
            }
            Carried { binv, cols, age: self.age }
        } else {
            Carried::default()
        };
    }
}

/// Converts a column-major basis inverse between the standard form's row
/// signs and the posed problem's: negating row k of a matrix negates column
/// k of its inverse.
fn flip_negated_rows(binv: &mut [f64], negated: &[bool]) {
    let m = negated.len();
    for (k, _) in negated.iter().enumerate().filter(|(_, &neg)| neg) {
        binv[k * m..(k + 1) * m].iter_mut().for_each(|v| *v = -*v);
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
        flip_negated_rows, solve_standard_form_cold, solve_standard_form_warm, Engine,
        SolverOptions, StandardForm,
    };
    use crate::{Basis, LpError, Problem, Relation};

    thread_local! {
        /// `(columns replaced, full audits)` by the warm restarts of this
        /// thread — what [`Engine::bring_binv_current`] did, since the last
        /// [`restart_work`] began.
        pub(super) static RESTART_WORK: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    /// Runs `f`; returns its result and the restart work it caused.
    fn restart_work<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        RESTART_WORK.set((0, 0));
        let out = f();
        (out, RESTART_WORK.get())
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
        let (eng, (replaced, _)) = restart_work(|| {
            Engine::with_basis(&sf, SolverOptions::default(), &mut basis.clone()).unwrap()
        });
        // t gained an entry in a new row and z is no bare +1: two columns
        // completed by eta updates — a refactorization would have reset the
        // age instead.
        assert_eq!(replaced, 2);
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
        eng.binv.clone_from(&handle.carried.binv);
        flip_negated_rows(&mut eng.binv, &sf.negated);
        eng.age = handle.carried.age;
        let stale = (0..eng.m)
            .filter(|&i| {
                eng.compute_w(eng.basis[i]);
                !eng.w_is_unit(i)
            })
            .count();
        let (complete, work) = restart_work(|| eng.bring_binv_current(&handle.carried.cols));
        Some((stale, complete, work))
    }

    /// A random LP over small integers: `<=` / `>=` rows a witness point
    /// satisfies, plus a bounding box, as dense rows.
    #[derive(Clone, Debug)]
    struct DenseLp {
        c: Vec<f64>,
        rows: Vec<(Vec<f64>, Relation, f64)>,
    }

    impl DenseLp {
        fn problem(&self) -> Problem {
            let mut p = Problem::minimize(self.c.len());
            for (j, &cj) in self.c.iter().enumerate() {
                p.set_objective(j, cj);
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
                let mut lp = DenseLp { c: c.iter().map(|&v| v as f64).collect(), rows: Vec::new() };
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
        let (_, (replaced, audits)) = restart_work(|| {
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
        assert!(eng.rest.contains(&super::Rest::Upper));

        eng.compute_y(&sf.c);
        for k in 0..m {
            let dense: f64 = (0..m).map(|i| sf.c[eng.basis[i]] * eng.binv[k * m + i]).sum();
            assert_eq!(eng.scratch_y[k], dense, "y[{k}]");
        }
        let mut rhs = sf.b.clone();
        for j in (0..sf.num_cols()).filter(|&j| eng.rest[j] == super::Rest::Upper) {
            sf.col(j).iter().for_each(|&(r, v)| rhs[r] -= v * sf.upper[j]);
        }
        assert!(rhs.contains(&0.0), "the skipped terms are exercised");
        eng.recompute_xb();
        for i in 0..m {
            let mut acc = 0.0;
            for k in 0..m {
                acc += eng.binv[k * m + i] * rhs[k];
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
