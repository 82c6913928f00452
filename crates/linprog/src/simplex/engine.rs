//! The pivoting engine: two-phase revised simplex over the standard form.
//!
//! Upper bounds are handled the standard way: a nonbasic variable may rest
//! at either bound, entering variables move off whichever bound they sit at,
//! and the ratio test admits three block events (a basic variable hitting
//! zero, a basic variable hitting its own upper bound, or the entering
//! variable flipping straight to its opposite bound without a basis change).
//! This keeps row counts small for problems like the paper's locality
//! redistribution LP, where every aggregate has a cap but only the per-node
//! marginals are genuine rows.
//!
//! ## Pricing
//!
//! The duals `y = c_B B⁻¹` and the reduced costs `d_j = c_j − y·A_j` are
//! kept across pivots (the `pricing` module), not rebuilt each one. What
//! is recomputed, and why each value read is what the full formula gives
//! on the same inputs, to the bit:
//!
//! - **On phase entry and after a refactorization:** everything — `y` by
//!   `compute_y`, and `d_j` for every nonbasic column that may enter.
//! - **`y_k` after a pivot in position `r`:** only for the columns of `B⁻¹`
//!   the eta update rewrote (those holding row `r`), by `compute_y`'s own
//!   per-column sum, once `c_B`'s entry `r` is the entering column's cost.
//!   Any other column of `B⁻¹` keeps its entries and every cost it is
//!   multiplied by, so its sum has the same terms in the same order.
//! - **`d_j` after a pivot:** for every nonbasic column crossing a row
//!   whose `y` changed bits, and for the column that left (its `d` was not
//!   kept while it was basic), by the one reduced-cost formula. Every other
//!   column's formula reads the same `y` entries as when it was last
//!   computed.
//! - **Bound flips** change neither `B⁻¹` nor `c_B`: nothing.
//!
//! Dantzig's and Bland's rules scan the kept `d`, so the entering column
//! and every pivot are the ones full pricing chose. The dual repair keeps
//! `y` the same way and computes `d_j` only for the columns that may
//! repair its row. A row index of the standard form (built at a solve's
//! first pivot) finds the columns crossing a row; the same index prunes
//! the repair's and the drive-out's scans of one row of `B⁻¹ A` to the
//! columns crossing a nonzero of that row of `B⁻¹` — any other column's
//! entry there is ±0 and never eligible. `lp.priced_columns` counts the
//! reduced costs computed, full passes included; test builds audit every
//! kept value against a recomputation from scratch after every pivot.
//!
//! ## Artificials
//!
//! The standard form keeps every row in its sign as posed, so a right-hand
//! side may be negative. A row starts on its slack when the slack (`+1` for
//! `<=`, `−1` for `>=`) has the sign of the row's right-hand side, zero
//! counting as positive; any other row — an `==` row, or an inequality whose
//! slack would start negative — starts on an artificial: a column of its
//! own with the one entry `sign(b_r)` in row `r`, numbered from `art_start`
//! on in row order. So the first basis and its inverse are `diag(±1)` and
//! every basic value starts at `|b_r|`. An artificial is otherwise an
//! ordinary column, read through [`Engine::col`] like any other; `art_start`
//! only bounds what may enter, costs phase 1, gives an artificial its
//! infinite upper bound and keeps a basis holding one from being exported.
//!
//! ## Tolerances
//!
//! Every tolerance the engine reads is a constant of the `tol` module,
//! named once; none is an option. "Absolute" means in the units of the
//! quantity tested, whatever the scale of its row or column.
//!
//! | name | value | absolute, or relative to | guards |
//! |---|---|---|---|
//! | [`PRICING_TOL`] | 1e-9 | absolute, objective units | a column enters when its reduced cost is below `-PRICING_TOL`; [`Solution::prices_in`] |
//! | [`PRICES_IN_SLACK`] | 1e-12 | absolute | `prices_in` answers "would enter" this close to `-PRICING_TOL` |
//! | [`PIVOT_TOL`] | 1e-9 | absolute, on `w = B⁻¹A_j` | ratio test: which rows can block |
//! | [`RATIO_TIE`] | 1e-10 | absolute, step length | ratio test: ties between blocking rows |
//! | [`DEGENERATE_STEP`] | 1e-12 | absolute, step length | stall count that switches to Bland's rule |
//! | [`ZERO_PIVOT`] | 1e-12 | absolute, on `w` | no pivot on a zero element (pivot, driving out artificials) |
//! | [`DUAL_RATIO_TIE`] | 1e-12 | absolute, damage ratio | dual repair: ties between entering columns |
//! | [`SINGULAR_PIVOT`] | 1e-12 | absolute, on the basis matrix | refactorization: singular basis |
//! | [`ROUND_OFF`] | 1e-7 | absolute, basic value | round-off clamp of basic values ([`snap_round_off`]) |
//! | [`REPAIR_FEAS_REL`] | 1e-7 | [`rhs_scale`] (one for all rows) | dual repair: which basic values are infeasible |
//! | [`REPAIR_PIVOT`] | 1e-7 | absolute, on `B⁻¹N` | dual repair: which columns may repair a row |
//! | [`PHASE1_FEAS_REL`] | 1e-7 | [`rhs_scale`] (one for all rows) | phase-1 hand-over: infeasible problem |
//! | [`DRIVE_OUT_PIVOT`] | 1e-7 | absolute, on `B⁻¹A` | driving artificials out after phase 1 |
//! | [`UNIT_CHECK_TOL`] | 1e-6 | absolute, on `w` | audit of a carried inverse ([`Engine::w_is_unit`]) |
//! | [`REPLACE_GUARD_REL`] | 1e-3 | the largest entry of the same `w` | warm restart: replace a stale position, or refactorize |
//!
//! The two relative to [`rhs_scale`], `1 + max|b|`, judge every row against
//! the largest right-hand side of the problem, not its own.
//!
//! [`ROUND_OFF`]: super::tol::ROUND_OFF
//! [`SINGULAR_PIVOT`]: super::tol::SINGULAR_PIVOT
//! [`UNIT_CHECK_TOL`]: super::tol::UNIT_CHECK_TOL
//! [`REPLACE_GUARD_REL`]: super::tol::REPLACE_GUARD_REL

use lowlat_telemetry as telemetry;

#[cfg(test)]
use super::basis::tests::RESTART_WORK;
use super::basis::Basis;
use super::inverse::{invert_column_major, SparseInverse};
use super::pricing::Pricing;
use super::standard_form::StandardForm;
use super::tol::{
    rhs_scale, snap_round_off, DEGENERATE_STEP, DRIVE_OUT_PIVOT, DUAL_RATIO_TIE, PHASE1_FEAS_REL,
    PIVOT_TOL, PRICES_IN_SLACK, PRICING_TOL, RATIO_TIE, REPAIR_FEAS_REL, REPAIR_PIVOT, ZERO_PIVOT,
};

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

/// Solver tuning. Every solve outside this crate's tests runs the defaults;
/// the tolerances are constants (module docs, "Tolerances").
#[derive(Clone, Debug)]
pub(crate) struct SolverOptions {
    /// Hard pivot cap; `0` selects `20_000 + 100 * (rows + cols)`.
    pub(crate) max_iterations: usize,
    /// Refactorize the basis inverse every this many pivots of one solve;
    /// a warm restart audits a carried inverse numerically once it has
    /// taken this many eta updates across solves.
    pub(crate) refactor_every: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { max_iterations: 0, refactor_every: 2048 }
    }
}

impl SolverOptions {
    /// The pivot cap of a solve over `m` rows and `n` columns.
    fn pivot_cap(&self, m: usize, n: usize) -> usize {
        if self.max_iterations == 0 {
            20_000 + 100 * (m + n)
        } else {
            self.max_iterations
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
        cost - priced <= -PRICING_TOL + PRICES_IN_SLACK
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
pub(super) enum Rest {
    Lower,
    Upper,
    Basic,
}

/// The basis inverse, as sparse columns, with the (dense, length-m) working
/// vectors of the revised simplex.
pub(super) struct Engine<'a> {
    pub(super) sf: &'a StandardForm,
    pub(super) m: usize,
    /// Total columns including artificials.
    pub(super) total_n: usize,
    /// First artificial column index (== sf.num_cols()).
    pub(super) art_start: usize,
    /// The artificials' columns, one entry each: artificial `j >= art_start`
    /// is `art[j - art_start]` (module docs, "Artificials").
    pub(super) art: Vec<(usize, f64)>,
    /// The basis inverse: element (i,k) is entry `i` of column `k`, exact
    /// zeros not stored.
    pub(super) binv: SparseInverse,
    /// Basic variable per row.
    pub(super) basis: Vec<usize>,
    pub(super) rest: Vec<Rest>,
    /// Current basic solution values (aligned with `basis`).
    pub(super) xb: Vec<f64>,
    pub(super) opts: SolverOptions,
    iterations: usize,
    /// Eta updates `binv` has taken since it was last factorized (or, for a
    /// carried inverse, audited) — [`Carried::age`] while a solve runs.
    pub(super) age: usize,
    /// Consecutive degenerate pivots; triggers Bland's rule.
    stall: usize,
    pub(super) scratch_y: Vec<f64>,
    pub(super) scratch_w: Vec<f64>,
    /// Scratch of [`Engine::compute_y`]: the cost of the basic variable in
    /// each position.
    pub(super) cost_at: Vec<f64>,
    /// Scratch of [`Engine::gather_row`]: one row of the inverse, dense.
    pub(super) scratch_row: Vec<f64>,
    /// Scratch of [`Engine::eta_update`]: the positions where `scratch_w`
    /// is nonzero, and the buffer an updated column is merged into (then
    /// swapped with the column, whose buffer serves the next merge).
    pub(super) w_support: Vec<usize>,
    pub(super) merged: Vec<(usize, f64)>,
    /// The reduced costs and row index pricing keeps between pivots
    /// (module docs, "Pricing").
    pub(super) pricing: Pricing,
}

/// Outcome of the ratio test.
pub(super) enum Block {
    /// Entering variable flips to its other bound; no basis change.
    BoundFlip,
    /// Basic variable in this row leaves at the given bound.
    Leaves { row: usize, at_upper: bool },
    /// Nothing blocks: unbounded direction.
    None,
}

impl<'a> Engine<'a> {
    pub(super) fn new(sf: &'a StandardForm, opts: SolverOptions) -> Self {
        let m = sf.b.len();
        let n = sf.num_cols();

        // A row starts on its slack when the slack has the sign of the
        // row's right-hand side (zero counts as positive), on an artificial
        // of that sign otherwise.
        let sign: Vec<f64> = sf.b.iter().map(|&b| if b < 0.0 { -1.0 } else { 1.0 }).collect();
        let mut basis = vec![usize::MAX; m];
        let mut rest = vec![Rest::Lower; n];
        for j in sf.num_structural..n {
            if let [(r, v)] = *sf.col(j) {
                if v == sign[r] {
                    basis[r] = j;
                    rest[j] = Rest::Basic;
                }
            }
        }
        let mut art = Vec::new();
        for (r, b) in basis.iter_mut().enumerate().filter(|(_, b)| **b == usize::MAX) {
            *b = n + art.len();
            art.push((r, sign[r]));
        }
        let total_n = n + art.len();
        rest.resize(total_n, Rest::Basic);

        // Every initial basic column is `sign[r]` in its row r => B = B⁻¹ =
        // diag(sign), and every nonbasic starts at its lower bound =>
        // xb = sign·b = |b|.
        let binv =
            SparseInverse { cols: sign.iter().enumerate().map(|(r, &s)| vec![(r, s)]).collect() };
        let mut eng = Engine::over(sf, opts, binv, basis, rest, 0);
        eng.total_n = total_n;
        eng.art = art;
        eng.xb = sign.iter().zip(&sf.b).map(|(s, b)| s * b).collect();
        eng
    }

    /// An engine over `sf` with the given inverse and labels, no
    /// artificials, and every working vector zeroed.
    pub(super) fn over(
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
            art: Vec::new(),
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
            pricing: Pricing::default(),
        }
    }

    fn has_artificials(&self) -> bool {
        self.total_n > self.art_start
    }

    /// The nonzeros of column `j`, artificials included: the one place
    /// that says where a column's entries live.
    #[inline]
    pub(super) fn col(&self, j: usize) -> &[(usize, f64)] {
        if j < self.art_start {
            self.sf.col(j)
        } else {
            std::slice::from_ref(&self.art[j - self.art_start])
        }
    }

    fn upper(&self, j: usize) -> f64 {
        if j < self.sf.upper.len() {
            self.sf.upper[j]
        } else {
            f64::INFINITY // artificials
        }
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
        self.price_all(cost, enterable);
        loop {
            if self.iterations >= max_iter {
                return Err(LpError::IterationLimit);
            }
            #[cfg(test)]
            self.audit_prices(cost, true);

            // Pricing: Dantzig normally, Bland's rule while stalled.
            let bland = self.stall > self.m + 64;
            let Some(j) = self.entering(bland) else {
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
                        self.xb[i] = snap_round_off(self.xb[i] - span * sign * self.scratch_w[i]);
                    }
                    self.rest[j] = if from_upper { Rest::Lower } else { Rest::Upper };
                    self.iterations += 1;
                    self.stall = if span <= DEGENERATE_STEP { self.stall + 1 } else { 0 };
                }
                Block::Leaves { row, at_upper } => {
                    self.stall = if theta <= DEGENERATE_STEP { self.stall + 1 } else { 0 };
                    let leaving = self.basis[row];
                    self.pivot(j, row, theta, sign, from_upper, at_upper);
                    self.reprice(cost, row, leaving);
                }
            }

            if self.iterations.is_multiple_of(self.opts.refactor_every) {
                self.refactorize()?;
                self.price_all(cost, enterable);
            }
        }
    }

    /// Ratio test for entering variable `j` moving with direction `sign`
    /// (`scratch_w` holds `B^-1 A_j`). Returns the step length `t >= 0` and
    /// what blocked it.
    pub(super) fn ratio_test(&self, j: usize, sign: f64, bland: bool) -> (f64, Block) {
        let mut theta = self.upper(j); // bound-flip distance
        let mut block = if theta.is_finite() { Block::BoundFlip } else { Block::None };
        let mut best_w = 0.0;
        for i in 0..self.m {
            let wi = sign * self.scratch_w[i];
            // Basic value moves as xb_i - t * wi.
            let (limit, at_upper) = if wi > PIVOT_TOL {
                ((self.xb[i].max(0.0)) / wi, false)
            } else if wi < -PIVOT_TOL {
                let ub = self.upper(self.basis[i]);
                if !ub.is_finite() {
                    continue;
                }
                (((ub - self.xb[i]).max(0.0)) / -wi, true)
            } else {
                continue;
            };
            let better = if limit < theta - RATIO_TIE {
                true
            } else if limit <= theta + RATIO_TIE {
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
    pub(super) fn pivot(
        &mut self,
        j: usize,
        r: usize,
        theta: f64,
        sign: f64,
        from_upper: bool,
        leave_at_upper: bool,
    ) {
        let m = self.m;
        debug_assert!(self.scratch_w[r].abs() > ZERO_PIVOT, "pivot on ~zero element");

        // Update basic values; forgive only round-off-sized negativity so
        // genuine drift still surfaces (and is repaired by refactorization).
        for i in 0..m {
            if i != r {
                self.xb[i] = snap_round_off(self.xb[i] - theta * sign * self.scratch_w[i]);
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

    /// Rebuilds `binv` from scratch by Gauss-Jordan elimination of the basis
    /// matrix — on a dense m×m scratch, the one place that has one — then
    /// recomputes `xb = B^-1 (b - N x_N)`. Guards drift.
    pub(super) fn refactorize(&mut self) -> Result<(), LpError> {
        telemetry::counter_add("lp.refactorizations", 1);
        #[cfg(test)]
        RESTART_WORK.with(|work| {
            let (columns, audits, refactorizations) = work.get();
            work.set((columns, audits, refactorizations + 1));
        });
        let m = self.m;
        let mut bmat = vec![0.0; m * m];
        for (k, &j) in self.basis.iter().enumerate() {
            for &(r, v) in self.col(j) {
                bmat[k * m + r] = v;
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
    pub(super) fn recompute_xb(&mut self) {
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
        for x in self.xb.iter_mut() {
            *x = snap_round_off(*x);
        }
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
        let feas_tol = REPAIR_FEAS_REL * rhs_scale(&self.sf.b);
        let mut priced = false;
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
            // `y` is priced once and kept across the repair's pivots; `d` is
            // computed only for the few columns eligible to repair the row.
            if !priced {
                self.compute_y(cost);
                priced = true;
            }
            #[cfg(test)]
            self.audit_prices(cost, false);
            self.gather_row(r);
            // Entering candidate: the eligible column with the smallest
            // |reduced cost| per unit of repair (classic dual ratio test,
            // used as a least-damage heuristic since c may have drifted).
            let mut best: Option<(usize, f64, f64)> = None;
            let candidates = self.crossing_row(self.total_n);
            let mut reduced_costs = 0;
            for &j in &candidates {
                let alpha: f64 =
                    self.col(j).iter().map(|&(row, v)| v * self.scratch_row[row]).sum();
                let sign = if self.rest[j] == Rest::Upper { -1.0 } else { 1.0 };
                // Moving j off its bound changes xb[r] by -t * dir.
                let dir = sign * alpha;
                let eligible = if to_upper { dir > REPAIR_PIVOT } else { dir < -REPAIR_PIVOT };
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, cost);
                reduced_costs += 1;
                let d_eff = if self.rest[j] == Rest::Upper { -d } else { d };
                let ratio = d_eff.abs() / dir.abs();
                let better = match best {
                    Some((_, br, ba)) => {
                        ratio < br - DUAL_RATIO_TIE
                            || (ratio <= br + DUAL_RATIO_TIE && dir.abs() > ba)
                    }
                    None => true,
                };
                if better {
                    best = Some((j, ratio, dir.abs()));
                }
            }
            self.done_with(candidates, reduced_costs);
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
            self.update_y(cost, r);
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
            let candidates = self.crossing_row(self.art_start);
            for &j in &candidates {
                let mut w_rj = 0.0;
                for &(rr, v) in self.sf.col(j) {
                    w_rj += v * self.scratch_row[rr];
                }
                if w_rj.abs() > DRIVE_OUT_PIVOT {
                    match best {
                        Some((_, bv)) if w_rj.abs() <= bv => {}
                        _ => best = Some((j, w_rj.abs())),
                    }
                }
            }
            self.done_with(candidates, 0);
            if let Some((j, _)) = best {
                let from_upper = self.rest[j] == Rest::Upper;
                self.compute_w(j);
                if self.scratch_w[r].abs() <= ZERO_PIVOT {
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
        // to enter, i.e. `c_B B^-1` at the optimal basis.
        let duals = self.scratch_y.clone();
        Solution { x, duals, objective, iterations: self.iterations, warm_started: false }
    }
}

impl Drop for Engine<'_> {
    fn drop(&mut self) {
        self.report_pricing();
    }
}

/// Why a warm restart fell back to a cold solve. Each cause has a counter
/// beside `lp.degrade_to_cold`, which is their sum.
#[derive(Clone, Copy)]
enum Degrade {
    /// [`Engine::with_basis`] could not restore the basis: the wrong
    /// shape, corrupt labels or a singular refactorization.
    BasisUnusable,
    /// The dual repair found no pivot for a violated row, or ran out of
    /// its pivot budget.
    RepairGaveUp,
    /// Phase 2 from the repaired vertex failed other than by proving the
    /// problem unbounded (its pivot cap or numerical trouble).
    RestartFailed,
}

impl Degrade {
    /// The telemetry counter of this cause.
    fn counter(self) -> &'static str {
        match self {
            Degrade::BasisUnusable => "lp.degrade.basis_unusable",
            Degrade::RepairGaveUp => "lp.degrade.repair_gave_up",
            Degrade::RestartFailed => "lp.degrade.restart_failed",
        }
    }
}

/// Warm entry point used by [`crate::Problem::solve_warm`] and
/// [`crate::LiveLp`]: restart phase 2 from `basis` when it still fits the
/// problem, fall back to the two-phase cold solve otherwise, and leave the
/// new optimal basis in `basis` either way.
pub(crate) fn solve_standard_form_warm(
    sf: &StandardForm,
    opts: &SolverOptions,
    basis: &mut Basis,
) -> Result<Solution, LpError> {
    if !basis.is_warm() {
        return solve_standard_form_cold(sf, opts, Some(basis));
    }
    let cause = match Engine::with_basis(sf, opts.clone(), basis) {
        None => Degrade::BasisUnusable,
        Some(mut eng) => {
            let m = sf.b.len();
            let n = sf.num_cols();
            let max_iter = opts.pivot_cap(m, n);
            // The restored vertex is usually slightly infeasible under the
            // new data; a few dual pivots repair it. Budget is generous —
            // repair beyond it means the problems diverged too far for a
            // restart to pay off anyway.
            if !eng.dual_repair(&sf.c, 64 + m / 2) {
                Degrade::RepairGaveUp
            } else {
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
                    // Reachable from a feasible vertex => genuinely
                    // unbounded.
                    Err(LpError::Unbounded) => return Err(LpError::Unbounded),
                    // Iteration-limit or numerical trouble along the warm
                    // path: retry cold rather than propagate a restart
                    // artifact.
                    Err(_) => Degrade::RestartFailed,
                }
            }
        }
    };
    // A stored basis that did not carry the solve to optimality costs a
    // cold restart — the "degrade" the telemetry layer makes visible, and
    // why.
    if telemetry::enabled() {
        telemetry::counter_add("lp.degrade_to_cold", 1);
        telemetry::counter_add(cause.counter(), 1);
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
            if sf.c[j] < -PRICING_TOL {
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

    let max_iter = opts.pivot_cap(m, n);
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
        if art_sum > PHASE1_FEAS_REL * rhs_scale(&sf.b) {
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
