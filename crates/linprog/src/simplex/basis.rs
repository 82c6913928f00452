//! The warm-start handle: what a solve leaves behind for the next one —
//! the basis labels, the inverse and the columns it inverts — and how the
//! engine takes it up and hands it back.

use lowlat_telemetry as telemetry;

use super::engine::{Engine, Rest, SolverOptions};
use super::inverse::{flip_negated_rows, SparseInverse};
use super::standard_form::{SparseCols, StandardForm};
use super::tol::{REPLACE_GUARD_REL, UNIT_CHECK_TOL};
use crate::problem::Problem;

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
/// that fails ([`LpError`](crate::LpError)) leaves the labels behind without it, and the
/// next restart from them refactorizes.
#[derive(Clone, Default)]
pub struct Basis {
    /// Basic column per row, in standard-form column space (structural
    /// variables first, then slacks). Empty = no basis stored.
    pub(super) basic: Vec<usize>,
    /// Nonbasic standard-form columns resting at their upper bound.
    at_upper: Vec<usize>,
    /// `(rows, standard-form columns)` of the problem that produced this
    /// basis; reuse requires an exact match.
    shape: (usize, usize),
    /// Row of each slack column, in column order — what lets
    /// [`Basis::relabel`] renumber slacks when rows are spliced in.
    slack_rows: Vec<usize>,
    pub(super) carried: Carried,
}

/// The inverse a [`Basis`] carries so a restart skips the O(m³)
/// refactorization, with what a restart needs to trust it. Everything is
/// in the row signs of the problem *as posed* (the standard form's negation
/// of negative-rhs rows undone), so a right-hand side changing sign does
/// not invalidate it.
#[derive(Clone, Default)]
pub(super) struct Carried {
    /// The inverse, one sparse column per row of the problem; empty when
    /// none is carried (an inverse over [`BINV_CARRY_LIMIT`], or a solve
    /// that did not finish).
    pub(super) inverse: SparseInverse,
    /// The matrix `inverse` inverts, one column per basis position. At
    /// export these are the basic columns themselves; [`Basis::relabel`]
    /// maps them along with the inverse and puts unit columns in the new
    /// rows.
    pub(super) cols: SparseCols,
    /// Eta updates `inverse` has taken since it was last factorized or
    /// numerically audited.
    pub(super) age: usize,
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

impl<'a> Engine<'a> {
    /// The numerical test that `binv` holds basis position `i`:
    /// `scratch_w = B^-1 A_{basis[i]}` is the unit vector `e_i`.
    pub(super) fn w_is_unit(&self, i: usize) -> bool {
        self.scratch_w.iter().enumerate().all(|(k, &wk)| {
            let expect = if k == i { 1.0 } else { 0.0 };
            (wk - expect).abs() <= UNIT_CHECK_TOL
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
    pub(super) fn bring_binv_current(&mut self, inverts: &SparseCols) -> bool {
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
                    if replaceable == 0 || self.scratch_w[i].abs() <= REPLACE_GUARD_REL * largest {
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
    pub(super) fn with_basis(
        sf: &'a StandardForm,
        opts: SolverOptions,
        warm: &mut Basis,
    ) -> Option<Self> {
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
    pub(super) fn export_basis(&mut self, out: &mut Basis) {
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

#[cfg(test)]
pub(super) mod tests {
    thread_local! {
        /// `(columns replaced, full audits, refactorizations)` by this
        /// thread since the last [`restart_work`] began: what
        /// [`Engine::bring_binv_current`] did on its warm restarts, and how
        /// often [`Engine::refactorize`] ran (restart fallback or hygiene).
        pub(crate) static RESTART_WORK: std::cell::Cell<(u64, u64, u64)> =
            const { std::cell::Cell::new((0, 0, 0)) };
    }
}
