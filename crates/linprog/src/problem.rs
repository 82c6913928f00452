//! Problem construction API.

use crate::simplex::{
    solve_standard_form_cold, solve_standard_form_warm, Basis, LpError, Solution, SolverOptions,
    SparseCols, StandardForm,
};

/// Relation of a constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `>=`
    Ge,
}

/// Identifier of a constraint row, returned by [`Problem::add_row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowId(pub usize);

/// Where a row's merged coefficients end in [`Problem::entries`], and
/// what it bounds them by.
struct RowEnd {
    end: usize,
    rel: Relation,
    rhs: f64,
}

/// A linear program `min c·x  s.t.  Ax {<=,==,>=} b,  0 <= x <= u`.
///
/// Variables are indexed `0..num_vars`, implicitly non-negative, and may
/// carry an upper bound (handled natively by the simplex, not as a row —
/// important for problems with one cap per variable, like the paper's
/// locality-redistribution LP).
///
/// The rows live in one arena: every row's merged nonzeros back to back,
/// and per row where they end. Posing a row appends to it, so a problem
/// allocates as its arrays double, not once per row.
pub struct Problem {
    num_vars: usize,
    objective: Vec<f64>,
    upper: Vec<f64>,
    /// Row `i`'s nonzeros are `entries[rows[i - 1].end..rows[i].end]`,
    /// variables strictly increasing.
    entries: Vec<(usize, f64)>,
    rows: Vec<RowEnd>,
}

impl Problem {
    /// Creates a minimization problem over `num_vars` non-negative variables
    /// with an all-zero objective and no upper bounds.
    pub fn minimize(num_vars: usize) -> Self {
        Problem {
            num_vars,
            objective: vec![0.0; num_vars],
            upper: vec![f64::INFINITY; num_vars],
            entries: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Bounds variable `var` from above: `x_var <= upper`.
    ///
    /// # Panics
    /// Panics on out-of-range `var`, or a negative or NaN bound.
    pub fn set_upper_bound(&mut self, var: usize, upper: f64) {
        assert!(var < self.num_vars, "bound var {var} out of range");
        assert!(!upper.is_nan() && upper >= 0.0, "bad upper bound {upper}");
        self.upper[var] = upper;
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows added so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether `row` gets a slack column in standard form (it is not `==`).
    pub(crate) fn has_slack(&self, row: usize) -> bool {
        self.rows[row].rel != Relation::Eq
    }

    /// The rows as posed: `(merged nonzero coefficients, relation, rhs)`.
    pub(crate) fn posed_rows(
        &self,
    ) -> impl ExactSizeIterator<Item = (&[(usize, f64)], Relation, f64)> {
        (0..self.rows.len()).map(|i| {
            let (start, row) = (if i == 0 { 0 } else { self.rows[i - 1].end }, &self.rows[i]);
            (&self.entries[start..row.end], row.rel, row.rhs)
        })
    }

    /// Objective coefficient per variable.
    pub(crate) fn costs(&self) -> &[f64] {
        &self.objective
    }

    /// Upper bound per variable (`f64::INFINITY` when absent).
    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Sets the objective coefficient of variable `var` (adds to any previous
    /// value so composite objectives can be accumulated term by term).
    ///
    /// # Panics
    /// Panics on out-of-range `var` or non-finite coefficient.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "objective var {var} out of range");
        assert!(coeff.is_finite(), "non-finite objective coefficient");
        self.objective[var] += coeff;
    }

    /// Adds the constraint `sum(coeff_i * x_var_i) rel rhs`.
    ///
    /// Duplicate variable entries in `coeffs` are summed. Zero coefficients
    /// are dropped.
    ///
    /// # Panics
    /// Panics on out-of-range variables or non-finite values.
    pub fn add_row(&mut self, rel: Relation, rhs: f64, coeffs: &[(usize, f64)]) -> RowId {
        assert!(rhs.is_finite(), "non-finite rhs");
        for &(var, c) in coeffs {
            assert!(var < self.num_vars, "row var {var} out of range");
            assert!(c.is_finite(), "non-finite row coefficient");
        }
        let start = self.entries.len();
        self.entries.extend_from_slice(coeffs);
        // Strictly increasing variables (every row the growth loop poses)
        // have nothing to sort or merge.
        if !coeffs.windows(2).all(|w| w[0].0 < w[1].0) {
            self.entries[start..].sort_by_key(|&(v, _)| v);
            // Duplicates summed into the first of their run, left to right.
            let mut kept = start;
            for i in start..self.entries.len() {
                let next = self.entries[i];
                if kept > start && self.entries[kept - 1].0 == next.0 {
                    self.entries[kept - 1].1 += next.1;
                } else {
                    self.entries[kept] = next;
                    kept += 1;
                }
            }
            self.entries.truncate(kept);
        }
        let mut kept = start;
        for i in start..self.entries.len() {
            if self.entries[i].1 != 0.0 {
                self.entries[kept] = self.entries[i];
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        let id = RowId(self.rows.len());
        self.rows.push(RowEnd { end: kept, rel, rhs });
        id
    }

    /// Solves cold, by the two-phase method.
    pub fn solve(&self) -> Result<Solution, LpError> {
        let _span = lowlat_telemetry::span("lp.solve", "lp");
        let sf = self.to_standard_form();
        solve_standard_form_cold(&sf, &SolverOptions::default(), None)
    }

    /// Solves warm: re-optimizes from the basis a previous solve left in
    /// `basis`, and stores this solve's optimal basis back into it.
    ///
    /// This is the §5 deployment-cycle accelerator — successive minutes pose
    /// nearly identical LPs, and restarting phase 2 from the previous
    /// optimal vertex skips both phase 1 and most pivots. The handle is
    /// self-validating: when the stored basis does not fit this problem
    /// (different shape) or is no longer primal-feasible (data moved too
    /// far, or the basis went singular), the solve silently falls back to
    /// the cold two-phase method. Warm and cold solves always agree on the
    /// objective; see [`Solution::warm_started`] for which path ran.
    pub fn solve_warm(&self, basis: &mut Basis) -> Result<Solution, LpError> {
        let _span = lowlat_telemetry::span("lp.solve", "lp");
        let sf = self.to_standard_form();
        solve_standard_form_warm(&sf, &SolverOptions::default(), basis)
    }

    /// Converts to equality standard form: appends one slack (`<=`, coeff
    /// +1) or surplus (`>=`, coeff -1) column per inequality row. Every row
    /// keeps its sign as posed, a negative right-hand side included.
    pub(crate) fn to_standard_form(&self) -> StandardForm {
        let m = self.rows.len();
        let n_structural = self.num_vars;
        let n_slack = self.rows.iter().filter(|r| r.rel != Relation::Eq).count();
        let n = n_structural + n_slack;

        let mut b = vec![0.0; m];
        let mut c = vec![0.0; n];
        c[..n_structural].copy_from_slice(&self.objective);
        let mut upper = vec![f64::INFINITY; n];
        upper[..n_structural].copy_from_slice(&self.upper);

        // Column starts by counting, then one pass over the rows in order
        // drops every entry at its column's cursor — rows come out strictly
        // increasing within a column.
        let mut col_ptr = vec![0usize; n + 1];
        for &(var, _) in &self.entries {
            col_ptr[var + 1] += 1;
        }
        col_ptr[n_structural + 1..].iter_mut().for_each(|count| *count = 1);
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut cursor = col_ptr[..n].to_vec();
        let mut entries = vec![(0usize, 0.0); col_ptr[n]];

        let mut slack_idx = n_structural;
        for (i, (coeffs, rel, rhs)) in self.posed_rows().enumerate() {
            b[i] = rhs;
            for &(var, coeff) in coeffs {
                entries[cursor[var]] = (i, coeff);
                cursor[var] += 1;
            }
            let slack = match rel {
                Relation::Eq => continue,
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
            };
            entries[col_ptr[slack_idx]] = (i, slack);
            slack_idx += 1;
        }
        let cols = SparseCols { ptr: col_ptr, entries };
        StandardForm { num_structural: n_structural, cols, b, c, upper }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_coeffs_merge() {
        let mut p = Problem::minimize(2);
        p.add_row(Relation::Le, 5.0, &[(0, 1.0), (0, 2.0), (1, 1.0), (1, -1.0)]);
        let sf = p.to_standard_form();
        assert_eq!(sf.col(0), [(0, 3.0)]);
        assert!(sf.col(1).is_empty(), "cancelled coefficient dropped");
    }

    #[test]
    fn negative_rhs_posed_as_written() {
        let mut p = Problem::minimize(1);
        // x >= 2 written as  -x <= -2
        p.add_row(Relation::Le, -2.0, &[(0, -1.0)]);
        let sf = p.to_standard_form();
        assert_eq!(sf.b, vec![-2.0]);
        assert_eq!(sf.col(0), [(0, -1.0)]);
        assert_eq!(sf.col(1), [(0, 1.0)]); // the `<=` row's slack
    }

    #[test]
    fn objective_accumulates() {
        let mut p = Problem::minimize(1);
        p.set_objective(0, 1.5);
        p.set_objective(0, 0.5);
        let sf = p.to_standard_form();
        assert_eq!(sf.c[0], 2.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_var_rejected() {
        let mut p = Problem::minimize(1);
        p.add_row(Relation::Le, 1.0, &[(1, 1.0)]);
    }

    /// The row-per-`Vec` problem the arena replaced, kept as the reference
    /// the arena is held to bit for bit.
    struct RowVecProblem {
        num_vars: usize,
        objective: Vec<f64>,
        upper: Vec<f64>,
        rows: Vec<Row>,
    }

    struct Row {
        coeffs: Vec<(usize, f64)>,
        rel: Relation,
        rhs: f64,
    }

    impl RowVecProblem {
        fn add_row(&mut self, rel: Relation, rhs: f64, coeffs: &[(usize, f64)]) {
            let mut merged = coeffs.to_vec();
            if !coeffs.windows(2).all(|w| w[0].0 < w[1].0) {
                merged.sort_by_key(|&(v, _)| v);
                merged.dedup_by(|next, kept| {
                    let same = next.0 == kept.0;
                    if same {
                        kept.1 += next.1;
                    }
                    same
                });
            }
            merged.retain(|&(_, c)| c != 0.0);
            self.rows.push(Row { coeffs: merged, rel, rhs });
        }

        fn to_standard_form(&self) -> StandardForm {
            let m = self.rows.len();
            let n_structural = self.num_vars;
            let n_slack = self.rows.iter().filter(|r| r.rel != Relation::Eq).count();
            let n = n_structural + n_slack;

            let mut b = vec![0.0; m];
            let mut c = vec![0.0; n];
            c[..n_structural].copy_from_slice(&self.objective);
            let mut upper = vec![f64::INFINITY; n];
            upper[..n_structural].copy_from_slice(&self.upper);

            let mut col_ptr = vec![0usize; n + 1];
            for row in &self.rows {
                for &(var, _) in &row.coeffs {
                    col_ptr[var + 1] += 1;
                }
            }
            col_ptr[n_structural + 1..].iter_mut().for_each(|count| *count = 1);
            for j in 0..n {
                col_ptr[j + 1] += col_ptr[j];
            }
            let mut cursor = col_ptr[..n].to_vec();
            let mut entries = vec![(0usize, 0.0); col_ptr[n]];

            let mut slack_idx = n_structural;
            for (i, row) in self.rows.iter().enumerate() {
                b[i] = row.rhs;
                for &(var, coeff) in &row.coeffs {
                    entries[cursor[var]] = (i, coeff);
                    cursor[var] += 1;
                }
                let slack = match row.rel {
                    Relation::Eq => continue,
                    Relation::Le => 1.0,
                    Relation::Ge => -1.0,
                };
                entries[col_ptr[slack_idx]] = (i, slack);
                slack_idx += 1;
            }
            let cols = SparseCols { ptr: col_ptr, entries };
            StandardForm { num_structural: n_structural, cols, b, c, upper }
        }
    }

    /// Every number of a standard form, floats by their bits.
    fn standard_form_bits(sf: &StandardForm) -> impl PartialEq + std::fmt::Debug {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let entries: Vec<(usize, u64)> =
            sf.cols.entries.iter().map(|&(r, v)| (r, v.to_bits())).collect();
        (sf.num_structural, sf.cols.ptr.clone(), entries, bits(&sf.b), bits(&sf.c), bits(&sf.upper))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary rows — unsorted, duplicate, cancelling and zero
        /// coefficients, negative right-hand sides, all three relations —
        /// pose the same standard form and the same rows to the bit in the
        /// arena as in the row-per-`Vec` problem it replaced.
        #[test]
        fn the_arena_poses_what_a_vec_per_row_posed(
            n in 1usize..=6,
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..6, -4i32..=4, 0u32..=3), 0..=8),
                    0u8..3,
                    -6i32..=6,
                    proptest::arbitrary::any::<bool>(),
                ),
                0..=6,
            ),
            costs in proptest::collection::vec((-5i32..=5, 0u32..=4), 6),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut arena = Problem::minimize(n);
            let mut reference = RowVecProblem {
                num_vars: n,
                objective: vec![0.0; n],
                upper: vec![f64::INFINITY; n],
                rows: Vec::new(),
            };
            for (j, &(cost, cap)) in costs.iter().take(n).enumerate() {
                arena.set_objective(j, cost as f64 / 3.0);
                reference.objective[j] += cost as f64 / 3.0;
                if cap > 0 {
                    arena.set_upper_bound(j, cap as f64);
                    reference.upper[j] = cap as f64;
                }
            }
            for (terms, rel, rhs, sorted) in &rows {
                // Thirds and tenths: sums whose order shows in their bits.
                let mut coeffs: Vec<(usize, f64)> = terms
                    .iter()
                    .map(|&(var, c, tenths)| (var % n, c as f64 / 3.0 + tenths as f64 / 10.0))
                    .collect();
                if *sorted {
                    coeffs.sort_by_key(|&(v, _)| v);
                    coeffs.dedup_by_key(|&mut (v, _)| v);
                }
                let rel = [Relation::Le, Relation::Eq, Relation::Ge][*rel as usize];
                let rhs = *rhs as f64 / 7.0;
                arena.add_row(rel, rhs, &coeffs);
                reference.add_row(rel, rhs, &coeffs);
            }
            prop_assert_eq!(
                standard_form_bits(&arena.to_standard_form()),
                standard_form_bits(&reference.to_standard_form())
            );
            prop_assert_eq!(arena.num_rows(), reference.rows.len());
            let bits = |cs: &[(usize, f64)]| {
                cs.iter().map(|&(v, c)| (v, c.to_bits())).collect::<Vec<_>>()
            };
            for (i, ((coeffs, rel, rhs), want)) in
                arena.posed_rows().zip(&reference.rows).enumerate()
            {
                prop_assert!(bits(coeffs) == bits(&want.coeffs), "row {i}: {coeffs:?} vs {:?}", want.coeffs);
                prop_assert!(rel == want.rel && rhs.to_bits() == want.rhs.to_bits(), "row {i}");
                prop_assert_eq!(arena.has_slack(i), want.rel != Relation::Eq);
            }
        }
    }
}
