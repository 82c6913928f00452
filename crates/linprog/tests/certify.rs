//! Every way the solver reaches an optimum — cold, warm from a basis of the
//! same shape, warm from a basis re-labelled onto a grown problem — returns
//! duals that [`certify`] accepts, over random LPs mixing `<=` / `>=` / `==`
//! rows, negative right-hand sides (rows the standard form flips) and finite
//! upper bounds. `certify` reads only the problem as posed, so a dual with
//! the wrong sign on a flipped row, or one taken from a mis-labelled basis,
//! fails here without a second solve to compare against.
//!
//! [`Solution::prices_in`] answers from those duals whether one more column
//! would enter the basis; it is held to `certify`'s verdict on the problem
//! extended by that column.

use proptest::prelude::*;

use lowlat_linprog::{certify, Basis, Problem, Relation, Solution, Violation, PRICING_TOL};

/// A random LP over small integers, feasible by construction: every row
/// passes within `slack` of a witness point, every upper bound lies at or
/// above it, and a box row keeps it bounded.
#[derive(Clone, Debug)]
struct Lp {
    c: Vec<i32>,
    /// Distance of each variable's upper bound above the witness; `None` =
    /// unbounded.
    upper: Vec<Option<i32>>,
    witness: Vec<i32>,
    /// `(coefficients, relation, slack at the witness)`.
    rows: Vec<(Vec<i32>, Relation, i32)>,
}

impl Lp {
    fn problem(&self) -> Problem {
        let n = self.c.len();
        let mut p = Problem::minimize(n);
        for j in 0..n {
            p.set_objective(j, self.c[j] as f64);
            if let Some(above) = self.upper[j] {
                p.set_upper_bound(j, (self.witness[j] + above) as f64);
            }
        }
        for (a, rel, slack) in &self.rows {
            let at: i32 = a.iter().zip(&self.witness).map(|(a, w)| a * w).sum();
            let rhs = match rel {
                Relation::Le => at + slack,
                Relation::Ge => at - slack,
                Relation::Eq => at,
            };
            let coeffs: Vec<(usize, f64)> = a
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(j, &v)| (j, v as f64))
                .collect();
            p.add_row(*rel, rhs as f64, &coeffs);
        }
        p.add_row(Relation::Le, 60.0, &(0..n).map(|j| (j, 1.0)).collect::<Vec<_>>());
        p
    }

    /// This LP with `cols` new variables (cost, coefficient in each old row)
    /// and `rows` new inequality rows, spliced in before the old ones when
    /// `front` — the witness extended by zeros stays feasible. Returns the
    /// grown LP and the `(columns, rows, enter)` maps of [`Basis::relabel`].
    #[allow(clippy::type_complexity)]
    fn grown(
        &self,
        cols: &[(i32, Vec<i32>)],
        rows: &[(Vec<i32>, bool, i32)],
        front: bool,
    ) -> (Lp, (Vec<usize>, Vec<usize>, Vec<Option<usize>>)) {
        let (n, m, k) = (self.c.len(), self.rows.len(), cols.len());
        let splice = |old: &[i32], new: Vec<i32>| spliced(front, old, new);
        let old_rows = self.rows.iter().enumerate().map(|(i, (a, rel, slack))| {
            (splice(a, cols.iter().map(|(_, col)| col[i]).collect()), *rel, *slack)
        });
        let new_rows = rows.iter().map(|(a, ge, slack)| {
            let rel = if *ge { Relation::Ge } else { Relation::Le };
            (splice(&a[..n], a[4..4 + k].to_vec()), rel, *slack)
        });
        let all_rows: Vec<_> = if front {
            new_rows.chain(old_rows).collect()
        } else {
            old_rows.chain(new_rows).collect()
        };
        let lp = Lp {
            c: splice(&self.c, cols.iter().map(|(c, _)| *c).collect()),
            upper: spliced(front, &self.upper, vec![None; k]),
            witness: splice(&self.witness, vec![0; k]),
            rows: all_rows,
        };
        let (col_shift, row_shift) = if front { (k, rows.len()) } else { (0, 0) };
        let columns = (0..n).map(|j| col_shift + j).collect();
        // The box row is the last row before and after.
        let mut row_map: Vec<usize> = (0..m).map(|i| row_shift + i).collect();
        row_map.push(m + rows.len());
        (lp, (columns, row_map, vec![None; rows.len()]))
    }
}

/// `new` before `old` when `front`, after it otherwise.
fn spliced<T: Copy>(front: bool, old: &[T], new: Vec<T>) -> Vec<T> {
    if front {
        new.into_iter().chain(old.iter().copied()).collect()
    } else {
        old.iter().copied().chain(new).collect()
    }
}

fn ints(range: std::ops::RangeInclusive<i32>, len: usize) -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(range, len)
}

fn arb_lp() -> impl Strategy<Value = Lp> {
    (2usize..=4, 1usize..=4).prop_flat_map(|(n, m)| {
        let relation = prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)];
        let rows = proptest::collection::vec((ints(-4..=4, n), relation, 0i32..=5), m);
        // Half the variables unbounded, half bounded 0..=3 above the witness.
        (ints(-5..=5, n), ints(-4..=3, n), ints(0..=3, n), rows).prop_map(
            |(c, upper, witness, rows)| {
                let upper = upper.into_iter().map(|u| (u >= 0).then_some(u)).collect();
                Lp { c, upper, witness, rows }
            },
        )
    })
}

fn certified(p: &Problem, basis: &mut Basis) -> Result<(), TestCaseError> {
    let sol = p.solve_warm(basis).expect("feasible at the witness, bounded by the box");
    prop_assert_eq!(sol.duals().len(), p.num_rows());
    let verdict = certify(p, sol.values(), sol.duals());
    prop_assert!(verdict.is_ok(), "{:?} (warm {})", verdict, sol.warm_started());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cold_warm_and_relabelled_solves_carry_a_certificate(
        lp in arb_lp(),
        c in ints(-5..=5, 4),
        slacks in ints(0..=5, 4),
        cols in proptest::collection::vec((-5i32..=5, ints(-4..=4, 4)), 0..=3),
        rows in proptest::collection::vec((ints(-4..=4, 7), any::<bool>(), 0i32..=5), 0..=3),
        front in any::<bool>(),
    ) {
        let mut basis = Basis::new();
        certified(&lp.problem(), &mut basis)?;

        // Warm, same shape: new costs and new right-hand sides (which may
        // change sign, so rows flip in and out of the negated set).
        let mut drifted = lp.clone();
        drifted.c = c[..lp.c.len()].to_vec();
        for ((_, _, slack), new) in drifted.rows.iter_mut().zip(&slacks) {
            *slack = *new;
        }
        certified(&drifted.problem(), &mut basis)?;

        // Warm after `Basis::relabel` onto the grown problem.
        let (grown, (columns, row_map, enter)) = drifted.grown(&cols, &rows, front);
        let grown = grown.problem();
        if basis.is_warm() {
            prop_assert!(basis.relabel(&grown, &columns, &row_map, &enter));
        }
        certified(&grown, &mut basis)?;
    }
}

/// min -x - 2y  s.t.  x + y <= 4,  y <= 3: optimum (1, 3), both rows priced
/// at -1, so a column `(a0, a1)` of cost `c` has reduced cost `c + a0 + a1`.
fn textbook() -> Solution {
    let mut p = Problem::minimize(2);
    p.set_objective(0, -1.0);
    p.set_objective(1, -2.0);
    p.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
    p.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
    let sol = p.solve().unwrap();
    assert_eq!((sol.values(), sol.duals()), (&[1.0, 3.0][..], &[-1.0, -1.0][..]));
    sol
}

#[test]
fn prices_in_reads_the_reduced_cost_against_the_solvers_tolerance() {
    let sol = textbook();
    let both = [(0, 1.0), (1, 1.0)];
    assert!(sol.prices_in(-3.0, &both), "reduced cost -1 enters");
    assert!(!sol.prices_in(-1.0, &both), "reduced cost +1 does not");
    assert!(!sol.prices_in(-2.0, &both), "nor does 0");
    // A column in no row is priced at its cost.
    assert!(sol.prices_in(-1.0, &[]) && !sol.prices_in(0.0, &[]) && !sol.prices_in(1.0, &[]));
    // On the solver's pricing tolerance the answer is "pose it": the solver
    // sums in another order and may land on either side.
    assert!(sol.prices_in(-PRICING_TOL, &[]), "exactly -tol");
    assert!(sol.prices_in(-1.0 - PRICING_TOL, &[(0, 1.0)]), "-tol up to the rounding of -1 - tol");
    assert!(sol.prices_in(-PRICING_TOL + 5e-13, &[]) && sol.prices_in(-PRICING_TOL - 5e-13, &[]));
    assert!(!sol.prices_in(-0.99 * PRICING_TOL, &[]), "inside the tolerance");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The optimum with one more column at zero keeps its certificate exactly
    /// when `prices_in` says the column would not enter: over small integers
    /// a reduced cost is zero to round-off or far from every tolerance.
    #[test]
    fn prices_in_agrees_with_the_certificate_of_the_extended_problem(
        lp in arb_lp(),
        cost in -5i32..=5,
        col in ints(-4..=4, 4),
        front in any::<bool>(),
    ) {
        let sol = lp.problem().solve().expect("feasible at the witness, bounded by the box");
        let (n, m) = (lp.c.len(), lp.rows.len());
        let (grown, _) = lp.grown(&[(cost, col.clone())], &[], front);
        let x = spliced(front, sol.values(), vec![0.0]);
        let verdict = certify(&grown.problem(), &x, sol.duals());
        // The new column's entries: its coefficient per row, 1 in the box row.
        let mut coeffs: Vec<(usize, f64)> =
            (0..m).filter(|&i| col[i] != 0).map(|i| (i, col[i] as f64)).collect();
        coeffs.push((m, 1.0));
        if sol.prices_in(cost as f64, &coeffs) {
            let var = if front { 0 } else { n };
            prop_assert!(
                matches!(verdict, Err(Violation::ReducedCost { var: v, .. }) if v == var),
                "{:?}", verdict
            );
        } else {
            prop_assert!(verdict.is_ok(), "{:?}", verdict);
        }
    }
}
