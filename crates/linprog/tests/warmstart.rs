//! Warm-start correctness: `solve_warm` must always agree with the cold
//! `solve` on the objective, whatever state the [`Basis`] handle is in —
//! fresh, optimal for the same problem, optimal for a neighboring problem,
//! stale in shape, or downright singular under the new data.

use proptest::prelude::*;

use lowlat_linprog::{certify, Basis, LpError, Problem, Relation};

/// Relative-ish tolerance: the issue's 1e-9, scaled by objective magnitude.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn warm_resolve_of_identical_problem_is_pivot_free() {
    let mut p = Problem::minimize(3);
    p.set_objective(0, -2.0);
    p.set_objective(1, -3.0);
    p.set_objective(2, 1.0);
    p.add_row(Relation::Le, 10.0, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
    p.add_row(Relation::Le, 6.0, &[(0, 1.0), (1, 2.0)]);
    let mut basis = Basis::new();
    let cold = p.solve_warm(&mut basis).unwrap();
    assert!(!cold.warm_started(), "fresh handle must solve cold");
    assert!(basis.is_warm(), "cold solve must export its basis");
    let warm = p.solve_warm(&mut basis).unwrap();
    assert!(warm.warm_started());
    assert_eq!(warm.iterations(), 0, "restarting at the optimum needs no pivots");
    assert!(close(cold.objective(), warm.objective()));
}

#[test]
fn warm_chain_tracks_rhs_drift() {
    // The deployment-cycle shape: the same transport LP re-solved minute
    // after minute with slightly different demands.
    let (ns, nd) = (4usize, 5usize);
    let mut basis = Basis::new();
    for minute in 0..12u64 {
        let mut p = Problem::minimize(ns * nd);
        for i in 0..ns {
            for j in 0..nd {
                p.set_objective(i * nd + j, (i as f64 - j as f64).abs() + 1.0);
            }
        }
        // Inequality (full-row-rank) transport: supplies cap the rows,
        // demands must be met. The equality form's redundant row would keep
        // an artificial basic and block basis export; this form never does.
        let drift = |k: u64| 1.0 + 0.03 * (((minute * 7 + k) % 5) as f64 - 2.0);
        let supplies: Vec<f64> = (0..ns as u64).map(|i| (20.0 + i as f64) * drift(i)).collect();
        let total: f64 = supplies.iter().sum();
        for (i, s) in supplies.iter().enumerate() {
            let coeffs: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
            p.add_row(Relation::Le, *s, &coeffs);
        }
        for j in 0..nd {
            let coeffs: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
            p.add_row(Relation::Ge, 0.8 * total / nd as f64, &coeffs);
        }
        let warm = p.solve_warm(&mut basis).unwrap();
        let cold = p.solve().unwrap();
        assert!(
            close(warm.objective(), cold.objective()),
            "minute {minute}: warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        if minute > 0 {
            assert!(
                warm.warm_started(),
                "minute {minute} should restart from minute {}",
                minute - 1
            );
        }
    }
}

#[test]
fn shape_mismatch_falls_back_to_cold() {
    let mut small = Problem::minimize(2);
    small.set_objective(0, -1.0);
    small.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
    let mut basis = Basis::new();
    small.solve_warm(&mut basis).unwrap();
    assert!(basis.is_warm());

    // Different row/column count: the stored basis cannot apply.
    let mut big = Problem::minimize(3);
    big.set_objective(0, -1.0);
    big.set_objective(2, -1.0);
    big.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
    big.add_row(Relation::Le, 2.0, &[(2, 1.0)]);
    let warm = big.solve_warm(&mut basis).unwrap();
    assert!(!warm.warm_started(), "mismatched shape must degrade to cold");
    assert!(close(warm.objective(), big.solve().unwrap().objective()));
}

#[test]
fn infeasible_stale_basis_is_repaired() {
    // P1 leaves x basic at 5; P2 has the same shape but caps x at 3, so the
    // restored vertex violates its bound. The dual-repair pass fixes it (or
    // the solve degrades to cold) — either way the answer must be exact.
    let mut p1 = Problem::minimize(2);
    p1.set_objective(0, -1.0);
    p1.add_row(Relation::Le, 5.0, &[(0, 1.0), (1, 1.0)]);
    let mut basis = Basis::new();
    p1.solve_warm(&mut basis).unwrap();

    let mut p2 = Problem::minimize(2);
    p2.set_objective(0, -1.0);
    p2.set_upper_bound(0, 3.0);
    p2.add_row(Relation::Le, 5.0, &[(0, 1.0), (1, 1.0)]);
    let warm = p2.solve_warm(&mut basis).unwrap();
    assert!((warm.value(0) - 3.0).abs() < 1e-8);
    assert!(close(warm.objective(), -3.0));
}

#[test]
fn singular_degenerate_basis_falls_back_to_cold() {
    // P1's optimum makes both structural columns basic (B = I). P2 keeps
    // the shape but makes those two columns identical, so the restored
    // basis matrix is singular and refactorization must reject it.
    let mut p1 = Problem::minimize(2);
    p1.set_objective(0, -1.0);
    p1.set_objective(1, -1.0);
    p1.add_row(Relation::Le, 3.0, &[(0, 1.0)]);
    p1.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
    let mut basis = Basis::new();
    let s1 = p1.solve_warm(&mut basis).unwrap();
    assert!(close(s1.objective(), -6.0));

    let mut p2 = Problem::minimize(2);
    p2.set_objective(0, -1.0);
    p2.set_objective(1, -1.0);
    p2.add_row(Relation::Le, 3.0, &[(0, 1.0), (1, 1.0)]);
    p2.add_row(Relation::Le, 3.0, &[(0, 1.0), (1, 1.0)]);
    let warm = p2.solve_warm(&mut basis).unwrap();
    assert!(!warm.warm_started(), "singular basis must degrade to cold");
    assert!(close(warm.objective(), -3.0));
    // The warm attempt took the handle's inverse with it; the cold solve that
    // stood in left a whole basis of p2 in its place.
    let again = p2.solve_warm(&mut basis).unwrap();
    assert!(again.warm_started() && again.iterations() == 0);
    assert!(close(again.objective(), -3.0));
}

#[test]
fn a_handle_survives_the_solves_that_fail() {
    // The inverse moves out of the handle for the length of a solve; a solve
    // that does not end at an optimum must still leave something the next
    // solve can use. min -x0 - x1 over x0 <= a, x1 <= b, x0 + x1 >= need.
    let lp = |a: f64, b: f64, need: f64, bounded: bool| {
        let mut p = Problem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        p.add_row(Relation::Le, a, &[(0, 1.0)]);
        // Without its coefficient the row binds nothing: x1 runs away.
        p.add_row(Relation::Le, b, &[(1, if bounded { 1.0 } else { 0.0 })]);
        p.add_row(Relation::Ge, need, &[(0, 1.0), (1, 1.0)]);
        p
    };
    let feasible = lp(3.0, 4.0, 1.0, true);
    let cold = feasible.solve().unwrap();
    for (broken, error) in [
        (lp(3.0, 4.0, 9.0, true), LpError::Infeasible),
        (lp(3.0, 4.0, 1.0, false), LpError::Unbounded),
    ] {
        let mut basis = Basis::new();
        feasible.solve_warm(&mut basis).unwrap();
        assert_eq!(broken.solve_warm(&mut basis).unwrap_err(), error);
        let after = feasible.solve_warm(&mut basis).unwrap();
        assert!(close(after.objective(), cold.objective()), "after {error:?}");
        // ... and that solve left a complete handle behind again.
        let again = feasible.solve_warm(&mut basis).unwrap();
        assert!(again.warm_started() && again.iterations() == 0, "after {error:?}");
        // A fresh handle the failing solve ran cold on is no different.
        let mut fresh = Basis::new();
        assert_eq!(broken.solve_warm(&mut fresh).unwrap_err(), error);
        assert!(close(feasible.solve_warm(&mut fresh).unwrap().objective(), cold.objective()));
    }
}

#[test]
fn cleared_handle_solves_cold_again() {
    let mut p = Problem::minimize(1);
    p.set_objective(0, -1.0);
    p.add_row(Relation::Le, 2.0, &[(0, 1.0)]);
    let mut basis = Basis::new();
    p.solve_warm(&mut basis).unwrap();
    basis.clear();
    assert!(!basis.is_warm());
    let again = p.solve_warm(&mut basis).unwrap();
    assert!(!again.warm_started());
    assert!(basis.is_warm(), "clear + solve re-exports");
}

/// A guaranteed-feasible LP: right-hand sides are derived from a known
/// interior point, and a bounding-box row keeps the optimum finite.
#[derive(Clone, Debug)]
struct FeasibleLp {
    n: usize,
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl FeasibleLp {
    fn to_problem(&self) -> Problem {
        let mut p = Problem::minimize(self.n);
        for (j, &cj) in self.c.iter().enumerate() {
            p.set_objective(j, cj);
        }
        for (coeffs, rel, rhs) in &self.rows {
            let sparse: Vec<(usize, f64)> = coeffs
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(j, &v)| (j, v))
                .collect();
            p.add_row(*rel, *rhs, &sparse);
        }
        // Bounding box: keeps every instance bounded (and stays feasible at
        // the witness point, whose coordinates are at most 3 each).
        let all: Vec<(usize, f64)> = (0..self.n).map(|j| (j, 1.0)).collect();
        p.add_row(Relation::Le, 50.0, &all);
        p
    }
}

/// Two same-shape feasible LPs — "minute t" and "minute t+1".
fn arb_feasible_pair() -> impl Strategy<Value = (FeasibleLp, FeasibleLp)> {
    (2usize..=4, 1usize..=4).prop_flat_map(|(n, m)| {
        let coeffs = proptest::collection::vec(proptest::collection::vec(-4i32..=4, n), m);
        let rels = proptest::collection::vec(
            prop_oneof![Just(Relation::Le), Just(Relation::Eq), Just(Relation::Ge)],
            m,
        );
        let witness1 = proptest::collection::vec(0i32..=3, n);
        let witness2 = proptest::collection::vec(0i32..=3, n);
        let slacks = proptest::collection::vec(0i32..=5, m);
        let c1 = proptest::collection::vec(-5i32..=5, n);
        let c2 = proptest::collection::vec(-5i32..=5, n);
        ((coeffs, rels, slacks), (witness1, c1), (witness2, c2)).prop_map(
            move |((coeffs, rels, slacks), (w1, c1), (w2, c2))| {
                let build = |witness: &[i32], c: &[i32]| {
                    let rows = coeffs
                        .iter()
                        .zip(&rels)
                        .zip(&slacks)
                        .map(|((a, rel), &slack)| {
                            let dot: f64 =
                                a.iter().zip(witness).map(|(&ai, &xi)| ai as f64 * xi as f64).sum();
                            let rhs = match rel {
                                Relation::Le => dot + slack as f64,
                                Relation::Eq => dot,
                                Relation::Ge => dot - slack as f64,
                            };
                            (a.iter().map(|&v| v as f64).collect(), *rel, rhs)
                        })
                        .collect();
                    FeasibleLp { n, c: c.iter().map(|&v| v as f64).collect(), rows }
                };
                (build(&w1, &c1), build(&w2, &c2))
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole invariant: warm-starting minute t+1 from minute t's
    /// basis reaches the same objective as a cold solve of minute t+1.
    #[test]
    fn warm_and_cold_agree_on_random_feasible_problems(
        (lp1, lp2) in arb_feasible_pair()
    ) {
        let p1 = lp1.to_problem();
        let p2 = lp2.to_problem();
        let mut basis = Basis::new();
        p1.solve_warm(&mut basis).expect("feasible by construction");
        let warm = p2.solve_warm(&mut basis).expect("feasible by construction");
        let cold = p2.solve().expect("feasible by construction");
        prop_assert!(
            close(warm.objective(), cold.objective()),
            "warm {} vs cold {} (warm_started {})",
            warm.objective(), cold.objective(), warm.warm_started()
        );
        // The warm solution must satisfy the rows it claims to solve.
        for (coeffs, rel, rhs) in &lp2.rows {
            let lhs: f64 = coeffs.iter().enumerate().map(|(j, v)| v * warm.value(j)).sum();
            let ok = match rel {
                Relation::Le => lhs <= rhs + 1e-6,
                Relation::Eq => (lhs - rhs).abs() <= 1e-6,
                Relation::Ge => lhs >= rhs - 1e-6,
            };
            prop_assert!(ok, "warm solution violates {coeffs:?} {rel:?} {rhs}: lhs={lhs}");
        }
        for j in 0..lp2.n {
            prop_assert!(warm.value(j) >= -1e-9);
        }
    }

    /// Re-solving the *same* instance warm is exact and pivot-free.
    #[test]
    fn warm_self_resolve_is_exact((lp, _) in arb_feasible_pair()) {
        let p = lp.to_problem();
        let mut basis = Basis::new();
        let cold = p.solve_warm(&mut basis).expect("feasible by construction");
        let warm = p.solve_warm(&mut basis).expect("feasible by construction");
        prop_assert!(close(cold.objective(), warm.objective()));
        if basis.is_warm() {
            prop_assert!(warm.warm_started());
        }
    }
}

// ---------------------------------------------------------------------
// Basis::relabel — restarting a *grown* problem (column generation) from the
// optimum of the problem it grew out of.
// ---------------------------------------------------------------------

/// min -x0 - 2 x1  s.t.  x0 + x1 <= 4,  x1 <= 3   => (1, 3), objective -7.
fn small_lp() -> Problem {
    let mut p = Problem::minimize(2);
    p.set_objective(0, -1.0);
    p.set_objective(1, -2.0);
    p.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
    p.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
    p
}

/// `small_lp` grown the way a pricing round grows an LP: a new column `y`
/// spliced in at index 1 (old x1 becomes column 2), a new `<=` row spliced in
/// at index 0, and — like a promoted aggregate — a new column `z` that is
/// fixed by a new equality row `z = 2` and loads the old first row, whose
/// right-hand side rises by the same 2.
fn grown_lp(y_cost: f64) -> Problem {
    let mut p = Problem::minimize(4); // x0, y, x1, z
    p.set_objective(0, -1.0);
    p.set_objective(1, y_cost);
    p.set_objective(2, -2.0);
    p.add_row(Relation::Le, 10.0, &[(0, 1.0), (1, 1.0), (2, 2.0)]); // new, slack at (1,3)
    p.add_row(Relation::Le, 6.0, &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
    p.add_row(Relation::Le, 3.0, &[(2, 1.0)]);
    p.add_row(Relation::Eq, 2.0, &[(3, 1.0)]); // new, z enters
    p
}

const GROWN_COLUMNS: [usize; 2] = [0, 2];
const GROWN_ROWS: [usize; 2] = [1, 2];
const GROWN_ENTER: [Option<usize>; 2] = [None, Some(3)];

#[test]
fn relabelled_basis_restarts_a_grown_problem_at_its_old_optimum() {
    let mut basis = Basis::new();
    small_lp().solve_warm(&mut basis).unwrap();
    // `y` prices out: the extended vertex is already optimal.
    let grown = grown_lp(5.0);
    assert!(basis.relabel(&grown, &GROWN_COLUMNS, &GROWN_ROWS, &GROWN_ENTER));
    let warm = grown.solve_warm(&mut basis).unwrap();
    assert!(warm.warm_started());
    assert_eq!(warm.iterations(), 0, "nothing to price in: no pivots");
    assert!(close(warm.objective(), -7.0));
    assert!((warm.value(0) - 1.0).abs() < 1e-9 && (warm.value(2) - 3.0).abs() < 1e-9);
    assert!((warm.value(3) - 2.0).abs() < 1e-9, "the entering column sits at its row's rhs");
    assert!(close(warm.objective(), grown.solve().unwrap().objective()));
}

#[test]
fn relabelled_basis_prices_in_an_attractive_new_column() {
    let mut basis = Basis::new();
    small_lp().solve_warm(&mut basis).unwrap();
    let grown = grown_lp(-3.0);
    assert!(basis.relabel(&grown, &GROWN_COLUMNS, &GROWN_ROWS, &GROWN_ENTER));
    let warm = grown.solve_warm(&mut basis).unwrap();
    let cold = grown.solve().unwrap();
    assert!(warm.warm_started());
    assert!(warm.iterations() > 0 && warm.iterations() <= cold.iterations());
    assert!(close(warm.objective(), cold.objective()));
    // The refreshed handle is a plain basis of the grown problem again.
    let again = grown.solve_warm(&mut basis).unwrap();
    assert!(again.warm_started());
    assert_eq!(again.iterations(), 0);
}

#[test]
fn inconsistent_relabelling_clears_the_handle_and_solves_cold() {
    let grown = grown_lp(5.0);
    let cold = grown.solve().unwrap();
    type Maps<'a> = (&'a [usize], &'a [usize], &'a [Option<usize>]);
    let bad: [Maps; 8] = [
        (&[0], &GROWN_ROWS, &GROWN_ENTER),               // too few columns
        (&[0, 0], &GROWN_ROWS, &GROWN_ENTER),            // two columns to one
        (&[0, 4], &GROWN_ROWS, &GROWN_ENTER),            // column out of range
        (&GROWN_COLUMNS, &[1, 1], &GROWN_ENTER),         // two rows to one
        (&GROWN_COLUMNS, &[1, 7], &GROWN_ENTER),         // row out of range
        (&GROWN_COLUMNS, &GROWN_ROWS, &[None]),          // a new row without a basic column
        (&GROWN_COLUMNS, &GROWN_ROWS, &[None, None]),    // slack of an equality row
        (&GROWN_COLUMNS, &GROWN_ROWS, &[None, Some(2)]), // entering column is an old one
    ];
    for (columns, rows, enter) in bad {
        let mut basis = Basis::new();
        small_lp().solve_warm(&mut basis).unwrap();
        assert!(!basis.relabel(&grown, columns, rows, enter), "{columns:?} {rows:?} {enter:?}");
        assert!(!basis.is_warm(), "a rejected relabelling clears the handle");
        let sol = grown.solve_warm(&mut basis).unwrap();
        assert!(!sol.warm_started());
        assert!(close(sol.objective(), cold.objective()));
    }
    // A cold handle has nothing to re-label.
    assert!(!Basis::new().relabel(&grown, &GROWN_COLUMNS, &GROWN_ROWS, &GROWN_ENTER));
    // A wrong but well-formed map (the old rows swapped) is a stale basis
    // like any other: the restart verifies it and the answer stays exact.
    let mut basis = Basis::new();
    small_lp().solve_warm(&mut basis).unwrap();
    basis.relabel(&grown, &GROWN_COLUMNS, &[2, 1], &GROWN_ENTER);
    assert!(close(grown.solve_warm(&mut basis).unwrap().objective(), cold.objective()));
}

/// How a random feasible LP is grown: new columns (cost, coefficient in each
/// row), new rows (coefficient on each column, `>=` or `<=`, slack at the old
/// optimum), and how many of each are spliced in *before* the old ones.
#[derive(Clone, Debug)]
struct Growth {
    cols: Vec<(i32, Vec<i32>)>,
    rows: Vec<(Vec<i32>, bool, i32)>,
    front_cols: usize,
    front_rows: usize,
}

fn arb_growth() -> impl Strategy<Value = Growth> {
    let cols =
        proptest::collection::vec((-5i32..=5, proptest::collection::vec(-4i32..=4, 8)), 0..=3);
    let rows = proptest::collection::vec(
        (proptest::collection::vec(-4i32..=4, 7), any::<bool>(), 0i32..=5),
        0..=3,
    );
    (cols, rows, 0usize..=3, 0usize..=3).prop_map(|(cols, rows, fc, fr)| Growth {
        front_cols: fc.min(cols.len()),
        front_rows: fr.min(rows.len()),
        cols,
        rows,
    })
}

/// Builds the grown problem around `lp` (solved to `x`) and the maps that
/// describe it. `price_out` makes every new column too expensive to enter.
fn grow(
    lp: &FeasibleLp,
    x: &[f64],
    g: &Growth,
    price_out: bool,
) -> (Problem, Vec<usize>, Vec<usize>, Vec<Option<usize>>) {
    let (k, r) = (g.cols.len(), g.rows.len());
    let old_m = lp.rows.len() + 1; // + the bounding box
    let columns: Vec<usize> = (0..lp.n).map(|j| g.front_cols + j).collect();
    let new_col = |i: usize| if i < g.front_cols { i } else { lp.n + i };
    let rows: Vec<usize> = (0..old_m).map(|i| g.front_rows + i).collect();
    let new_row = |i: usize| if i < g.front_rows { i } else { old_m + i };

    let mut p = Problem::minimize(lp.n + k);
    for (j, &cj) in lp.c.iter().enumerate() {
        p.set_objective(columns[j], cj);
    }
    for (i, (cost, _)) in g.cols.iter().enumerate() {
        p.set_objective(new_col(i), if price_out { 1e6 } else { *cost as f64 });
    }
    // Row bodies by grown row index, then added in order.
    let mut body = vec![(Vec::<(usize, f64)>::new(), Relation::Le, 0.0); old_m + r];
    for (i, (coeffs, rel, rhs)) in lp.rows.iter().enumerate() {
        let mut row: Vec<(usize, f64)> =
            coeffs.iter().enumerate().map(|(j, &v)| (columns[j], v)).collect();
        row.extend(g.cols.iter().enumerate().map(|(c, (_, a))| (new_col(c), a[i] as f64)));
        body[rows[i]] = (row, *rel, *rhs);
    }
    // The bounding box covers the new columns too, so the grown LP stays bounded.
    body[rows[old_m - 1]] = ((0..lp.n + k).map(|j| (j, 1.0)).collect(), Relation::Le, 50.0);
    for (i, (coeffs, is_ge, slack)) in g.rows.iter().enumerate() {
        let at_x: f64 = (0..lp.n).map(|j| coeffs[j] as f64 * x[j]).sum();
        let mut row: Vec<(usize, f64)> =
            (0..lp.n).map(|j| (columns[j], coeffs[j] as f64)).collect();
        row.extend((0..k).map(|c| (new_col(c), coeffs[lp.n + c] as f64)));
        body[new_row(i)] = if *is_ge {
            (row, Relation::Ge, at_x - *slack as f64)
        } else {
            (row, Relation::Le, at_x + *slack as f64)
        };
    }
    for (row, rel, rhs) in &body {
        p.add_row(*rel, *rhs, row);
    }
    (p, columns, rows, vec![None; r])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Column generation's invariant: a random feasible LP solved to
    /// optimality, then grown by up to three columns and three inequality
    /// rows the old optimum satisfies (spliced in before and after the old
    /// ones), restarts from the re-labelled basis, reaches the optimum a
    /// cold solve finds, and needs no pivot at all when the new columns
    /// price out.
    #[test]
    fn relabelled_restart_agrees_with_cold_on_grown_problems(
        (lp, _) in arb_feasible_pair(),
        growth in arb_growth(),
    ) {
        let base = lp.to_problem();
        let mut basis = Basis::new();
        let first = base.solve_warm(&mut basis).expect("feasible by construction");
        // A redundant equality keeps an artificial basic: nothing exported.
        prop_assume!(basis.is_warm());
        for price_out in [true, false] {
            let (grown, columns, rows, enter) = grow(&lp, first.values(), &growth, price_out);
            let mut handle = basis.clone();
            prop_assert!(handle.relabel(&grown, &columns, &rows, &enter));
            let warm = grown.solve_warm(&mut handle).expect("the old optimum is feasible");
            let cold = grown.solve().expect("the old optimum is feasible");
            prop_assert!(warm.warm_started());
            prop_assert!(
                (warm.objective() - cold.objective()).abs() <= 1e-7 * (1.0 + cold.objective().abs()),
                "warm {} vs cold {}", warm.objective(), cold.objective()
            );
            if price_out {
                prop_assert_eq!(warm.iterations(), 0);
                prop_assert!(close(warm.objective(), first.objective()));
            }
        }
    }
}

/// Demand `volume` split over two parallel 5 Gbps links, minimizing the
/// overload both may run: `z_1 + z_2 = volume` in Mbps, the capacity rows
/// scaled to 1 (`z_l / C_l - omax <= 1`) — the growth LP's two row scales.
fn two_parallel_links(volume: f64) -> Problem {
    let mut p = Problem::minimize(3); // z_1, z_2, omax
    p.set_objective(2, 1.0);
    p.add_row(Relation::Eq, volume, &[(0, 1.0), (1, 1.0)]);
    p.add_row(Relation::Le, 1.0, &[(0, 1.0 / 5000.0), (2, -1.0)]);
    p.add_row(Relation::Le, 1.0, &[(1, 1.0 / 5000.0), (2, -1.0)]);
    p
}

#[test]
#[ignore = "ROADMAP 1a: dual_repair's feasibility tolerance is scaled by the largest rhs"]
fn warm_restart_at_the_just_fits_boundary_reports_the_overload() {
    // The demand just fits; a minute later it is 1.5 Mbps over, which only
    // an overload of 1.5e-4 carries. The restored vertex has one capacity
    // row 3e-4 over, `dual_repair` measures that against 1e-7 · (1 + 10^4)
    // — the scale of the volume row — and rounds it away.
    let mut basis = Basis::new();
    let fits = two_parallel_links(9_999.0).solve_warm(&mut basis).unwrap();
    assert!(fits.objective().abs() < 1e-12);
    let over = two_parallel_links(10_001.5);
    let warm = over.solve_warm(&mut basis).unwrap();
    assert!(warm.warm_started());
    assert_eq!(certify(&over, warm.values(), warm.duals()), Ok(()));
    assert!(warm.value(2) > 1e-4, "omax {}", warm.value(2));
}
