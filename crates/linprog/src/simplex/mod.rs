//! Two-phase revised simplex over the equality standard form, with native
//! variable upper bounds.
//!
//! One decision a file:
//!
//! - `standard_form`: the equality standard form the engine solves, with
//!   its sparse columns;
//! - `inverse`: how the basis inverse is held (sparse columns) and the
//!   kernels that read and write it;
//! - `basis`: what a warm restart carries between solves ([`Basis`]) and
//!   how the engine takes it up and hands it back;
//! - `engine`: the pivoting itself — both phases, the ratio test, the dual
//!   repair of a warm restart — and the cold and warm entry points;
//! - `live`: a problem held in standard form along a column-generation
//!   chain ([`LiveLp`]), grown by splicing ([`Growth`]) instead of posed
//!   again;
//! - `pricing`: the duals and reduced costs the entering choice reads,
//!   kept across pivots — a pivot reprices only the columns it changed —
//!   and the row index that finds them;
//! - `tol`: the numerical policy — every tolerance the engine reads, named
//!   once (`engine`'s module docs tabulate them).

mod basis;
mod engine;
mod inverse;
mod live;
mod pricing;
mod standard_form;
mod tol;

pub use basis::Basis;
pub(crate) use engine::{solve_standard_form_cold, solve_standard_form_warm, SolverOptions};
pub use engine::{LpError, Solution};
pub use live::{Growth, LiveLp};
pub(crate) use standard_form::{SparseCols, StandardForm};
pub use tol::PRICING_TOL;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::basis::tests::RESTART_WORK;
    use super::engine::{
        solve_standard_form_cold, solve_standard_form_warm, Block, Engine, Rest, SolverOptions,
    };
    use super::inverse::tests::DenseInverse;
    use super::pricing::tests::PRICE_AUDITS;
    use super::standard_form::StandardForm;
    use super::tol::snap_round_off;
    use crate::{Basis, Growth, LiveLp, LpError, Problem, Relation};

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
        let audits = PRICE_AUDITS.get();
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
        assert!(PRICE_AUDITS.get() > audits, "the restarts' kept prices were audited");
    }

    #[test]
    fn extended_inverse_is_completed_without_refactorizing() {
        // A pricing round in miniature. Old LP: min t s.t. -t <= -1 (a
        // negative rhs), x - t <= 0, x <= 3. Grown LP: an equality row
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

    #[test]
    fn a_row_starts_on_its_slack_when_the_slack_has_the_sign_of_its_rhs() {
        // `x rel rhs` for every relation at rhs 3, -3 and 0: the slack
        // (+1 for `<=`, -1 for `>=`) starts basic when it has the sign of
        // the rhs, zero counting as positive; any other row, and every `==`
        // row, starts on an artificial. Either way its basic value is |rhs|.
        let rows = [
            (Relation::Le, 3.0, false),
            (Relation::Le, -3.0, true),
            (Relation::Le, 0.0, false),
            (Relation::Ge, 3.0, true),
            (Relation::Ge, -3.0, false),
            (Relation::Ge, 0.0, true),
            (Relation::Eq, 3.0, true),
            (Relation::Eq, -3.0, true),
            (Relation::Eq, 0.0, true),
        ];
        let mut p = Problem::minimize(1);
        for &(rel, rhs, _) in &rows {
            p.add_row(rel, rhs, &[(0, 1.0)]);
        }
        let sf = p.to_standard_form();
        let eng = Engine::new(&sf, SolverOptions::default());
        for (r, &(rel, rhs, artificial)) in rows.iter().enumerate() {
            let what = format!("row {r}: x {rel:?} {rhs}");
            assert_eq!(eng.basis[r] >= eng.art_start, artificial, "{what}");
            assert_eq!(eng.xb[r], rhs.abs(), "{what}");
        }
    }

    #[test]
    fn a_right_hand_side_that_changes_sign_keeps_the_carried_inverse() {
        // min -x - 2y  s.t.  x + y <= 4,  x - y <= b,  y - x <= 2: the
        // optimum x = 1, y = 3 holds for b = ±1, with the second row's
        // slack basic at b + 2. A rhs changing sign changes no column, so
        // every restart stands at the optimum it carries.
        let lp = |b: f64| {
            let mut p = Problem::minimize(2);
            p.set_objective(0, -1.0);
            p.set_objective(1, -2.0);
            p.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
            p.add_row(Relation::Le, b, &[(0, 1.0), (1, -1.0)]);
            p.add_row(Relation::Le, 2.0, &[(0, -1.0), (1, 1.0)]);
            p
        };
        let mut handle = Basis::new();
        lp(1.0).solve_warm(&mut handle).unwrap();
        for b in [1.0, -1.0, 1.0, -1.0] {
            let p = lp(b);
            let (sol, (replaced, _, refactorizations)) =
                restart_work(|| p.solve_warm(&mut handle).unwrap());
            assert!(sol.warm_started(), "b = {b}");
            assert_eq!((sol.iterations(), replaced, refactorizations), (0, 0, 0), "b = {b}");
            assert_eq!(sol.values(), [1.0, 3.0], "b = {b}");
            crate::certify(&p, sol.values(), sol.duals()).unwrap();
        }
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
            None => {
                let eng = Engine::new(&sf, opts);
                let mut dense = DenseInverse { m: eng.m, binv: Vec::new() };
                dense.refactorize(&eng);
                (eng, dense)
            }
            Some((mut handle, mut dense)) => {
                let inverts = handle.carried.cols.clone();
                let eng = Engine::with_basis(&sf, opts, &mut handle).expect("labels fit");
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

    /// The [`Growth`] that turns `old` into `grown` under the maps of
    /// [`grown`]: its new rows and columns, the entries old columns gain in
    /// new rows, and the right-hand sides of old rows that moved.
    fn growth_between(old: &DenseLp, grown: &DenseLp, columns: &[usize], rows: &[usize]) -> Growth {
        let is_old_row = |r: usize| rows.contains(&r);
        let mut growth = Growth::new();
        growth.begin(columns.to_vec(), rows.to_vec(), vec![None; grown.rows.len() - rows.len()]);
        for (r, (_, rel, rhs)) in grown.rows.iter().enumerate() {
            match rows.iter().position(|&k| k == r) {
                None => growth.add_row(*rel, *rhs),
                Some(k) if rhs.to_bits() != old.rows[k].2.to_bits() => growth.set_rhs(r, *rhs),
                Some(_) => {}
            }
        }
        for j in 0..grown.c.len() {
            let entries = grown.rows.iter().enumerate().map(|(r, (a, _, _))| (r, a[j]));
            if columns.contains(&j) {
                for (r, v) in entries.filter(|&(r, _)| !is_old_row(r)) {
                    growth.add_entry(j, r, v);
                }
            } else {
                growth.add_column(grown.c[j], grown.upper[j], entries);
            }
        }
        growth
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A live LP grown by splicing is, to the bit, the standard form the
        /// grown problem poses, and its restart is [`Basis::relabel`] +
        /// [`Engine::with_basis`]'s: the same labels, inverse, basic values
        /// and age, the same solve, and after it the same handle —
        /// columns, coefficients, right-hand sides (some of which move),
        /// costs, bounds and slack order alike.
        #[test]
        fn a_spliced_restart_is_the_relabelled_one_to_the_bit(
            lp in arb_bounded_lp(),
            cols in proptest::collection::vec(
                (-5i32..=5, proptest::collection::vec(-3i32..=3, DRIVEN), 0usize..DRIVEN),
                0..=2,
            ),
            rows in proptest::collection::vec(
                (proptest::collection::vec(-3i32..=3, DRIVEN), any::<bool>(), -4i32..=6, 0usize..DRIVEN),
                0..=2,
            ),
            flips in proptest::collection::vec(any::<bool>(), DRIVEN),
        ) {
            let problem = lp.problem();
            let mut handle = Basis::new();
            let Ok(first) = problem.solve_warm(&mut handle) else { return Ok(()) };
            if !handle.is_warm() {
                return Ok(());
            }
            // New rows pass through the old optimum (new columns at zero)
            // with the slack they were drawn with; flagged old rows relax.
            let (mut next, columns, row_map) = grown(&lp, &cols, &rows, None);
            let mut at = vec![0.0; next.c.len()];
            for (&j, &x) in columns.iter().zip(first.values()) {
                at[j] = x;
            }
            let mut slacks = rows.iter().map(|r| r.2.abs());
            for (r, row) in next.rows.iter_mut().enumerate() {
                if !row_map.contains(&r) {
                    let ge = row.1 == Relation::Ge;
                    *row = row_through(row.0.clone(), &at, ge, slacks.next().unwrap());
                }
            }
            for (&r, _) in row_map.iter().zip(&flips).filter(|(_, &f)| f) {
                next.rows[r].2 += if next.rows[r].1 == Relation::Ge { -1.0 } else { 1.0 };
            }
            let posed = next.problem();
            let enter = vec![None; rows.len()];

            let mut relabelled = handle.clone();
            prop_assert!(relabelled.relabel(&posed, &columns, &row_map, &enter));
            let mut live = LiveLp::new(&problem);
            let mut spliced = handle.clone();
            prop_assert!(live.grow(&growth_between(&lp, &next, &columns, &row_map), &mut spliced));
            prop_assert_eq!(live.differs_from(&posed), None);

            let sf = posed.to_standard_form();
            let opts = SolverOptions::default();
            let head = Engine::with_basis(&sf, opts.clone(), &mut relabelled.clone());
            let restart = Engine::with_basis(&live.sf, opts, &mut spliced.clone());
            match (head, restart) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(&a.basis, &b.basis);
                    prop_assert!(a.rest == b.rest && a.age == b.age);
                    let bits = |e: &Engine| -> Vec<Vec<(usize, u64)>> {
                        e.binv.cols.iter().map(|c| c.iter().map(|&(i, v)| (i, v.to_bits())).collect()).collect()
                    };
                    prop_assert_eq!(bits(&a), bits(&b));
                    let xb = |e: &Engine| e.xb.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(xb(&a), xb(&b));
                }
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }

            match (posed.solve_warm(&mut relabelled), live.solve(&mut spliced)) {
                (Ok(a), Ok(b)) => {
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(a.values()), bits(b.values()));
                    prop_assert_eq!(bits(a.duals()), bits(b.duals()));
                    prop_assert_eq!((a.iterations(), a.warm_started()), (b.iterations(), b.warm_started()));
                }
                (a, b) => prop_assert_eq!(a.err(), b.err()),
            }
            prop_assert_eq!(format!("{spliced:?}"), format!("{relabelled:?}"));
            let entries = |b: &Basis| b.carried.cols.entries.iter().map(|&(r, v)| (r, v.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(entries(&spliced), entries(&relabelled));
            prop_assert_eq!(&spliced.carried.cols.ptr, &relabelled.carried.cols.ptr);
            let inverse = |b: &Basis| DenseInverse::of(&b.carried.inverse).binv.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(inverse(&spliced), inverse(&relabelled));
        }
    }

    proptest! {
        /// The kept prices are the full ones, to the bit, after every
        /// pivot — `run_phase` and `dual_repair` audit them against a
        /// recomputation from scratch — also when a refactorization every
        /// other pivot rewrites the inverse mid-phase. The rows and costs
        /// are scaled by sevenths and thirds so that the refactorized
        /// inverse does not come out with the updated one's bits.
        #[test]
        fn kept_prices_are_the_full_ones_across_refactorizations(lp in arb_bounded_lp()) {
            let mut scaled = lp.clone();
            for (i, (a, _, rhs)) in scaled.rows.iter_mut().enumerate() {
                let s = (i + 3) as f64 / 7.0;
                a.iter_mut().for_each(|v| *v *= s);
                *rhs *= s;
            }
            scaled.c.iter_mut().for_each(|c| *c /= 3.0);
            let problem = scaled.problem();
            let opts = SolverOptions { refactor_every: 2, ..Default::default() };
            let audits = PRICE_AUDITS.get();
            let often = solve_standard_form_cold(&problem.to_standard_form(), &opts, None);
            match (often, problem.solve()) {
                (Ok(often), Ok(once)) => {
                    let (a, b) = (often.objective(), once.objective());
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())), "{a} vs {b}");
                    prop_assert!(PRICE_AUDITS.get() > audits);
                }
                (often, once) => prop_assert_eq!(often.err(), once.err()),
            }
        }
    }

    #[test]
    fn the_leaving_column_is_repriced_when_no_dual_it_crosses_changes_bits() {
        // Costs over six decades, rows scaled by sevenths and thirds. In
        // exact arithmetic a pivot moves `y` on some row the leaving column
        // crosses, so repricing the rows whose `y` changed would reprice
        // it too; in one pivot here that move is below an ulp of the large
        // duals, every `y` it crosses keeps its bits, and only the leaving
        // column's own reprice makes its kept reduced cost the full one
        // (`run_phase`'s audit fails without it).
        let lp = DenseLp {
            c: vec![1e14, 1e10, 6666666666.666667, 166666666.66666666],
            upper: vec![1.0, 6.0, 4.0, 4.0],
            rows: vec![
                (
                    vec![2.2857142857142856, 0.0, 4.0, 3.4285714285714284],
                    Relation::Le,
                    9.142857142857142,
                ),
                (vec![-7.0, 9.333333333333334, 0.0, 0.0], Relation::Ge, 3.0),
                (vec![0.0, 8.0, 5.333333333333333, -8.0], Relation::Ge, 8.0),
                (
                    vec![
                        1.7142857142857142,
                        1.1428571428571428,
                        2.2857142857142856,
                        1.7142857142857142,
                    ],
                    Relation::Le,
                    42.857142857142854,
                ),
            ],
        };
        let audits = PRICE_AUDITS.get();
        let sol = lp.problem().solve().expect("feasible: x = (0, 1, 1.5, 0)");
        assert!(sol.iterations() > 1 && PRICE_AUDITS.get() > audits);
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
            let dense = snap_round_off(acc);
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

    /// Each way a warm restart can fall back to a cold solve, forced, and
    /// read back from its `lp.degrade.*` counter. Other tests solving while
    /// telemetry is on can only add, so each forced cause must move its
    /// counter by at least one.
    #[test]
    fn each_cause_of_a_cold_fallback_has_its_counter() {
        use lowlat_telemetry as telemetry;
        let read = |name: &str| telemetry::snapshot().counter(name);
        let fall_back = |cause: &str, opts: &SolverOptions, basis: &mut Basis, p: &Problem| {
            let (cold, before) = (read("lp.degrade_to_cold"), read(cause));
            let out = solve_standard_form_warm(&p.to_standard_form(), opts, basis);
            assert!(read("lp.degrade_to_cold") > cold, "{cause}: no cold fallback");
            assert!(read(cause) > before, "{cause}: not counted");
            out
        };
        // min c·x over x_j <= 1, one row per variable.
        let boxed = |n: usize, c: f64, lower: f64| {
            let mut p = Problem::minimize(n);
            for j in 0..n {
                p.set_objective(j, c);
                p.add_row(Relation::Le, 1.0, &[(j, 1.0)]);
            }
            p.add_row(Relation::Ge, lower, &[(0, 1.0)]);
            p
        };
        let opts = SolverOptions::default();
        telemetry::set_enabled(true);

        // A basis of two rows cannot restart an LP of four.
        let mut basis = Basis::new();
        solve_standard_form_warm(&boxed(1, 1.0, 0.0).to_standard_form(), &opts, &mut basis)
            .unwrap();
        let out = fall_back("lp.degrade.basis_unusable", &opts, &mut basis, &boxed(3, 1.0, 0.0));
        assert!(out.is_ok());

        // x_0 >= 2 under x_0 <= 1: the violated row has no column to
        // repair it with, and the cold solve proves the LP infeasible.
        let out = fall_back("lp.degrade.repair_gave_up", &opts, &mut basis, &boxed(3, 1.0, 2.0));
        assert_eq!(out.unwrap_err(), LpError::Infeasible);

        // Reversing the costs takes three pivots from the vertex the basis
        // holds, and the pivot cap allows one.
        solve_standard_form_warm(&boxed(3, 1.0, 0.0).to_standard_form(), &opts, &mut basis)
            .unwrap();
        let capped = SolverOptions { max_iterations: 1, ..Default::default() };
        let out = fall_back("lp.degrade.restart_failed", &capped, &mut basis, &boxed(3, -1.0, 0.0));
        assert_eq!(out.unwrap_err(), LpError::IterationLimit);
        telemetry::set_enabled(false);
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
