//! An optimality certificate checked against the problem as posed.
//!
//! [`certify`] takes a [`Problem`], a primal point and one dual value per
//! row, and decides from the problem's own rows — no basis, no inverse, no
//! standard form; nothing here is shared with the pivoting engine — whether
//! the pair proves the point optimal. A stale or mis-relabelled basis, a
//! dual of the wrong sign or a pricing vector read at the wrong moment all
//! fail here, without a second solve to compare against.
//!
//! With `d_j = c_j - Σ_i y_i a_ij` the reduced cost of variable `j`, the
//! conditions are the textbook ones for `min c·x, Ax {<=,==,>=} b,
//! 0 <= x <= u`:
//!
//! * primal feasibility: every row and every bound holds at `x`;
//! * dual feasibility: `y_i <= 0` on `<=` rows, `>= 0` on `>=` rows, and
//!   `d_j >= 0` unless `u_j` is finite (a variable may rest at its upper
//!   bound, where its reduced cost is the bound's price and negative);
//! * complementary slackness: a row with slack has no price, a variable off
//!   its lower bound has no positive reduced cost, one off its upper bound no
//!   negative one;
//! * no duality gap: `c·x = b·y + Σ_j u_j min(d_j, 0)`.
//!
//! Tolerances are relative to the magnitudes summed in each test (`1e-6` for
//! rows, bounds, products and the gap, `1e-7` for signs), an order looser
//! than the solver's own so that a solution it calls optimal passes and an
//! error of a basis position — which moves a dual by the size of a cost —
//! does not.

use crate::problem::{Problem, Relation};

/// What [`certify`] found wrong first, and where.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Violation {
    /// `x` is not one value per variable or `y` not one per row.
    Shape,
    /// Row `row` is violated by `by`.
    PrimalRow {
        /// The row, in the order rows were added.
        row: usize,
        /// How far the row's activity is on the wrong side of its rhs.
        by: f64,
    },
    /// Variable `var` lies `by` outside `0..=upper`.
    PrimalBound {
        /// The variable.
        var: usize,
        /// Distance to the violated bound.
        by: f64,
    },
    /// The dual of row `row` has the sign its relation forbids.
    DualSign {
        /// The row.
        row: usize,
        /// Its dual value.
        dual: f64,
    },
    /// Variable `var` has no finite upper bound to rest at, yet its reduced
    /// cost is negative.
    ReducedCost {
        /// The variable.
        var: usize,
        /// `c_j - Σ_i y_i a_ij`.
        reduced_cost: f64,
    },
    /// Row `row` carries a price although it is `slack` away from tight.
    RowSlackness {
        /// The row.
        row: usize,
        /// Distance between the row's activity and its rhs.
        slack: f64,
        /// Its dual value.
        dual: f64,
    },
    /// Variable `var` sits off the bound its reduced cost pushes it to.
    VarSlackness {
        /// The variable.
        var: usize,
        /// Its value.
        value: f64,
        /// `c_j - Σ_i y_i a_ij`.
        reduced_cost: f64,
    },
    /// The primal and dual objectives differ.
    Gap {
        /// `c·x`.
        primal: f64,
        /// `b·y + Σ_j u_j min(d_j, 0)`.
        dual: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for Violation {}

/// Relative tolerance of feasibility, slackness products and the gap.
const TOL: f64 = 1e-6;
/// Relative tolerance of the sign tests on duals and reduced costs.
const SIGN_TOL: f64 = 1e-7;

/// Checks that `y` (one dual per row of `problem`, `∂objective/∂rhs` as
/// [`crate::Solution::duals`] returns them) proves `x` optimal for
/// `problem`. One pass over the rows' nonzeros and one over the variables;
/// see the module docs for the conditions and tolerances.
pub fn certify(problem: &Problem, x: &[f64], y: &[f64]) -> Result<(), Violation> {
    let rows = problem.posed_rows();
    if x.len() != problem.num_vars() || y.len() != rows.len() {
        return Err(Violation::Shape);
    }
    // Σ_i y_i a_ij per variable, and the magnitude it was summed from.
    let mut priced = vec![0.0; x.len()];
    let mut priced_mag = vec![0.0; x.len()];
    let (mut dual_objective, mut gap_mag) = (0.0, 0.0);
    let cost_scale = 1.0 + problem.costs().iter().fold(0.0, |m: f64, c| m.max(c.abs()));

    for (row, ((coeffs, rel, rhs), &dual)) in rows.zip(y).enumerate() {
        let (mut activity, mut mag) = (0.0, rhs.abs());
        for &(j, a) in coeffs {
            activity += a * x[j];
            mag += (a * x[j]).abs();
            priced[j] += dual * a;
            priced_mag[j] += (dual * a).abs();
        }
        // Positive = the row has room, negative = it is violated.
        let (slack, wrong_sign) = match rel {
            Relation::Le => (rhs - activity, dual),
            Relation::Ge => (activity - rhs, -dual),
            Relation::Eq => (-(activity - rhs).abs(), 0.0),
        };
        if slack < -TOL * (1.0 + mag) {
            return Err(Violation::PrimalRow { row, by: -slack });
        }
        if wrong_sign > SIGN_TOL * cost_scale {
            return Err(Violation::DualSign { row, dual });
        }
        if (slack * dual).abs() > TOL * (1.0 + mag) * cost_scale {
            return Err(Violation::RowSlackness { row, slack, dual });
        }
        dual_objective += dual * rhs;
        gap_mag += (dual * rhs).abs();
    }

    let mut primal_objective = 0.0;
    for (var, (&value, (&cost, &upper))) in
        x.iter().zip(problem.costs().iter().zip(problem.upper_bounds())).enumerate()
    {
        let below = -value;
        let above = value - upper;
        if below.max(above) > TOL * (1.0 + if upper.is_finite() { upper } else { value.abs() }) {
            return Err(Violation::PrimalBound { var, by: below.max(above) });
        }
        let reduced_cost = cost - priced[var];
        let sign_tol = SIGN_TOL * (cost_scale + priced_mag[var]);
        if upper.is_infinite() && reduced_cost < -sign_tol {
            return Err(Violation::ReducedCost { var, reduced_cost });
        }
        // A positive reduced cost holds the variable at 0, a negative one
        // at its upper bound.
        let off_bound = if reduced_cost > 0.0 { value.max(0.0) } else { (upper - value).max(0.0) };
        if reduced_cost.abs() > sign_tol
            && reduced_cost.abs() * off_bound > TOL * (1.0 + value.abs()) * cost_scale
        {
            return Err(Violation::VarSlackness { var, value, reduced_cost });
        }
        primal_objective += cost * value;
        gap_mag += (cost * value).abs();
        if upper.is_finite() && reduced_cost < 0.0 {
            dual_objective += upper * reduced_cost;
            gap_mag += (upper * reduced_cost).abs();
        }
    }
    if (primal_objective - dual_objective).abs() > TOL * (1.0 + gap_mag) {
        return Err(Violation::Gap { primal: primal_objective, dual: dual_objective });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min -x - 2y  s.t.  x + y <= 5,  -y >= -3  (a negated `>=` row),
    /// x - z == 0,  z <= 1 (a bound). Optimum x = z = 1, y = 3.
    fn bounded() -> Problem {
        let mut p = Problem::minimize(3);
        p.set_objective(0, -1.0);
        p.set_objective(1, -2.0);
        p.set_upper_bound(2, 1.0);
        p.add_row(Relation::Le, 5.0, &[(0, 1.0), (1, 1.0)]);
        p.add_row(Relation::Ge, -3.0, &[(1, -1.0)]);
        p.add_row(Relation::Eq, 0.0, &[(0, 1.0), (2, -1.0)]);
        p
    }

    #[test]
    fn the_solvers_own_answer_passes() {
        let p = bounded();
        let sol = p.solve().unwrap();
        assert_eq!(sol.values(), [1.0, 3.0, 1.0]);
        // The `<=` row is slack (1 + 3 < 5): the price of x is carried by
        // the equality row down to z's upper bound.
        assert_eq!(sol.duals(), [0.0, 2.0, -1.0]);
        assert_eq!(certify(&p, sol.values(), sol.duals()), Ok(()));
    }

    #[test]
    fn each_condition_is_told_apart() {
        let p = bounded();
        let (x, y) = ([1.0, 3.0, 1.0], [0.0, 2.0, -1.0]);
        assert_eq!(certify(&p, &x[..2], &y), Err(Violation::Shape));
        assert_eq!(certify(&p, &x, &y[..2]), Err(Violation::Shape));
        assert!(matches!(
            certify(&p, &[3.0, 3.0, 1.0], &y),
            Err(Violation::PrimalRow { row: 0, .. })
        ));
        assert!(matches!(
            certify(&p, &[2.0, 3.0, 2.0], &y),
            Err(Violation::PrimalBound { var: 2, .. })
        ));
        assert!(matches!(
            certify(&p, &x, &[0.5, 2.0, -1.0]),
            Err(Violation::DualSign { row: 0, .. })
        ));
        assert!(matches!(
            certify(&p, &x, &[0.0, -2.0, -1.0]),
            Err(Violation::DualSign { row: 1, .. })
        ));
        // Without the equality row's price x could still fall in cost.
        assert!(matches!(
            certify(&p, &x, &[0.0, 2.0, 0.0]),
            Err(Violation::ReducedCost { var: 0, .. })
        ));
        // A feasible point that is not optimal: y = 2 leaves its row slack.
        assert!(matches!(
            certify(&p, &[1.0, 2.0, 1.0], &y),
            Err(Violation::RowSlackness { row: 1, .. })
        ));
        // z off its upper bound although its reduced cost is negative.
        assert!(matches!(
            certify(&p, &[0.5, 3.0, 0.5], &y),
            Err(Violation::VarSlackness { var: 2, .. })
        ));
    }

    #[test]
    fn a_gap_is_caught_when_every_product_is_small() {
        // min x  s.t.  x >= 1e-3 a thousand times over: each row's slack
        // times its dual stays inside the product tolerance, the sum of them
        // does not.
        let rows = 1000;
        let mut p = Problem::minimize(1);
        p.set_objective(0, 1.0);
        for _ in 0..rows {
            p.add_row(Relation::Ge, 1e-3, &[(0, 1.0)]);
        }
        let y = vec![1.0 / rows as f64; rows];
        assert_eq!(certify(&p, &[1e-3], &y), Ok(()));
        let x = 1e-3 + 9e-4;
        assert!(matches!(certify(&p, &[x], &y), Err(Violation::Gap { .. })));
    }

    #[test]
    fn the_zero_row_problem_has_no_duals() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, -2.0);
        p.set_objective(1, 1.0);
        p.set_upper_bound(0, 5.0);
        let sol = p.solve().unwrap();
        assert!(sol.duals().is_empty());
        assert_eq!(certify(&p, sol.values(), sol.duals()), Ok(()));
        assert!(matches!(
            certify(&p, &[0.0, 0.0], &[]),
            Err(Violation::VarSlackness { var: 0, .. })
        ));
    }
}
