//! # lowlat-linprog
//!
//! A self-contained linear-program solver: two-phase **revised simplex** with
//! sparse constraint columns and an explicit basis inverse stored as sparse
//! columns.
//!
//! The paper solves path-based multi-commodity-flow LPs (Figure 12) whose
//! row counts stay small because the path set is grown lazily (Figure 13) —
//! typically a few hundred to a few thousand rows, most of them capacity
//! rows that are slack at the optimum. A slack row contributes a unit
//! column to the basis inverse, so the explicit inverse of such an LP is
//! around 1% nonzero; it is kept by its nonzeros, and a pivot, a restart
//! and a [`Basis::relabel`] cost those rather than the square of the row
//! count. An LP whose inverse really is dense pays up to about twice per
//! entry for the indices. (The paper's §5
//! has "the bottleneck is not the linear optimizer, but the k shortest paths
//! algorithm"; in this reproduction the LP chain is still the larger share
//! of a GTS-like LDR decision — the repo benchmark's layer table says by
//! how much.)
//!
//! ## Scope
//!
//! * minimize `c·x` subject to `Ax {<=,==,>=} b`, `0 <= x <= u` — upper
//!   bounds are native (a bound-flip ratio test), not rows
//! * detects infeasibility and unboundedness
//! * Dantzig pricing with an automatic switch to Bland's rule when
//!   degeneracy stalls progress (guaranteeing termination); the duals and
//!   reduced costs are kept across pivots, and a pivot reprices only the
//!   columns crossing a row whose dual it moved — the same values, to the
//!   bit, that pricing every column again would give
//! * periodic refactorization of the basis inverse for numerical hygiene
//! * **warm starts**: [`Problem::solve_warm`] re-optimizes from the
//!   [`Basis`] a previous solve exported — the §5 minute-by-minute
//!   deployment cycle poses nearly identical LPs, and restarting from the
//!   previous optimal vertex skips phase 1 and most pivots. The handle
//!   carries the basis inverse *and the columns it inverts*, so the restart
//!   costs what changed: basic columns are compared exactly, in O(nonzeros),
//!   and only the ones that differ are re-multiplied and replaced by an eta
//!   update — a re-solve with new right-hand sides or costs re-multiplies
//!   nothing and reads the inverse once, for the basic values. Stale bases
//!   (wrong shape, singular, infeasible under the new data) fall back to a
//!   cold solve automatically.
//! * **duals and a certificate**: [`Solution::duals`] returns the dual value
//!   of every posed row, and [`certify`] checks a primal/dual pair against
//!   the problem as posed — feasibility, dual feasibility, complementary
//!   slackness, duality gap — in O(nonzeros), sharing no code with the
//!   pivoting engine.
//! * **column generation**: [`Basis::relabel`] carries an exported basis —
//!   and its inverse — over to a problem grown by new columns and rows, so
//!   a pricing round restarts from the optimum of the round before it; and
//!   [`Solution::prices_in`] says, from that optimum's duals, whether a new
//!   column would enter the basis at all — a round none of whose columns
//!   would need not be posed. A chain of such rounds need not pose its
//!   problems at all: a [`LiveLp`] begins as columns alone
//!   ([`LiveLp::with_columns`]) and takes the first round's rows from a
//!   splice, then holds the standard form of the last round solved; each
//!   later round splices its new columns and rows in ([`Growth`]) and
//!   renumbers the caller's [`Basis`] with them, and the restart takes that
//!   handle as `solve_warm` does — the same renumbering as `relabel`, the
//!   same restart, the same standard form as posing the problem, to the
//!   bit. `relabel` and a posed [`Problem`] stay the references a spliced
//!   chain is tested against.
//!
//! Not implemented (not needed by this workspace): general variable bounds
//! (shift/negate at the call site), sparse LU factorization or an eta file
//! (the inverse is explicit — every entry of `B⁻¹` that is not zero is
//! stored and updated — refactorization is a dense Gauss–Jordan elimination,
//! and a [`Basis`] carries the inverse between solves up to 32 MB of it), a
//! full dual simplex (a warm restart repairs primal infeasibility with a
//! bounded number of dual pivots, then runs the primal method), presolve.
//!
//! ```
//! use lowlat_linprog::{Problem, Relation};
//!
//! // min -x - 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0  => optimum at (1,3)
//! let mut p = Problem::minimize(2);
//! p.set_objective(0, -1.0);
//! p.set_objective(1, -2.0);
//! p.add_row(Relation::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
//! p.add_row(Relation::Le, 3.0, &[(1, 1.0)]);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective() - (-7.0)).abs() < 1e-9);
//! assert!((sol.value(0) - 1.0).abs() < 1e-9);
//! assert!((sol.value(1) - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod problem;
mod simplex;

pub use certify::{certify, Violation};
pub use problem::{Problem, Relation, RowId};
pub use simplex::{Basis, Growth, LiveLp, LpError, Solution, PRICING_TOL};
