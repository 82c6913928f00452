//! # lowlat-linprog
//!
//! A self-contained linear-program solver: two-phase **revised simplex** with
//! sparse constraint columns and a dense, column-major basis inverse.
//!
//! The paper solves path-based multi-commodity-flow LPs (Figure 12) whose
//! row counts stay small because the path set is grown lazily (Figure 13) —
//! typically a few hundred to a few thousand rows. A dense basis inverse is
//! the right tool at that scale: simple, predictable, and fast enough that
//! "the bottleneck is not the linear optimizer, but the k shortest paths
//! algorithm" (paper §5), which our Figure-15 reproduction confirms.
//!
//! ## Scope
//!
//! * minimize `c·x` subject to `Ax {<=,==,>=} b`, `x >= 0`
//! * detects infeasibility and unboundedness
//! * Dantzig pricing with an automatic switch to Bland's rule when
//!   degeneracy stalls progress (guaranteeing termination)
//! * periodic refactorization of the basis inverse for numerical hygiene
//! * **warm starts**: [`Problem::solve_warm`] re-optimizes from the
//!   [`Basis`] a previous solve exported — the §5 minute-by-minute
//!   deployment cycle poses nearly identical LPs, and restarting from the
//!   previous optimal vertex skips phase 1 and most pivots. Stale bases
//!   (wrong shape, singular, infeasible under the new data) fall back to a
//!   cold solve automatically.
//! * **column generation**: [`Basis::relabel`] carries an exported basis —
//!   and its inverse — over to a problem grown by new columns and rows, so
//!   a pricing round restarts from the optimum of the round before it.
//!
//! Not implemented (not needed by this workspace): general variable bounds
//! (shift/negate at the call site), sparse LU factorization, dual simplex,
//! presolve. Callers with upper-bounded variables add explicit rows.
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

mod problem;
mod simplex;

pub use problem::{Problem, Relation, RowId};
pub use simplex::{Basis, LpError, Solution, SolverOptions};
