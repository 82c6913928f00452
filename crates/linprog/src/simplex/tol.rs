//! The engine's numerical policy: every tolerance the pivoting reads,
//! named once. Each says whether it is absolute or relative, relative to
//! what, and which decision it guards; `engine`'s module docs list them
//! side by side. Equal values that guard different decisions keep separate
//! names, so changing one cannot move another.

/// Pricing: a nonbasic column enters the basis only when its reduced cost,
/// signed toward the bound it would leave, is below minus this. Absolute,
/// in objective units per unit of the column. Every solve prices with it,
/// a constraint-free problem sends a column to its upper bound by it, and
/// [`crate::Solution::prices_in`] reads a column's reduced cost against it.
/// A caller that reads the solver's duals (a dual inside this of 0 is not
/// a price) uses the same value.
pub const PRICING_TOL: f64 = 1e-9;

/// [`crate::Solution::prices_in`]'s allowance for summing a reduced cost in
/// another order than the solver does: a reduced cost within this of
/// `-PRICING_TOL` answers "would enter", so the solver decides. Absolute,
/// in objective units.
pub(super) const PRICES_IN_SLACK: f64 = 1e-12;

/// Ratio test: a basic variable blocks the entering column only when its
/// entry of `w = B⁻¹ A_j` exceeds this in magnitude; a smaller entry would
/// divide a step by round-off. Absolute, on the entries of `w`.
pub(super) const PIVOT_TOL: f64 = 1e-9;

/// Ratio test: two step lengths this close tie, and the tie goes to the
/// larger `|w_i|` (under Bland's rule, to the lower column index; against
/// a bound flip, to the pivot). Absolute, in units of the entering
/// variable.
pub(super) const RATIO_TIE: f64 = 1e-10;

/// Stall detection: a pivot whose step, or a bound flip whose span, is no
/// longer than this is degenerate; more than `m + 64` of them in a row
/// switch pricing to Bland's rule. Absolute, in units of the entering
/// variable.
pub(super) const DEGENERATE_STEP: f64 = 1e-12;

/// A pivot element no larger than this in magnitude is zero: the pivot
/// asserts against it, and driving an artificial out of the basis skips a
/// column whose `w` entry in the artificial's row is this small. Absolute,
/// on the entries of `w`.
pub(super) const ZERO_PIVOT: f64 = 1e-12;

/// Dual repair: two entering candidates whose damage ratios
/// (`|reduced cost| / |row entry|`) are this close tie, and the tie goes to
/// the larger row entry. Absolute, in objective units per unit of repair.
pub(super) const DUAL_RATIO_TIE: f64 = 1e-12;

/// Gauss–Jordan refactorization: a column whose largest remaining entry
/// (the partial pivot) is below this makes the basis singular. Absolute,
/// on the entries of the partly eliminated basis matrix.
pub(super) const SINGULAR_PIVOT: f64 = 1e-12;

/// Round-off clamp: a basic value that an update (pivot, bound flip) or a
/// recomputation leaves in `(-ROUND_OFF, 0)` is set to 0 ([`snap_round_off`]);
/// anything more negative is genuine drift and stays visible, for
/// refactorization or the dual repair to act on. Absolute, in units of the
/// basic variable — whatever the scale of its row.
pub(super) const ROUND_OFF: f64 = 1e-7;

/// Dual repair (a warm restart): a basic value more than this times
/// [`rhs_scale`] outside its bounds is repaired by a dual pivot; one within
/// it is feasible, and the repair clamps it into range. Relative to
/// `1 + max|b|` over *every* row — so a row of scale 1 posed beside a row
/// of scale 10⁴ is judged at 1e-3 of its own scale.
pub(super) const REPAIR_FEAS_REL: f64 = 1e-7;

/// Dual repair: a nonbasic column may repair the chosen row only when its
/// entry in that row of `B⁻¹ N` exceeds this in magnitude, toward the
/// violated bound. Absolute, on the entries of `B⁻¹ N`.
pub(super) const REPAIR_PIVOT: f64 = 1e-7;

/// Phase-1 hand-over: the problem is infeasible when the artificials still
/// sum to more than this times [`rhs_scale`] at phase 1's optimum. Relative
/// to `1 + max|b|` over every row, as [`REPAIR_FEAS_REL`] is.
pub(super) const PHASE1_FEAS_REL: f64 = 1e-7;

/// Driving artificials out after phase 1: a column replaces a basic
/// artificial only when its entry in the artificial's row of `B⁻¹ A`
/// exceeds this in magnitude (the largest such column is taken). Absolute,
/// on the entries of `B⁻¹ A`.
pub(super) const DRIVE_OUT_PIVOT: f64 = 1e-7;

/// Audit of a carried inverse (`Engine::w_is_unit`): basis position `i`
/// holds its column when every entry of `B⁻¹ A_{basis[i]}` is within this
/// of the unit vector `e_i`. Absolute, on the entries of `w`.
pub(super) const UNIT_CHECK_TOL: f64 = 1e-6;

/// Warm restart (`Engine::bring_binv_current`): a stale basis position is
/// replaced by an eta update only when its pivot `|w_i|` exceeds this times
/// the largest `|w_k|` of the same column; otherwise the restart
/// refactorizes. Relative to that largest entry.
pub(super) const REPLACE_GUARD_REL: f64 = 1e-3;

/// `v` with round-off-sized negativity forgiven ([`ROUND_OFF`]).
#[inline]
pub(super) fn snap_round_off(v: f64) -> f64 {
    if v < 0.0 && v > -ROUND_OFF {
        0.0
    } else {
        v
    }
}

/// `1 + max|b|` over the right-hand side: the one scale the dual repair's
/// feasibility test ([`REPAIR_FEAS_REL`]) and the phase-1 hand-over
/// ([`PHASE1_FEAS_REL`]) are relative to.
pub(super) fn rhs_scale(b: &[f64]) -> f64 {
    1.0 + b.iter().map(|v| v.abs()).fold(0.0, f64::max)
}
