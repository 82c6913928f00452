//! The LP of one growth round: what it is, how it is solved, and the
//! pricing step that decides whether to solve it.
//!
//! ## The LP (Figure 12)
//!
//! Per aggregate `a` with candidate paths `P_a`, fractions `x_ap` split its
//! volume `B_a`; per link an overload variable `O_l = 1 + o_l >= 1` scales
//! the capacity, and `Omax` bounds all `O_l`. The paper's objective
//!
//! ```text
//! min Σ_a n_a Σ_p x_ap d_p (1 + M1/S_a)  +  M2·Omax  +  Σ_l O_l
//! ```
//!
//! is a big-M encoding of a lexicographic order: avoid congestion first,
//! then minimize delay (with the M1 term breaking ties toward moving the
//! aggregate whose RTT is already larger), then spread unavoidable overload.
//! We solve that order *literally* instead of numerically: one LP minimizes
//! `Omax`, a second minimizes the delay objective subject to
//! `Omax <= Omax*`. Same optimum, no big-M conditioning problems.
//!
//! **The pricing step.** Column generation prices a column before it
//! re-solves, and so does every round after a growth step
//! (`LpData::next_round`, phase 1 and the refinement rounds alike). The
//! held optimum has duals `y`; a new path `p` of aggregate `a` would enter
//! its basis only if its reduced cost
//!
//! ```text
//! d_p  =  c_p  −  Σ_{l ∈ p} y_l / C_l  −  y_a
//! ```
//!
//! is negative beyond the solver's tolerance ([`Solution::prices_in`]):
//! `c_p` is 0 in phase 1 and the Figure-12 delay weight
//! `n_a d_p (1 + M1/S_a) / (norm · B_a)` in phase 2, `y_l <= 0` the dual of
//! link `l`'s capacity row — 0 for a link that has no row yet: the two rows
//! it would bring are slack at the held vertex — and `y_a` the dual of the
//! aggregate's `Σ = B_a` row. An aggregate the LP held as a single path has
//! no such row; promoting it makes its old path's variable basic there, so
//! the row's dual is the one that leaves that variable's reduced cost zero,
//! `y_a = c_a0 − Σ_{l ∈ p_0} y_l / C_l`. Extending the basis this way leaves
//! every old dual where it was, so the old columns stay priced out. When no
//! new column prices in, the held vertex with the new paths at zero *is* an
//! optimum of the grown LP — the one a restart would be handed and return
//! without a pivot — and the round keeps it: same level, critical links,
//! overload prices and basis, fractions zero-padded to the grown sets, no LP
//! spliced, restarted or exported. The round still counts, the stopping
//! test still runs on it, and the next LP that is solved grows out of the
//! last LP *solved* (the layouts' maps span several growth steps: old sets
//! are prefixes of new ones); when phase 1 ends on a kept round, phase 2
//! first splices the kept rounds' columns into the chain, as that next LP
//! would have ([`LpData::solve_again`]). On a 10k-node
//! placement 15 of 23 rounds keep their outcome, on a GTS-like decision 10
//! of 75.
//!
//! Why `−tol` and not 0: the solver enters a column only below minus
//! [`PRICING_TOL`] (`1e-9`), and phase 1's `1e-6·Σ o_l` spread term
//! ([`SPREAD_WEIGHT`]) puts `1e-6 / C_l` — `1e-10` on a 10 Gb/s link — of
//! dual on every link whose `o_l` is positive, so a new
//! path that avoids a few of the pinned links its aggregate's held paths
//! cross reads `−1e-10 … −1.0e-9`: negative, inside the tolerance, never
//! entered. Pricing against 0 would solve exactly the LPs this step exists
//! to skip. A column that sits *on* `−1.0e-9` (ten pinned links fewer;
//! about 1.4 LPs of a 10k-node placement) is solved, not guessed: the
//! solver sums in another order and decides for itself. In unit tests every
//! kept round is audited by something that did not decide it: the skipped
//! LP is solved anyway, and a certificate checks the kept vertex on it.
//!
//! MinMax's stage 1 is left out on purpose: it breaks at the first LP that
//! does not improve `U`, so it has at most one such LP a call, and its
//! fraction-unit coefficients would be a third pricing formula for that one.
//!
//! ## What a round allocates
//!
//! A round allocates per LP, not per row, path or aggregate. Every LP is
//! written by one splice ([`LpData::splice`]) into buffers the solve and
//! the chain's live LP keep: a chain's first LP from the LP with no rows,
//! each later round only what growth added, a column at a time in one
//! reused buffer. Phase 2 re-costs the chain's last LP in place. The
//! solved LP's fractions are one flat array ([`Fractions`]); a kept round
//! pads it to the grown path sets in one rebuild.

use lowlat_linprog::{Basis, Growth, LiveLp, LpError, Solution, PRICING_TOL};
use lowlat_netgraph::{LinkId, Path};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::TrafficMatrix;

use super::bound::BoundScratch;
use super::context::{Chain, SolveContext};
use super::splice::LpLayout;
use super::{FITS, M1};

/// Internal: per-aggregate constants for the LP.
pub(super) struct AggInfo {
    pub(super) flows: f64,
    pub(super) sp_delay: f64,
}

/// Floor on the delays Figure 12's weight divides by — a shortest path's
/// delay `S_a` and the normalizer `Σ_a n_a S_a` — so a zero-delay pair
/// (co-located PoPs) weighs finitely. Absolute, in ms (flow·ms for the
/// normalizer).
const DELAY_FLOOR: f64 = 1e-9;

/// Floor on the volume `B_a` a variable in traffic units is divided by, in
/// the delay weight and in the fractions read back, so an aggregate of zero
/// demand divides by a positive number. Absolute, in Mbps.
const VOLUME_FLOOR: f64 = 1e-12;

/// Weight of each link's overload `o_l` in the overload modes' objective,
/// the spread term beside `omax` (and beside the delay in phase 2).
/// Absolute, in objective units per unit of overload.
pub(super) const SPREAD_WEIGHT: f64 = 1e-6;

/// A link is loaded to a level when its load is within this of
/// `level × C_l` (`LpData::links_loaded_to`). Relative to `level × C_l`.
const TIGHT_REL: f64 = 1e-6;

/// Debug check of a solved aggregate's fractions before they are
/// renormalized: their sum is within this of 1. Absolute.
const FRACTION_SUM_SLACK: f64 = 1e-4;

/// What the LP optimizes.
// The shared Min prefix is the point: all three are minimization modes.
#[allow(clippy::enum_variant_names)]
pub(super) enum LpMode {
    /// Minimize the maximum overload `omax` (+ tiny spread term).
    MinOverload,
    /// Minimize the maximum utilization `U` (MinMax stage 1; may be < 1).
    MinUtilization,
    /// Minimize the Figure-12 delay objective, overload capped at `omax_cap`
    /// (0 = hard capacity constraints), utilization capped at `util_cap`
    /// (MinMax stage 2 passes its `U*`; others pass infinity).
    MinLatency { omax_cap: f64, util_cap: f64 },
}

pub(super) struct LpOutcome {
    pub(super) fractions: Fractions,
    /// `omax` or `U*` depending on mode.
    pub(super) level: f64,
    pub(super) pivots: usize,
    /// Links at the critical level (overloaded), for growth targeting.
    pub(super) critical_links: Vec<LinkId>,
    /// `MinOverload` only: the links whose `o_l <= omax` row is priced at
    /// the optimum, with the price (minus the row's dual, so positive) —
    /// the link weights of the stopping test, [`LpData::proves_final`].
    pub(super) overload_prices: Vec<(LinkId, f64)>,
    /// Where the solved LP's variables and rows sit — what the next LP of
    /// the chain is spliced from.
    pub(super) layout: LpLayout,
    /// The solved LP's optimum; its duals price the columns growth adds
    /// ([`LpData::next_round`]).
    sol: Solution,
    /// Links with rows in the LP this outcome is the optimum of: the solved
    /// LP's, and those the columns of the rounds kept since would add.
    pub(super) links: usize,
    /// Whether growth rounds since the LP was solved kept this outcome: the
    /// path sets then hold columns the layout does not.
    pub(super) kept: bool,
}

/// Every aggregate's split over its path set, back to back in one array:
/// `fractions[a]` is aggregate `a`'s, one fraction per path.
pub(super) struct Fractions {
    values: Vec<f64>,
    /// Aggregate `a`'s split is `values[bounds[a]..bounds[a + 1]]`.
    bounds: Vec<usize>,
}

impl Fractions {
    fn with_capacity(aggregates: usize, values: usize) -> Self {
        let mut bounds = Vec::with_capacity(aggregates + 1);
        bounds.push(0);
        Fractions { values: Vec::with_capacity(values), bounds }
    }

    /// Ends the split of the next aggregate where the values now end.
    fn close(&mut self) {
        self.bounds.push(self.values.len());
    }

    /// The splits in aggregate order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.bounds.windows(2).map(|w| &self.values[w[0]..w[1]])
    }

    /// These splits with every set's new paths at zero.
    fn padded_to(&self, path_sets: &[Vec<Path>]) -> Fractions {
        let total = path_sets.iter().map(Vec::len).sum();
        let mut padded = Fractions::with_capacity(path_sets.len(), total);
        for (xs, paths) in self.iter().zip(path_sets) {
            padded.values.extend_from_slice(xs);
            padded.values.resize(padded.values.len() + paths.len() - xs.len(), 0.0);
            padded.close();
        }
        padded
    }
}

impl std::ops::Index<usize> for Fractions {
    type Output = [f64];

    fn index(&self, a: usize) -> &[f64] {
        &self.values[self.bounds[a]..self.bounds[a + 1]]
    }
}

impl LpMode {
    /// Context key tag: LPs of different modes never share a basis.
    pub(super) fn tag(&self) -> u8 {
        match self {
            LpMode::MinOverload => 0,
            LpMode::MinUtilization => 1,
            LpMode::MinLatency { .. } => 2,
        }
    }
}

/// What every LP of one solve shares.
pub(super) struct LpData<'a> {
    aggs: &'a [AggInfo],
    /// `volumes[a]` is the (possibly inflated — LDR) demand of aggregate `a`.
    pub(super) volumes: &'a [f64],
    /// `caps[l]` is the effective per-link capacity (masked; see the `pathgrow` module docs).
    pub(super) caps: &'a [f64],
    /// Scales every capacity (1 - headroom).
    pub(super) cap_scale: f64,
    /// `Σ n_a S_a`: normalizes the delay term, so the spread weight has a
    /// stable meaning across instances.
    delay_norm: f64,
    /// Scratch, one entry per graph link, all [`UNUSED`] between LPs: the
    /// rank of each link among an LP's used links. Owned here so an LP
    /// costs what its paths touch, not what the graph holds.
    pub(super) link_rank: Vec<u32>,
    /// Scratch of [`LpData::splice`], reused by every LP of the solve.
    pub(super) scratch: SpliceScratch,
    /// What [`LpData::splice`] adds to the live LP, reused by every round.
    pub(super) growth: Growth,
    /// Scratch of [`LpData::proves_final`], sized on its first use.
    pub(super) bound: BoundScratch,
    /// Rounds of this solve that kept their outcome ([`LpData::next_round`]).
    pub(super) lps_skipped: u64,
}

/// What [`LpData::splice`] builds an LP's rows and columns in.
#[derive(Default)]
pub(super) struct SpliceScratch {
    /// Load the single-path aggregates put on each used link whose load
    /// the splice sums.
    pub(super) fixed_load: Vec<f64>,
    /// The column being written.
    pub(super) column: Vec<(usize, f64)>,
    /// Per used link, whether the splice sums its fixed load.
    pub(super) refixed: Vec<bool>,
    /// The aggregates a splice grew: `(aggregate, its first new path, its
    /// `Σ = B_a` row among the multi-path aggregates)`.
    pub(super) grown: Vec<(usize, usize, usize)>,
    /// The links that get rows in the splice, ascending.
    pub(super) fresh: Vec<usize>,
}

/// [`LpData::link_rank`] of a link that has no row in the LP at hand.
pub(super) const UNUSED: u32 = u32::MAX;

/// [`LpData::link_rank`], while growth is priced or spliced, of a link that
/// has no row in the held LP and that a new column crosses.
pub(super) const FRESH: u32 = u32::MAX - 1;

impl<'a> LpData<'a> {
    pub(super) fn new(
        aggs: &'a [AggInfo],
        volumes: &'a [f64],
        caps: &'a [f64],
        cap_scale: f64,
    ) -> Self {
        LpData {
            aggs,
            volumes,
            caps,
            cap_scale,
            delay_norm: aggs.iter().map(|a| a.flows * a.sp_delay).sum::<f64>().max(DELAY_FLOOR),
            link_rank: vec![UNUSED; caps.len()],
            scratch: SpliceScratch::default(),
            growth: Growth::new(),
            bound: BoundScratch::default(),
            lps_skipped: 0,
        }
    }

    /// Figure 12's delay weight of one unit of aggregate `a`'s traffic on
    /// `path`, `n_a d_p (1 + M1/S_a) / (norm · B_a)`: the `MinLatency`
    /// objective coefficient of the path's variable `z_ap = B_a x_ap`.
    pub(super) fn delay_cost(&self, a: usize, path: &Path) -> f64 {
        let agg = &self.aggs[a];
        let w = agg.flows * path.delay_ms() * (1.0 + M1 / agg.sp_delay.max(DELAY_FLOOR));
        w / (self.delay_norm * self.volumes[a].max(VOLUME_FLOOR))
    }

    /// Growth targets by load: those of `links` (ascending, an LP's used
    /// links — every link a path with traffic crosses is among them)
    /// that the fractional path sets load to `level` times their effective
    /// capacity. The saturated links of a refinement round (`level` the
    /// capacity scale) and the links pinning `U` in MinMax's stage 1 (`level`
    /// that `U`). Sized by the LP, not by the graph.
    pub(super) fn links_loaded_to(
        &mut self,
        level: f64,
        links: &[usize],
        path_sets: &[Vec<Path>],
        fractions: &Fractions,
    ) -> Vec<LinkId> {
        let LpData { volumes, caps, link_rank: ref mut rank, .. } = *self;
        for (oi, &l) in links.iter().enumerate() {
            rank[l] = oi as u32;
        }
        let mut loads = vec![0.0; links.len()];
        for ((paths, xs), &volume) in path_sets.iter().zip(fractions.iter()).zip(volumes) {
            for (path, &x) in paths.iter().zip(xs) {
                let v = volume * x;
                if v > 0.0 {
                    for &l in path.links() {
                        loads[rank[l.idx()] as usize] += v;
                    }
                }
            }
        }
        for &l in links {
            rank[l] = UNUSED;
        }
        links
            .iter()
            .zip(loads)
            .filter(|&(&l, load)| caps[l] > 0.0 && load >= caps[l] * level * (1.0 - TIGHT_REL))
            .map(|(&l, _)| LinkId(l as u32))
            .collect()
    }

    /// Solves the LP of `mode` over the given path sets. With `from`, the
    /// live chain's last LP, from which a growth step grew it, the LP is
    /// spliced into the chain's standard form and restarted from the basis
    /// the chain holds, renumbered with it. Without `from`, or when the
    /// chain holds no warm basis there, the LP begins a chain of its own
    /// ([`LpData::begin_chain`]).
    pub(super) fn solve(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        from: Option<&LpLayout>,
        ctx: &mut SolveContext,
    ) -> Result<LpOutcome, LpError> {
        let grown = from.and_then(|from| self.grow_chain(path_sets, mode, from, ctx));
        let (layout, sol) = match grown {
            Some((chain, layout)) => {
                ctx.file_round(chain, &layout);
                let Some(Chain { live, basis: Some(basis), .. }) = &mut ctx.chain else {
                    unreachable!("the round was filed with its basis")
                };
                let sol = live.solve(basis)?;
                if sol.warm_started() && telemetry::enabled() {
                    telemetry::counter_add("pathgrow.spliced_warm", 1);
                }
                (layout, sol)
            }
            None => self.begin_chain(path_sets, mode, ctx)?,
        };
        #[cfg(test)]
        tests::audit_solved(self, path_sets, mode, &layout, &sol, ctx);
        Ok(self.outcome(path_sets, mode, layout, sol, ctx))
    }

    /// The LP of `mode` over the given path sets as the first LP of a new
    /// chain: spliced from the [`LpLayout::empty`] LP into a live LP that
    /// holds only the aux column, and solved from the context's slot for
    /// its mode and shape, which the solve refreshes. Returns its layout
    /// and optimum.
    fn begin_chain(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        ctx: &mut SolveContext,
    ) -> Result<(LpLayout, Solution), LpError> {
        ctx.end_chain();
        // The aux column, `omax` or `U`: MinLatency only reports and caps it.
        let (cost, upper) = match mode {
            LpMode::MinLatency { omax_cap, .. } => (0.0, *omax_cap),
            LpMode::MinOverload | LpMode::MinUtilization => (1.0, f64::INFINITY),
        };
        let mut live = LiveLp::with_columns(&[cost], &[upper]);
        let layout = self.splice(path_sets, mode, &LpLayout::empty(path_sets.len(), mode));
        // A cold basis: there is nothing to renumber.
        live.grow(&self.growth, &mut Basis::new());
        let key = (mode.tag(), layout.rows, layout.vars());
        // Phase 2 shares phase 1's rows and columns; restart it from phase
        // 1's vertex when no previous phase-2 basis fits.
        if matches!(mode, LpMode::MinLatency { .. }) {
            ctx.seed_cross_mode(LpMode::MinOverload.tag(), key.0, key.1, key.2);
        }
        let sol = live.solve(ctx.slot(key.0, key.1, key.2))?;
        ctx.chain = Some(Chain { live, key, basis: None });
        Ok((layout, sol))
    }

    /// Splices what growth added since `from`, the live chain's last LP,
    /// into the chain's standard form in `mode`, renumbering the chain's
    /// basis with it: the grown chain, holding that basis, and its layout.
    /// `None` when the chain holds no warm basis at `from`, or it could not
    /// be renumbered; the chain is then gone from `ctx` or was never taken.
    fn grow_chain(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        from: &LpLayout,
        ctx: &mut SolveContext,
    ) -> Option<(Chain, LpLayout)> {
        let _span = telemetry::span("pathgrow.splice", "pathgrow");
        let mut chain = ctx.continue_chain(from)?;
        let layout = self.splice(path_sets, mode, from);
        let basis = chain.basis.as_mut().expect("a continued chain holds its basis");
        if !chain.live.grow(&self.growth, basis) {
            return None;
        }
        if telemetry::enabled() {
            let columns = layout.vars() - from.vars();
            telemetry::counter_add("pathgrow.columns_spliced", columns as u64);
            telemetry::counter_add("pathgrow.rows_spliced", (layout.rows - from.rows) as u64);
        }
        Some((chain, layout))
    }

    /// Phase 2: the LP phase 1 ended on, in `mode` — the same rows and
    /// columns under another objective and bounds. The chain's standard
    /// form takes the new costs and bounds instead of the LP being written
    /// again, and the LP is solved from its slot as a chain's first LP is,
    /// beginning a chain of its own. When phase 1 ended on a kept round,
    /// `held` is the last LP solved, and the columns of the rounds kept
    /// since are first spliced into the chain in phase 1's mode — the splice
    /// the next round of phase 1 would have made — and the grown phase-1
    /// basis is filed at its slot, from which phase 2 may be seeded.
    pub(super) fn solve_again(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        held: &LpOutcome,
        ctx: &mut SolveContext,
    ) -> Result<LpOutcome, LpError> {
        let LpMode::MinLatency { omax_cap, util_cap } = mode else {
            unreachable!("phase 2 re-costs phase 1's LP for latency")
        };
        debug_assert!(util_cap.is_infinite(), "phase 2 has no utilization caps");
        let (mut live, from) = if held.kept {
            #[cfg(test)]
            tests::KEPT_ENDS.set(tests::KEPT_ENDS.get() + 1);
            let phase1 = &LpMode::MinOverload;
            let Some((chain, grown)) = self.grow_chain(path_sets, phase1, &held.layout, ctx) else {
                return self.solve(path_sets, mode, None, ctx);
            };
            ctx.file(&grown, chain.basis.expect("a grown chain holds its basis"));
            (chain.live, grown)
        } else {
            let chain = ctx.end_chain().expect("phase 1's last LP solved is the chain's");
            debug_assert_eq!(chain.key, (held.layout.tag, held.layout.rows, held.layout.vars()));
            (chain.live, held.layout.clone())
        };
        let (x_end, num_o) = (from.num_x(), from.used_links.len());
        let (mut costs, mut uppers) = (vec![0.0; from.vars()], vec![f64::INFINITY; from.vars()]);
        for (a, (paths, cols)) in path_sets.iter().zip(from.col_base.windows(2)).enumerate() {
            for (j, path) in (cols[0]..cols[1]).zip(paths) {
                costs[j] = self.delay_cost(a, path);
            }
        }
        costs[x_end..x_end + num_o].fill(SPREAD_WEIGHT);
        uppers[x_end..].fill(*omax_cap);
        live.set_costs(&costs, &uppers);
        let layout = LpLayout { tag: mode.tag(), ..from };
        let (rows, vars) = (layout.rows, layout.vars());
        ctx.seed_cross_mode(LpMode::MinOverload.tag(), mode.tag(), rows, vars);
        let sol = live.solve(ctx.slot(mode.tag(), rows, vars))?;
        ctx.chain = Some(Chain { live, key: (mode.tag(), rows, vars), basis: None });
        #[cfg(test)]
        tests::audit_solved(self, path_sets, mode, &layout, &sol, ctx);
        Ok(self.outcome(path_sets, mode, layout, sol, ctx))
    }

    /// The outcome of the LP laid out as `layout`, solved to `sol`.
    fn outcome(
        &self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        layout: LpLayout,
        sol: Solution,
        ctx: &mut SolveContext,
    ) -> LpOutcome {
        let volumes = self.volumes;
        let traffic_units = layout.o_rows;
        let (o_var_base, num_o) = (layout.num_x(), layout.used_links.len());
        let aux = o_var_base + num_o;
        ctx.solves += 1;
        if sol.warm_started() {
            ctx.warm_hits += 1;
        }
        // Solves, warm hits, cold solves and pivots are `lp.*`'s to report
        // (`lowlat_linprog`); only what the simplex cannot see is recorded here.
        if telemetry::enabled() {
            telemetry::observe("pathgrow.lp_rows", layout.rows as f64);
            telemetry::gauge_set("pathgrow.basis_bytes", ctx.basis_bytes() as f64);
        }

        // Extract fractions (z_ap / B_a in traffic units) and the critical
        // link set.
        let mut fractions = Fractions::with_capacity(path_sets.len(), path_sets.len() + o_var_base);
        for (a, cols) in layout.col_base.windows(2).enumerate() {
            if cols[1] == cols[0] {
                fractions.values.push(1.0);
            } else {
                let b = if traffic_units { volumes[a].max(VOLUME_FLOOR) } else { 1.0 };
                let start = fractions.values.len();
                fractions.values.extend((cols[0]..cols[1]).map(|v| sol.value(v) / b));
                normalize_fractions(&mut fractions.values[start..]);
            }
            fractions.close();
        }

        // Growth targets of the overload modes: the links pinning `omax`.
        // (MinMax stage 1 finds the links pinning `U` from the loads.)
        let level = sol.value(aux);
        let mut critical_links = Vec::new();
        if traffic_units && level > FITS {
            for (oi, &l) in layout.used_links.iter().enumerate() {
                if sol.value(o_var_base + oi) >= level - FITS {
                    critical_links.push(LinkId(l as u32));
                }
            }
        }
        // The priced `o_l <= omax` rows (they follow the capacity rows); a
        // `<=` row's dual is non-positive, and anything inside the solver's
        // pricing tolerance of 0 is not a price.
        let mut overload_prices = Vec::new();
        if matches!(mode, LpMode::MinOverload) && level > FITS {
            for (&l, &dual) in layout.used_links.iter().zip(&sol.duals()[num_o..2 * num_o]) {
                if -dual > PRICING_TOL {
                    overload_prices.push((LinkId(l as u32), -dual));
                }
            }
        }
        LpOutcome {
            fractions,
            level,
            pivots: sol.iterations(),
            critical_links,
            overload_prices,
            links: num_o,
            kept: false,
            layout,
            sol,
        }
    }

    /// The LP of the round after a growth step, priced before it is posed
    /// (module docs, "The pricing step"). `held` is the optimum of the last LP solved
    /// in `mode`, `path_sets` what [`grow_crossing`] has made of its column
    /// sets since. When no path beyond that LP's columns prices into its
    /// basis, `held` with the new paths at zero is an optimum of the grown LP
    /// — the vertex a restart would be handed and return without a pivot —
    /// and the round keeps it; otherwise the grown LP is spliced into the
    /// chain, restarting from the basis `held` left. The only place that
    /// decides not to solve an LP.
    pub(super) fn next_round(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        mut held: LpOutcome,
        ctx: &mut SolveContext,
    ) -> Result<LpOutcome, LpError> {
        let Some(links) = self.links_when_priced_out(path_sets, mode, &held) else {
            return self.solve(path_sets, mode, Some(&held.layout), ctx);
        };
        #[cfg(test)]
        tests::audit_kept_round(self, path_sets, mode, &held, links, ctx);
        self.lps_skipped += 1;
        held.pivots = 0;
        held.kept = true;
        held.links = links;
        held.fractions = held.fractions.padded_to(path_sets);
        Ok(held)
    }

    /// Prices every path `path_sets` holds beyond the columns of the LP
    /// `held` solved, against that LP's duals: `None` as soon as one would
    /// enter its basis ([`Solution::prices_in`]), else the number of links
    /// the grown LP would have rows for.
    ///
    /// A path's column has `1/C_l` in the capacity row of each of its links
    /// — a link that has no row yet would bring two that are slack at the
    /// held vertex, dual 0 — and 1 in its aggregate's `Σ = B_a` row. An
    /// aggregate the LP held as a single path has no such row; promoting it
    /// makes its old path's variable basic there, so the row's dual is the
    /// one that leaves that variable's reduced cost zero,
    /// `c_a0 − Σ_l y_l / C_l` over the old path's links.
    fn links_when_priced_out(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        held: &LpOutcome,
    ) -> Option<usize> {
        #[cfg(test)]
        if tests::PRICING_OFF.get() {
            return None;
        }
        let layout = &held.layout;
        debug_assert!(layout.o_rows, "MinUtilization's coefficients are in other units");
        let latency = matches!(mode, LpMode::MinLatency { .. });
        let mut rank = std::mem::take(&mut self.link_rank);
        for (oi, &l) in layout.used_links.iter().enumerate() {
            rank[l] = oi as u32;
        }
        // `(capacity row, 1/C_l)` of the path's links that have a row; a
        // link without one is marked and counted once.
        let mut fresh = Vec::new();
        let mut link_coeffs = |path: &Path, coeffs: &mut Vec<(usize, f64)>| {
            coeffs.clear();
            for l in path.links().iter().map(|l| l.idx()) {
                match rank[l] {
                    FRESH => {}
                    UNUSED => {
                        rank[l] = FRESH;
                        fresh.push(l);
                    }
                    oi => coeffs.push((oi as usize, 1.0 / self.caps[l])),
                }
            }
        };
        let cost = |a: usize, path: &Path| if latency { self.delay_cost(a, path) } else { 0.0 };

        let duals = held.sol.duals();
        let mut coeffs = Vec::new();
        // The `Σ = B_a` rows follow the capacity and `o_l <= omax` rows.
        let mut sum_row = 2 * layout.used_links.len();
        let mut enters = false;
        for (a, (paths, cols)) in path_sets.iter().zip(layout.col_base.windows(2)).enumerate() {
            let multi = cols[1] > cols[0];
            let first_new = (cols[1] - cols[0]).max(1);
            if paths.len() > first_new {
                // The promoted aggregate's dual is folded into the cost.
                let promoted_dual = if multi {
                    0.0
                } else {
                    link_coeffs(&paths[0], &mut coeffs);
                    let priced: f64 = coeffs.iter().map(|&(row, c)| duals[row] * c).sum();
                    cost(a, &paths[0]) - priced
                };
                enters = paths[first_new..].iter().any(|path| {
                    link_coeffs(path, &mut coeffs);
                    if multi {
                        coeffs.push((sum_row, 1.0));
                    }
                    held.sol.prices_in(cost(a, path) - promoted_dual, &coeffs)
                });
                if enters {
                    break;
                }
            }
            sum_row += usize::from(multi);
        }

        for &l in layout.used_links.iter().chain(&fresh) {
            rank[l] = UNUSED;
        }
        self.link_rank = rank;
        (!enters).then_some(layout.used_links.len() + fresh.len())
    }
}

/// LP round-off can leave fraction sums at 1 ± 1e-8; renormalize exactly.
/// An aggregate the LP gives no traffic at all — one of zero demand — is
/// placed on its first (shortest) path, as a single-path aggregate is.
fn normalize_fractions(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
    let total: f64 = xs.iter().sum();
    if total > 0.0 {
        debug_assert!((total - 1.0).abs() < FRACTION_SUM_SLACK, "fraction sum {total}");
        for x in xs.iter_mut() {
            *x /= total;
        }
    } else {
        xs[0] = 1.0;
    }
}

/// Builds per-aggregate constants from a traffic matrix and the path sets
/// the source seeded for it: a set's first path is the pair's shortest.
pub(super) fn agg_infos(tm: &TrafficMatrix, path_sets: &[Vec<Path>]) -> Vec<AggInfo> {
    tm.aggregates()
        .iter()
        .zip(path_sets)
        .map(|(a, paths)| {
            let sp = paths.first().expect("connected topology").delay_ms();
            AggInfo { flows: a.flow_count as f64, sp_delay: sp }
        })
        .collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use lowlat_linprog::{Problem, Relation};

    /// What [`LpData::pose`] builds its rows in: the capacity rows as
    /// compressed per-link lists, the fixed loads and one `Σ = B_a` row.
    #[derive(Default)]
    struct PoseScratch {
        /// Used link `oi`'s coefficients are `entries[starts[oi]..fill[oi]]`,
        /// with one slot left at `fill[oi]` for its `o_l` or `U` column.
        starts: Vec<usize>,
        fill: Vec<usize>,
        entries: Vec<(usize, f64)>,
        /// Load the single-path aggregates put on each used link.
        fixed_load: Vec<f64>,
        sum_row: Vec<(usize, f64)>,
    }

    // `pose` stays as the reference every LP the splice writes is held to
    // (`posed_as_spliced`), and as the problem `audit_kept_round` and
    // `audit_against_cold` certify and re-solve: until a certificate reads
    // the standard form that was solved, and an oracle checks a placement
    // on its own, nothing else checks the splice against the Figure-12 LP.
    impl LpData<'_> {
        /// The LP of `mode` over the given path sets, posed row by row as a
        /// [`Problem`], and where its variables and rows sit.
        pub(super) fn pose(
            &mut self,
            path_sets: &[Vec<Path>],
            mode: &LpMode,
        ) -> (Problem, LpLayout) {
            let LpData { volumes, caps, cap_scale, link_rank: ref mut rank, .. } = *self;
            // Variable block per multi-path aggregate; a link needs rows when a
            // variable path crosses it or a single-path aggregate loads it.
            let mut used_links = Vec::new();
            let mut col_base = Vec::with_capacity(path_sets.len() + 1);
            col_base.push(0usize);
            for (a, paths) in path_sets.iter().enumerate() {
                assert!(!paths.is_empty(), "aggregate {a} has no candidate path");
                let multi = paths.len() > 1;
                col_base.push(col_base[a] + if multi { paths.len() } else { 0 });
                if multi || volumes[a] > 0.0 {
                    for l in paths.iter().flat_map(|p| p.links()) {
                        if std::mem::replace(&mut rank[l.idx()], 0) == UNUSED {
                            used_links.push(l.idx());
                        }
                    }
                }
            }
            used_links.sort_unstable();
            for (oi, &l) in used_links.iter().enumerate() {
                rank[l] = oi as u32;
            }
            let num_x = col_base[path_sets.len()];
            let o_var_base = num_x;
            let num_o = used_links.len();
            // Aux variable: omax (MinOverload) or U (MinUtilization); MinLatency
            // keeps an omax variable only to report the level.
            let aux = o_var_base + num_o;

            // The deployment-cycle modes (MinOverload, MinLatency) pose their
            // split variables as *absolute traffic* `z_ap = B_a x_ap`, not
            // fractions: that keeps every constraint coefficient independent of
            // the demands, so the minute-to-minute LPs differ only in right-hand
            // sides and objective — exactly the change a warm restart absorbs
            // with a few dual pivots and a carried basis inverse (a coefficient
            // change would force an O(m³) refactorization instead).
            // MinUtilization keeps the fraction form: its `B_a/C_l` coefficients
            // are O(1)-conditioned, it is not on the per-minute hot path, and
            // the two forms never share a basis (different mode tags).
            let traffic_units = !matches!(mode, LpMode::MinUtilization);

            // The capacity rows as compressed per-link lists: one pass over every
            // path's links counts the variables crossing each used link (and sums
            // the fixed load single-path aggregates put on it), a prefix sum
            // places each row with one slot at its end for the `o_l` or `U`
            // column, and a second pass fills the rows with the 1/cap-scaled
            // coefficients, in path order.
            let mut scratch = PoseScratch::default();
            let PoseScratch { starts, fill, entries, fixed_load, sum_row, .. } = &mut scratch;
            fixed_load.clear();
            fixed_load.resize(num_o, 0.0);
            starts.clear();
            starts.resize(num_o + 1, 0);
            for (a, paths) in path_sets.iter().enumerate() {
                if paths.len() > 1 {
                    for l in paths.iter().flat_map(|p| p.links()) {
                        starts[rank[l.idx()] as usize + 1] += 1;
                    }
                } else if volumes[a] > 0.0 {
                    for &l in paths[0].links() {
                        fixed_load[rank[l.idx()] as usize] += volumes[a];
                    }
                }
            }
            for oi in 0..num_o {
                starts[oi + 1] += starts[oi] + 1;
            }
            entries.clear();
            entries.resize(starts[num_o], (0, 0.0));
            fill.clear();
            fill.extend_from_slice(&starts[..num_o]);
            for (a, paths) in path_sets.iter().enumerate() {
                if paths.len() > 1 {
                    let unit = if traffic_units { 1.0 } else { volumes[a] };
                    for (pi, path) in paths.iter().enumerate() {
                        let var = col_base[a] + pi;
                        for &l in path.links() {
                            // One coefficient per (path, link), however often
                            // the path crosses it.
                            let oi = rank[l.idx()] as usize;
                            if fill[oi] == starts[oi] || entries[fill[oi] - 1].0 != var {
                                entries[fill[oi]] = (var, unit / caps[l.idx()]);
                                fill[oi] += 1;
                            }
                        }
                    }
                }
            }
            for &l in &used_links {
                rank[l] = UNUSED;
            }

            let mut p = Problem::minimize(aux + 1);
            // Capacity rows, scaled by 1/cap for conditioning:
            //   Σ (z_ap / C_l) - o_l <= cap_scale - fixed_l / C_l      (overload modes)
            //   Σ (B_a x_ap / C_l) - U <= -fixed_l / C_l               (MinUtilization)
            for (oi, &l) in used_links.iter().enumerate() {
                let cap = caps[l];
                assert!(
                    cap > 0.0,
                    "used link {l} has zero effective capacity (path crosses a downed link)"
                );
                let (column, rhs) = if traffic_units {
                    (o_var_base + oi, cap_scale - fixed_load[oi] / cap)
                } else {
                    (aux, -fixed_load[oi] / cap)
                };
                entries[fill[oi]] = (column, -1.0);
                p.add_row(Relation::Le, rhs, &entries[starts[oi]..=fill[oi]]);
            }
            // o_l <= omax rows (overload modes only).
            if traffic_units {
                for oi in 0..num_o {
                    p.add_row(Relation::Le, 0.0, &[(o_var_base + oi, 1.0), (aux, -1.0)]);
                }
            }
            // Σ_p z_ap = B_a (traffic units) or Σ_p x_ap = 1 per multi-path
            // aggregate.
            for (a, cols) in col_base.windows(2).enumerate() {
                if cols[1] > cols[0] {
                    sum_row.clear();
                    sum_row.extend((cols[0]..cols[1]).map(|v| (v, 1.0)));
                    p.add_row(Relation::Eq, if traffic_units { volumes[a] } else { 1.0 }, sum_row);
                }
            }

            // Objective per mode.
            match mode {
                LpMode::MinOverload | LpMode::MinUtilization => {
                    p.set_objective(aux, 1.0);
                    if matches!(mode, LpMode::MinOverload) {
                        for oi in 0..num_o {
                            p.set_objective(o_var_base + oi, SPREAD_WEIGHT);
                        }
                    }
                }
                LpMode::MinLatency { omax_cap, util_cap } => {
                    for (a, paths) in path_sets.iter().enumerate() {
                        if paths.len() > 1 {
                            for (pi, path) in paths.iter().enumerate() {
                                p.set_objective(col_base[a] + pi, self.delay_cost(a, path));
                            }
                        }
                    }
                    for oi in 0..num_o {
                        p.set_objective(o_var_base + oi, SPREAD_WEIGHT);
                        p.set_upper_bound(o_var_base + oi, *omax_cap);
                    }
                    p.set_upper_bound(aux, *omax_cap);
                    if util_cap.is_finite() {
                        // Utilization cap rows: Σ z / C_l + fixed / C_l <= util_cap.
                        for (oi, &l) in used_links.iter().enumerate() {
                            let row = &entries[starts[oi]..fill[oi]];
                            p.add_row(Relation::Le, util_cap - fixed_load[oi] / caps[l], row);
                        }
                    }
                }
            }

            let layout = LpLayout {
                used_links,
                col_base,
                o_rows: traffic_units,
                rows: p.num_rows(),
                tag: mode.tag(),
            };
            (p, layout)
        }
    }

    thread_local! {
        /// `(LPs, pivots their cold solves took)` audited on this thread;
        /// `None` = audit off.
        static AUDITED: std::cell::Cell<Option<(usize, usize)>> =
            const { std::cell::Cell::new(None) };
    }

    thread_local! {
        /// Switches the pricing step off on this thread: every round poses
        /// its LP, as the loop did before it priced.
        pub(super) static PRICING_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        /// Rounds that kept their outcome on this thread.
        static KEPT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// LPs solved on this thread, each held to its posed LP.
        static SPLICED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Phase 2s on this thread after a phase 1 that ended on a kept round.
        pub(super) static KEPT_ENDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Phase 2s on this thread so far whose phase 1 ended on a kept round.
    pub(crate) fn kept_phase1_ends() -> usize {
        KEPT_ENDS.get()
    }

    /// LPs solved on this thread so far, each held to the LP posed from
    /// scratch by [`posed_as_spliced`].
    pub(crate) fn spliced_rounds() -> usize {
        SPLICED.get()
    }

    /// The variable the cold audit holds to its level: `omax` / `U` where
    /// the level is what is minimized.
    pub(super) fn level_var(mode: &LpMode, layout: &LpLayout) -> Option<usize> {
        (!matches!(mode, LpMode::MinLatency { .. }))
            .then_some(layout.num_x() + layout.used_links.len())
    }

    /// Every LP solved — a chain's first, a spliced round or a re-costed
    /// phase 2 — is held to the LP [`LpData::pose`] poses from scratch: the
    /// same layout, and, to the bit, the same standard form (columns and
    /// their coefficients, right-hand sides, costs, bounds, slack order).
    /// Returns that LP, for the audits that read a posed problem.
    pub(super) fn posed_as_spliced(
        lp: &mut LpData,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        layout: &LpLayout,
        live: &LiveLp,
    ) -> Problem {
        SPLICED.set(SPLICED.get() + 1);
        let (p, posed) = lp.pose(path_sets, mode);
        let shape =
            |l: &LpLayout| (l.used_links.clone(), l.col_base.clone(), l.o_rows, l.rows, l.tag);
        assert_eq!(shape(layout), shape(&posed), "the spliced layout is the posed one");
        if let Some(difference) = live.differs_from(&p) {
            panic!("spliced LP ({} rows) is not the posed one: {difference}", p.num_rows());
        }
        p
    }

    /// The audits of every LP solved, laid out as `layout` and solved to
    /// `sol` in the live LP the chain in `ctx` now holds:
    /// [`posed_as_spliced`], then [`audit_against_cold`] on the posed LP.
    pub(super) fn audit_solved(
        lp: &mut LpData,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        layout: &LpLayout,
        sol: &Solution,
        ctx: &SolveContext,
    ) {
        let live = &ctx.chain.as_ref().expect("the LP solved is the chain's").live;
        let p = posed_as_spliced(lp, path_sets, mode, layout, live);
        audit_against_cold(&p, sol, level_var(mode, layout));
    }

    /// Rounds that kept their outcome on this thread so far, each audited
    /// by [`audit_kept_round`].
    pub(crate) fn kept_rounds() -> usize {
        KEPT.get()
    }

    /// Runs `f` as the loop ran before it priced a column.
    pub(crate) fn without_pricing<T>(f: impl FnOnce() -> T) -> T {
        PRICING_OFF.set(true);
        let out = f();
        PRICING_OFF.set(false);
        out
    }

    /// Every kept round is checked by something that did not decide it. The
    /// LP the round skips is posed anyway and solved from a copy of the
    /// held basis carried over by linprog's own reference,
    /// [`lowlat_linprog::Basis::relabel`] and [`Problem::solve_warm`] — so
    /// the run under test goes on as if it had not been — and must restart
    /// warm, take no pivot and return the kept level and fractions. And the
    /// kept vertex with the kept duals — 0 on the rows of newly used links,
    /// the derived dual on a promoted aggregate's `Σ = B_a` row, worked out
    /// here from the grown LP's own layout — must pass
    /// [`lowlat_linprog::certify`] on the grown problem: the proof,
    /// independent of the solver, that it is optimal over the grown columns.
    pub(super) fn audit_kept_round(
        lp: &mut LpData,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        held: &LpOutcome,
        links: usize,
        ctx: &SolveContext,
    ) {
        KEPT.set(KEPT.get() + 1);
        let from = &held.layout;
        let key = (from.tag, from.rows, from.vars());
        let mut basis = match &ctx.chain {
            Some(Chain { key: k, basis: Some(basis), .. }) if *k == key => basis.clone(),
            _ => ctx.bases.get(&key).expect("the held LP left its basis").basis.clone(),
        };
        let (p, grown) = lp.pose(path_sets, mode);
        let (columns, rows, enter) = from.maps_into(&grown).expect("growth extends the held LP");
        assert!(basis.relabel(&p, &columns, &rows, &enter), "the held basis carries over");
        let sol = p.solve_warm(&mut basis).expect("the skipped LP");
        audit_against_cold(&p, &sol, level_var(mode, &grown));
        let posed = lp.outcome(path_sets, mode, grown.clone(), sol, &mut SolveContext::new());
        let m = posed.layout.rows;
        assert!(posed.sol.warm_started(), "the skipped LP ({m} rows) restarts warm");
        assert_eq!(posed.pivots, 0, "the skipped LP ({m} rows) was not a no-op");
        assert!((posed.level - held.level).abs() <= 1e-12, "{} vs {}", posed.level, held.level);
        assert_eq!(posed.links, links, "links with rows in the grown LP");
        for (a, (kept, got)) in held.fractions.iter().zip(posed.fractions.iter()).enumerate() {
            for (pi, &x) in got.iter().enumerate() {
                match kept.get(pi) {
                    Some(&k) => assert!((x - k).abs() <= 1e-12, "aggregate {a}: {x} vs {k}"),
                    None => assert_eq!(x, 0.0, "aggregate {a}, new path {pi}"),
                }
            }
        }

        let mut x = vec![0.0; p.num_vars()];
        for (old, &new) in columns.iter().enumerate() {
            x[new] = held.sol.value(old);
        }
        let mut y = vec![0.0; p.num_rows()];
        for (old, &new) in rows.iter().enumerate() {
            y[new] = held.sol.duals()[old];
        }
        let mut sum_row = 2 * grown.used_links.len();
        for (a, (old, new)) in from.col_base.windows(2).zip(grown.col_base.windows(2)).enumerate() {
            if new[1] > new[0] {
                if old[1] == old[0] {
                    // Promoted: its old path carries all of `B_a`, at reduced
                    // cost zero.
                    let path = &path_sets[a][0];
                    x[new[0]] = lp.volumes[a];
                    let cost = match mode {
                        LpMode::MinLatency { .. } => lp.delay_cost(a, path),
                        _ => 0.0,
                    };
                    let priced: f64 = path
                        .links()
                        .iter()
                        .map(|l| {
                            let oi = grown.used_links.binary_search(&l.idx()).expect("has a row");
                            y[oi] / lp.caps[l.idx()]
                        })
                        .sum();
                    y[sum_row] = cost - priced;
                }
                sum_row += 1;
            }
        }
        if let Err(violation) = lowlat_linprog::certify(&p, &x, &y) {
            panic!("kept vertex fails its certificate on the grown LP: {violation}");
        }
    }

    /// While a test has the audit on, every LP the growth loop solves —
    /// spliced, re-costed, warm from a slot or cold — is solved again from scratch and must
    /// have reached the same optimum: same objective, and the same level
    /// (`level_var`: `omax` / `U`) where the level is what is minimized. The
    /// guard against a restart that stops at a vertex it should not have
    /// (a warm phase 1 reporting `omax = 0` just past the fits boundary).
    ///
    /// Audit on or off, every LP a test of this module solves has its duals
    /// checked against the problem as posed ([`lowlat_linprog::certify`]):
    /// the stopping test reads them.
    pub(super) fn audit_against_cold(p: &Problem, sol: &Solution, level_var: Option<usize>) {
        if let Err(violation) = lowlat_linprog::certify(p, sol.values(), sol.duals()) {
            panic!(
                "LP ({} rows, warm {}) fails its certificate: {violation}",
                p.num_rows(),
                sol.warm_started()
            );
        }
        let Some((count, cold_pivots)) = AUDITED.get() else { return };
        let cold = p.solve().expect("the chained solve succeeded on this LP");
        AUDITED.set(Some((count + 1, cold_pivots + cold.iterations())));
        // The solver prices to a reduced-cost tolerance of 1e-9 per unit of
        // a variable, and the split variables are in Mbps: two optima may
        // differ by that much per unit of traffic they place differently.
        let slop = 1e-7 + 2e-9 * cold.values().iter().sum::<f64>();
        let (a, b) = (sol.objective(), cold.objective());
        assert!(
            (a - b).abs() <= slop,
            "LP {count} ({} rows, warm {}): objective {a} vs cold {b}",
            p.num_rows(),
            sol.warm_started()
        );
        if let Some(v) = level_var {
            assert!(
                (sol.value(v) - cold.value(v)).abs() <= 1e-7,
                "LP {count}: level {} vs cold {}",
                sol.value(v),
                cold.value(v)
            );
        }
    }

    /// Runs `f` with the cold audit on; returns its result, the number of
    /// LPs audited and the pivots an all-cold run of them takes.
    pub(crate) fn audited<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        AUDITED.set(Some((0, 0)));
        let out = f();
        let (lps, cold_pivots) = AUDITED.replace(None).expect("audit was on");
        (out, lps, cold_pivots)
    }
}
