//! The Figure-12 linear program and the Figure-13 iterative path-growth
//! loop — shared machinery behind the latency-optimal scheme, MinMax, and
//! LDR.
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
//! ## The loop (Figure 13) — column generation over a [`PathSource`]
//!
//! Start every aggregate with only its shortest path; solve; wherever
//! `O_l = Omax > 1`, extend the path lists of the aggregates crossing those
//! links with their next-shortest paths; repeat until nothing is
//! overloaded — or nothing more can help. A final refinement pass grows
//! path sets across *saturated* (not just overloaded) links so the delay
//! objective can rebalance them (the Figure-6 effect), which the LP can only
//! exploit if the alternative paths exist in the model.
//!
//! **The stopping rule.** "Nothing more can help" is decided, not waited
//! for. After a phase-1 LP that did not lower `omax` (once per `omax`
//! level), the duals of its `o_l <= omax` rows are taken as link weights
//! `v_l >= 0`, normalized to sum 1, and the maximum-concurrent-flow bound is
//! evaluated over *every* path of the live graph, priced or not:
//!
//! ```text
//! omax  >=  Σ_a B_a · dist_v(a)  −  cap_scale
//! ```
//!
//! with `dist_v(a)` the shortest `src → dst` distance under link lengths
//! `v_l / C_l` (effective capacities; a downed link has capacity 0 and is
//! not walked). It holds for *any* `v`, because every placement has
//! `load_l / C_l − cap_scale <= omax` on every link and the `v`-weighted sum
//! of the loads is at least `Σ_a B_a dist_v(a)` — weak duality, so a wrong
//! or degenerate dual can only fail to certify, never stop a chain that
//! could still improve. When the bound is within `1e-5` of the LP's `omax`
//! growth stops ([`GrowthEnd::ProvedFinal`]): no column that exists lowers
//! the overload by more than a thousandth of a percent of a link, and phase
//! 2 and refinement proceed as after any other exit. Why `1e-5`: phase 1
//! minimizes `omax + 1e-6·Σ o_l`, and the spread term shifts `1e-6` of dual
//! weight per pinned link off the `o_l <= omax` rows, which leaves the bound
//! 0–2.5e-6 short of `omax` when three links pin it (1e-12 with two). Why a
//! budget: the search is one label-setting pass per distinct source among
//! the aggregates whose cheapest held column has positive length, and it
//! gives up, inconclusive, after visiting more than `aggregates × LP-used
//! links` links — a budget the LP it follows sets (a visit per aggregate
//! and used link, the extent of that LP's capacity block), not the graph,
//! so a test stays in proportion to the round it ends (with a floor of
//! 1024 visits, ten microseconds, so a one-aggregate request can search a
//! small graph at all). On a backbone that covers every source's whole
//! search (26 × 86 links on GTS-like; a test costs tens of microseconds);
//! on a 10k-node graph of which the LP touches 1% of the links, and which
//! holds detours the partitioned engine never prices (so the bound cannot
//! be tight), the test gives up after a few hundred microseconds instead of
//! flooding the graph. `MAX_ROUNDS` stays as the backstop
//! for those cases. Without the rule a demand that cannot fit ran to `MAX_ROUNDS`:
//! 41 rounds over columns that never price in (zero-pivot LPs then; since
//! the pricing step below, rounds that pose no LP at all), for every
//! Figure-14 tweak iteration that inflates `B_a` past what the network
//! carries. MinMax's stage 1 needs none of this — it stops when `U` stops
//! improving.
//!
//! The growth step is classic column generation, and it keeps its basis:
//! within one solve every LP after the first restarts from the optimum of
//! the LP before it. The grown LP contains the one just solved — every path,
//! link and aggregate keeps its variable and its rows — so that optimum,
//! with the new columns at zero, is a vertex of the grown LP too: a newly
//! used link brings a capacity row and an `o_l <= omax` row that are slack
//! there, an aggregate that goes from one path to several brings its
//! `Σ = B_a` row with the old path's variable basic at `B_a`.
//! [`lowlat_linprog::Basis::relabel`] carries the basis *and its inverse*
//! across (the re-labelling maps come from the two LPs' layouts, which
//! only the LP builder decides; the inverse is held by its nonzeros — most
//! rows are slack and contribute a unit column — so renumbering it costs
//! those, not the square of the row count), the restart is primal feasible by
//! construction and pays for the columns that changed — an eta update for
//! each old path that crosses a newly used link and each promoted
//! aggregate's `z_a0`, nothing for the rest of the inverse — and a round
//! typically needs a handful of pivots to price the new columns in. Only
//! the first LP of a chain is ever solved from scratch, and not even that
//! when a previous call left its basis in the [`SolveContext`].
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
//! assembled, handed over, restarted or exported. The round still counts,
//! the stopping test still runs on it, and the next LP that is posed takes
//! its basis from the last LP *solved* (the layouts' maps span several
//! growth steps: old sets are prefixes of new ones); when phase 1 ends on a
//! kept round, phase 2 takes that basis over to the final column set
//! itself. On a 10k-node placement 15 of 23 rounds keep their outcome, on a
//! GTS-like decision 10 of 75.
//!
//! Why `−tol` and not 0: the solver enters a column only below `−1e-9`, and
//! phase 1's `1e-6·Σ o_l` spread term puts `1e-6 / C_l` — `1e-10` on a
//! 10 Gb/s link — of dual on every link whose `o_l` is positive, so a new
//! path that avoids a few of the pinned links its aggregate's held paths
//! cross reads `−1e-10 … −1.0e-9`: negative, inside the tolerance, never
//! entered. Pricing against 0 would pose exactly the LPs this step exists
//! to skip. A column that sits *on* `−1.0e-9` (ten pinned links fewer;
//! about 1.4 LPs of a 10k-node placement) is posed, not guessed: the solver
//! sums in another order and decides for itself. In unit tests every kept
//! round is audited by something that did not decide it — the skipped LP is
//! posed anyway on a copy of the basis and must take no pivot and return
//! the kept vertex, and [`lowlat_linprog::certify`] must accept the kept
//! values and duals on the grown problem.
//!
//! MinMax's stage 1 is left out on purpose: it breaks at the first LP that
//! does not improve `U`, so it has at most one such LP a call, and its
//! fraction-unit coefficients would be a third pricing formula for that one.
//!
//! The pricing oracle is abstract: every solve takes a `&dyn`
//! [`PathSource`] and asks it only for the next-cheapest columns of the
//! pairs that are actually overloaded/saturated. Pairs the source reports
//! exhausted — or whose [`PathSource::shortest_delay_bound`] is infinite,
//! meaning its best possible column cannot exist — are never priced again.
//! The same loop runs against the flat [`PathCache`] and against the
//! [`PartitionedPathEngine`](crate::hier::PartitionedPathEngine), which
//! places Internet-scale topologies without a materialized path corpus.
//! Use [`GrowRequest`] to pose a solve.
//!
//! **One ask per pair.** [`PathSource::grow`] may answer with more than it
//! was asked for, and that means one thing: this is the pair's complete
//! ranking. The engine does so for every cross-leaf pair — a stitch per
//! landmark produces the whole list (at most one candidate a landmark)
//! whether two columns are wanted or twenty. The solve keeps what it did not
//! ask for as the pair's *surplus* and, from then on, serves that pair's
//! `GROWTH_STEP` columns a round from it: no `grow`, and no delay-bound
//! query either, which a held ranking makes moot. When the surplus runs dry
//! the pair is exhausted. Seeding asks through the same door
//! (`grow(src, dst, 1)`), so a 16-pair placement at 10k nodes stitches 16
//! times where it used to stitch 70 (and asked for 16 delay bounds). The
//! columns, their order and so every LP are those of the loop that asked
//! again each round — the trait requires each answer to be a prefix of the
//! next — which the unit tests hold to the bit by running both. The surplus
//! lives exactly as long as the solve and belongs to it, not to the engine:
//! an engine-side memo of rankings would be per-pair state that grows with
//! the pairs ever queried and needs an invalidation rule at every failure
//! transition — the thing [`PathSource::cached_pairs`] exists to rule out
//! for cross-leaf traffic — while a solve's mask is fixed and its pairs are
//! its matrix. The flat cache never answers long, so nothing is held there.
//!
//! ## Effective capacities (brown-outs)
//!
//! Every capacity row, utilization cap, and tight-link filter poses the
//! *effective* capacity under the source's active
//! [`lowlat_netgraph::FailureMask`] ([`PathSource::effective_capacities`]),
//! not the raw `capacity_mbps`. A degraded-but-up link — a brown-out — thus
//! constrains the LP at `factor * capacity`, so every scheme built on this
//! module (LatOpt, LDR, MinMax) re-places against the capacity that actually
//! survives, with warm bases intact ([`lowlat_linprog::Problem::solve_warm`]
//! re-verifies the basis against the changed coefficients, so a stale basis
//! degrades to a cold solve, never to a wrong answer). Downed links never
//! appear: masked cache repair keeps them off every candidate path, and
//! degradation factors are strictly inside (0, 1), so every capacity the LP
//! divides by is positive.

use std::collections::HashMap;

use lowlat_linprog::{Basis, LpError, Problem, Relation, Solution};
use lowlat_netgraph::{Graph, LinkId, NodeId, Path};
use lowlat_telemetry as telemetry;
use lowlat_tmgen::{Aggregate, TrafficMatrix};

#[allow(unused_imports)] // doc links
use crate::pathset::PathCache;
use crate::placement::{AggregatePlacement, Placement};
use crate::source::PathSource;

/// Warm-start state carried across LP solves — one per scheme instance in a
/// long-running controller (the §5 deployment cycle re-solves nearly
/// identical LPs every minute).
///
/// Stored bases are keyed by `(objective mode, rows, vars)`, but an entry
/// does not stay where a solve left it. The growth loop poses a *chain* of
/// LPs per call, each extending the one before, and every round carries the
/// basis it just wrote to the key of the LP it grew into
/// ([`lowlat_linprog::Basis::relabel`]): the chain's first LP keeps a copy,
/// after that the basis moves. When a call returns the context therefore
/// holds, per mode, the two ends of the trajectory — not one basis per
/// shape ever seen — and the next call starts its own chain warm from the
/// first, and restarts from the last wherever one of its LPs has that shape
/// (phase 2 of a call that needed no growth, say).
/// [`lowlat_linprog::Problem::solve_warm`] degrades stale bases to cold
/// solves on its own, so a context can never change *what* is computed, only
/// how fast.
#[derive(Debug, Default)]
pub struct SolveContext {
    bases: HashMap<(u8, usize, usize), StoredBasis>,
    warm_hits: usize,
    solves: usize,
}

/// A stored basis plus the solve count at its last use, for eviction.
#[derive(Clone, Debug, Default)]
struct StoredBasis {
    basis: Basis,
    last_used: usize,
}

/// Stored bases beyond this trigger eviction of stale entries — a
/// long-lived controller whose growth trajectories drift would otherwise
/// accumulate one basis (labels plus the nonzeros of its inverse: tens to
/// hundreds of kB) per trajectory end ever reached.
const MAX_STORED_BASES: usize = 64;

/// Eviction horizon: entries not used for this many solves are dropped
/// when the context is over [`MAX_STORED_BASES`].
const STALE_AFTER_SOLVES: usize = 256;

impl SolveContext {
    /// A fresh (all-cold) context.
    pub fn new() -> Self {
        SolveContext::default()
    }

    /// The basis slot for an LP of the given mode and dimensions.
    fn slot(&mut self, tag: u8, rows: usize, vars: usize) -> &mut Basis {
        if self.bases.len() > MAX_STORED_BASES {
            let now = self.solves;
            self.bases.retain(|_, s| now - s.last_used < STALE_AFTER_SOLVES);
        }
        let entry = self.bases.entry((tag, rows, vars)).or_default();
        entry.last_used = self.solves;
        &mut entry.basis
    }

    /// Seeds `to_tag`'s slot from `from_tag`'s basis of the same problem
    /// shape when the target has nothing stored yet. Phase 2 optimizes a
    /// different objective over phase 1's feasible region, so phase 1's
    /// optimal vertex is a valid primal-feasible restart for it.
    fn seed_cross_mode(&mut self, from_tag: u8, to_tag: u8, rows: usize, vars: usize) {
        let to_key = (to_tag, rows, vars);
        if self.bases.get(&to_key).is_none_or(|s| !s.basis.is_warm()) {
            if let Some(src) = self.bases.get(&(from_tag, rows, vars)) {
                if src.basis.is_warm() {
                    let seeded = StoredBasis { basis: src.basis.clone(), last_used: self.solves };
                    self.bases.insert(to_key, seeded);
                }
            }
        }
    }

    /// Carries the basis stored for the LP laid out as `from` to the key of
    /// `grown`, the LP (laid out as `to`) that growth turned it into — in
    /// `from`'s mode, whatever `grown` optimizes: the two modes of a
    /// latency-optimal call share rows and columns — re-labelled so it
    /// describes the same vertex there. The first LP of a chain keeps a
    /// copy, so the next call's chain starts warm; from then on the basis
    /// moves. Returns whether that slot now holds that vertex.
    fn hand_over(&mut self, from: &LpLayout, to: &LpLayout, grown: &Problem) -> bool {
        let tag = from.tag;
        let key = (tag, from.rows, from.vars());
        let carried =
            if from.handed_over { self.bases.remove(&key) } else { self.bases.get(&key).cloned() };
        let (Some(mut carried), Some((columns, rows, enter))) = (carried, from.maps_into(to))
        else {
            return false;
        };
        if !carried.basis.relabel(grown, &columns, &rows, &enter) {
            return false;
        }
        carried.last_used = self.solves;
        self.bases.insert((tag, grown.num_rows(), grown.num_vars()), carried);
        true
    }

    /// LP solves that actually restarted from a stored basis.
    pub fn warm_hits(&self) -> usize {
        self.warm_hits
    }

    /// Total LP solves routed through this context.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Heap bytes of every stored basis — the `pathgrow.basis_bytes` gauge.
    fn basis_bytes(&self) -> usize {
        self.bases.values().map(|s| s.basis.heap_bytes()).sum()
    }
}

/// The one dial of the LP + growth loop; the rest are the constants below.
#[derive(Clone, Debug, Default)]
pub struct GrowthConfig {
    /// Fraction of every link's capacity reserved as headroom (§4's dial).
    pub headroom: f64,
}

/// The paper's M1: weight of the `d_p/S_a` tie-break term.
const M1: f64 = 1e-3;

/// Paths added to an overloaded aggregate per round.
const GROWTH_STEP: usize = 2;

/// Growth rounds after which phase 1 gives up on an overload it has neither
/// removed nor proven final. A backstop: demand that cannot fit normally
/// ends [`GrowthEnd::ProvedFinal`] within a round or two of reaching its
/// final overload, and only a search the bound's visit budget cuts short
/// (module docs) runs this far.
const MAX_ROUNDS: usize = 48;

/// Refinement rounds growing across saturated links for delay rebalancing.
const REFINE_ROUNDS: usize = 2;

/// Result of the grow-and-solve loop.
#[derive(Clone, Debug)]
pub struct GrowOutcome {
    /// The traffic placement (always produced; congested when `omax > 0`).
    pub placement: Placement,
    /// Final maximum overload: `max_l load_l / cap_l - 1`, clamped at 0.
    /// Zero means the traffic fits under the configured headroom.
    pub omax: f64,
    /// Total simplex pivots across all LP solves.
    pub lp_pivots: usize,
    /// Growth rounds executed.
    pub rounds: usize,
    /// Why the overload-minimizing growth stopped.
    pub ended: GrowthEnd,
}

/// Why the growth loop stopped adding columns against overload (phase 1 of
/// the latency-optimal solve; stage 1 of MinMax reports [`GrowthEnd::Fits`]
/// or [`GrowthEnd::Exhausted`] by whether utilization ended at or below 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthEnd {
    /// Nothing is overloaded.
    Fits,
    /// Overload remains and is proven final: the concurrent-flow bound read
    /// off the LP's duals (module docs, "The loop") shows no path of the
    /// live graph, priced or not, can lower it.
    ProvedFinal,
    /// Overload remains and the source has no further column for any
    /// aggregate crossing an overloaded link.
    Exhausted,
    /// Overload remains, unproven, after `MAX_ROUNDS`.
    RoundLimit,
}

/// Internal: per-aggregate constants for the LP.
struct AggInfo {
    flows: f64,
    sp_delay: f64,
}

/// What the LP optimizes.
// The shared Min prefix is the point: all three are minimization modes.
#[allow(clippy::enum_variant_names)]
enum LpMode {
    /// Minimize the maximum overload `omax` (+ tiny spread term).
    MinOverload,
    /// Minimize the maximum utilization `U` (MinMax stage 1; may be < 1).
    MinUtilization,
    /// Minimize the Figure-12 delay objective, overload capped at `omax_cap`
    /// (0 = hard capacity constraints), utilization capped at `util_cap`
    /// (MinMax stage 2 passes its `U*`; others pass infinity).
    MinLatency { omax_cap: f64, util_cap: f64 },
}

struct LpOutcome {
    fractions: Vec<Vec<f64>>,
    /// `omax` or `U*` depending on mode.
    level: f64,
    pivots: usize,
    /// Links at the critical level (overloaded), for growth targeting.
    critical_links: Vec<LinkId>,
    /// `MinOverload` only: the links whose `o_l <= omax` row is priced at
    /// the optimum, with the price (minus the row's dual, so positive) —
    /// the link weights of the stopping test, [`LpData::proves_final`].
    overload_prices: Vec<(LinkId, f64)>,
    /// Where the solved LP's variables and rows sit — what the next LP of
    /// the chain needs to take this one's basis over.
    layout: LpLayout,
    /// The solved LP's optimum; its duals price the columns growth adds
    /// ([`LpData::next_round`]).
    sol: Solution,
    /// Links with rows in the LP this outcome is the optimum of: the solved
    /// LP's, and those the columns of the rounds kept since would add.
    links: usize,
    /// Whether growth rounds since the LP was solved kept this outcome: the
    /// path sets then hold columns the layout does not.
    kept: bool,
}

impl LpMode {
    /// Context key tag: LPs of different modes never share a basis.
    fn tag(&self) -> u8 {
        match self {
            LpMode::MinOverload => 0,
            LpMode::MinUtilization => 1,
            LpMode::MinLatency { .. } => 2,
        }
    }
}

/// Where the variables and rows of one posed LP sit. [`LpData::solve`] is
/// the only place that decides it; the basis hand-over between two LPs of a
/// chain derives its column and row maps from their two layouts.
///
/// Columns: a block of split variables per aggregate with more than one
/// path (aggregate order), one `o_l` per used link (link-index order), the
/// aux variable. Rows: a capacity row per used link, (overload modes) an
/// `o_l <= omax` row per used link, a `Σ = B_a` row per multi-path
/// aggregate; MinMax stage 2 appends its utilization caps.
struct LpLayout {
    /// Links that have a capacity row, ascending.
    used_links: Vec<usize>,
    /// Aggregate `a`'s split variables are `col_base[a]..col_base[a + 1]`
    /// (none for a single-path aggregate).
    col_base: Vec<usize>,
    /// Whether the `o_l <= omax` rows exist.
    o_rows: bool,
    /// Constraint rows of the posed LP.
    rows: usize,
    /// [`LpMode::tag`] of the posed LP: the context key its basis is under.
    tag: u8,
    /// Whether this LP's basis arrived from the LP before it in its mode's
    /// chain.
    handed_over: bool,
}

/// `(columns, rows, enter)` as [`Basis::relabel`] takes them.
type BasisMaps = (Vec<usize>, Vec<usize>, Vec<Option<usize>>);

impl LpLayout {
    fn num_x(&self) -> usize {
        self.col_base[self.col_base.len() - 1]
    }

    fn vars(&self) -> usize {
        self.num_x() + self.used_links.len() + 1
    }

    /// The maps that carry a basis of this LP to `grown`, the LP one growth
    /// step later: surviving paths, links and aggregates keep their
    /// variables and rows under new numbers; a newly used link adds a
    /// capacity row and an `o_l <= omax` row whose slacks enter the basis
    /// (no old path crosses it, so both are slack at the old vertex); an
    /// aggregate that went single→multi adds its `Σ = B_a` row, in which
    /// its old path's variable enters — basic at `B_a`, exactly the load it
    /// contributed as a fixed term before. `None` when `grown` does not
    /// extend this layout.
    fn maps_into(&self, grown: &LpLayout) -> Option<BasisMaps> {
        if self.o_rows != grown.o_rows || self.col_base.len() != grown.col_base.len() {
            return None;
        }
        let rank: Vec<usize> = self
            .used_links
            .iter()
            .map(|l| grown.used_links.binary_search(l).ok())
            .collect::<Option<_>>()?;
        let (num_x, num_o) = (grown.num_x(), grown.used_links.len());
        // Rows per used link (capacity, and `o_l <= omax` in overload modes);
        // the `Σ = B_a` rows follow them.
        let link_rows = if grown.o_rows { 2 } else { 1 };
        let sum_base = link_rows * num_o;

        let mut columns = Vec::with_capacity(self.vars());
        let mut sum_rows = Vec::new();
        let mut enter_sums = Vec::new();
        let mut multi = 0;
        for (old, new) in self.col_base.windows(2).zip(grown.col_base.windows(2)) {
            let (old_len, new_len) = (old[1] - old[0], new[1] - new[0]);
            if old_len > new_len {
                return None;
            }
            columns.extend(new[0]..new[0] + old_len);
            if new_len > 0 {
                if old_len > 0 {
                    sum_rows.push(sum_base + multi);
                } else {
                    enter_sums.push(Some(new[0]));
                }
                multi += 1;
            }
        }
        columns.extend(rank.iter().map(|r| num_x + r));
        columns.push(num_x + num_o);

        let mut rows = rank.clone();
        if grown.o_rows {
            rows.extend(rank.iter().map(|r| num_o + r));
        }
        rows.extend(sum_rows);
        let mut enter = vec![None; link_rows * (num_o - rank.len())];
        enter.extend(enter_sums);
        Some((columns, rows, enter))
    }
}

/// What every LP of one solve shares.
struct LpData<'a> {
    aggs: &'a [AggInfo],
    /// `volumes[a]` is the (possibly inflated — LDR) demand of aggregate `a`.
    volumes: &'a [f64],
    /// `caps[l]` is the effective per-link capacity (masked; see module docs).
    caps: &'a [f64],
    /// Scales every capacity (1 - headroom).
    cap_scale: f64,
    /// `Σ n_a S_a`: normalizes the delay term, so the spread weight has a
    /// stable meaning across instances.
    delay_norm: f64,
    /// Scratch, one entry per graph link, all [`UNUSED`] between LPs: the
    /// rank of each link among the posed LP's used links. Owned here so an
    /// LP costs what its paths touch, not what the graph holds.
    link_rank: Vec<u32>,
    /// Scratch of [`LpData::proves_final`], sized on its first use.
    bound: BoundScratch,
    /// Rounds of this solve that kept their outcome ([`LpData::next_round`]).
    lps_skipped: u64,
}

/// [`LpData::link_rank`] of a link no posed path crosses.
const UNUSED: u32 = u32::MAX;

/// [`LpData::link_rank`], while growth is priced, of a link that has no row
/// in the held LP and that a new column crosses.
const FRESH: u32 = u32::MAX - 1;

/// How close the concurrent-flow bound must come to the LP's `omax` to end
/// phase 1 (module docs, "The loop"): phase 1 minimizes
/// `omax + 1e-6·Σ o_l`, and the spread term leaves the bound up to 2.5e-6
/// short of `omax` when three links pin it.
const BOUND_TOL: f64 = 1e-5;

/// Links one evaluation of the stopping test may visit whatever the LP's
/// size: a complete search of a few hundred links, ten microseconds, so that
/// a one-aggregate request is not cut short by the product below.
const BOUND_MIN_VISITS: usize = 1024;

/// What one evaluation of the stopping test found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BoundVerdict {
    /// No path of the live graph lowers `omax` by more than [`BOUND_TOL`].
    Final,
    /// Some path is shorter under the link prices than the columns the LP
    /// holds: growth may still pay.
    Open,
    /// The search outran its visit budget (or the LP priced no link).
    GaveUp,
}

/// Per-call scratch of the stopping test; everything is back at its resting
/// value between evaluations, so an evaluation costs what it visits.
#[derive(Default)]
struct BoundScratch {
    /// `v_l / C_l` per graph link; 0 everywhere at rest.
    link_price: Vec<f64>,
    /// Label per graph node; infinite everywhere at rest.
    dist: Vec<f64>,
    /// Nodes labelled by the current search.
    labelled: Vec<NodeId>,
    /// Labelled nodes of the current distance level not yet expanded.
    level: Vec<NodeId>,
    /// `(label, node)` reached over a priced link, not yet labelled.
    beyond: Vec<(f64, NodeId)>,
    /// `(src, dst, volume, price-length of the cheapest held column)` of the
    /// aggregates that pay anything under the link prices.
    paying: Vec<(NodeId, NodeId, f64, f64)>,
}

impl<'a> LpData<'a> {
    fn new(aggs: &'a [AggInfo], volumes: &'a [f64], caps: &'a [f64], cap_scale: f64) -> Self {
        LpData {
            aggs,
            volumes,
            caps,
            cap_scale,
            delay_norm: aggs.iter().map(|a| a.flows * a.sp_delay).sum::<f64>().max(1e-9),
            link_rank: vec![UNUSED; caps.len()],
            bound: BoundScratch::default(),
            lps_skipped: 0,
        }
    }

    /// Figure 12's delay weight of one unit of aggregate `a`'s traffic on
    /// `path`, `n_a d_p (1 + M1/S_a) / (norm · B_a)`: the `MinLatency`
    /// objective coefficient of the path's variable `z_ap = B_a x_ap`.
    fn delay_cost(&self, a: usize, path: &Path) -> f64 {
        let agg = &self.aggs[a];
        let w = agg.flows * path.delay_ms() * (1.0 + M1 / agg.sp_delay.max(1e-9));
        w / (self.delay_norm * self.volumes[a].max(1e-12))
    }

    /// The column-generation stopping test of phase 1 (module docs, "The
    /// stopping rule"): does the LP just solved (`out`, over `path_sets`)
    /// already hold the least overload the *graph* allows, whatever columns
    /// are still unpriced? It does when [`LpData::flow_bound`], under that
    /// LP's link prices, comes within [`BOUND_TOL`] of its `omax`; the search
    /// may visit `aggregates × LP-used links` links, at least
    /// [`BOUND_MIN_VISITS`].
    fn proves_final(
        &mut self,
        graph: &Graph,
        tm: &TrafficMatrix,
        path_sets: &[Vec<Path>],
        out: &LpOutcome,
    ) -> BoundVerdict {
        let target = out.level - BOUND_TOL;
        let budget = (path_sets.len() * out.links).max(BOUND_MIN_VISITS);
        match self.flow_bound(graph, tm, path_sets, &out.overload_prices, target, budget) {
            Ok(bound) if bound >= target => BoundVerdict::Final,
            Ok(_) => BoundVerdict::Open,
            Err(verdict) => verdict,
        }
    }

    /// The concurrent-flow bound `Σ_a B_a dist_v(a) - cap_scale` of the
    /// module docs ("The stopping rule"): a lower bound on the `omax` of
    /// *any* placement of the demands over *any* paths of the live graph,
    /// for link weights `prices` (positive, any scale; normalized here to
    /// `v_l` summing to 1) — whatever they are, so wrong ones only make it
    /// smaller.
    ///
    /// Only the aggregates whose cheapest held column has positive length
    /// need a distance, and all but a handful of links have length 0: one
    /// label-setting search per distinct source labels nodes level by level,
    /// crossing free links from a stack and keeping the few priced crossings
    /// aside until the level is done. `Err(Open)` as soon as the running
    /// value — the bound over the held columns, lowered source by source —
    /// falls below `abandon_below`; `Err(GaveUp)` after visiting more than
    /// `budget` links, or when nothing is priced.
    fn flow_bound(
        &mut self,
        graph: &Graph,
        tm: &TrafficMatrix,
        path_sets: &[Vec<Path>],
        prices: &[(LinkId, f64)],
        abandon_below: f64,
        budget: usize,
    ) -> Result<f64, BoundVerdict> {
        let total: f64 = prices.iter().map(|&(_, v)| v).sum();
        if total <= 0.0 {
            return Err(BoundVerdict::GaveUp);
        }
        let LpData { volumes, caps, cap_scale, bound: ref mut scratch, .. } = *self;
        let BoundScratch { link_price, dist, labelled, level, beyond, paying } = scratch;
        if link_price.is_empty() {
            link_price.resize(graph.link_count(), 0.0);
            dist.resize(graph.node_count(), f64::INFINITY);
        }
        for &(l, v) in prices {
            link_price[l.idx()] = v / total / caps[l.idx()];
        }

        let mut lower = -cap_scale;
        paying.clear();
        for ((agg, paths), &volume) in tm.aggregates().iter().zip(path_sets).zip(volumes) {
            let held = paths
                .iter()
                .map(|p| p.links().iter().map(|l| link_price[l.idx()]).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            if volume > 0.0 && held > 0.0 {
                lower += volume * held;
                paying.push((agg.src, agg.dst, volume, held));
            }
        }
        paying.sort_by_key(|&(src, dst, ..)| (src, dst));

        let mut visited = 0usize;
        let mut stopped = None;
        for group in paying.chunk_by(|a, b| a.0 == b.0) {
            if lower < abandon_below {
                stopped = Some(BoundVerdict::Open);
                break;
            }
            // `level` holds the labelled nodes at the current distance still
            // to expand, `beyond` what their priced links reach.
            let src = group[0].0;
            dist[src.idx()] = 0.0;
            labelled.push(src);
            level.push(src);
            'search: loop {
                while let Some(node) = level.pop() {
                    let here = dist[node.idx()];
                    for &l in graph.out_links(node) {
                        let to = graph.link(l).dst;
                        if caps[l.idx()] <= 0.0 || dist[to.idx()].is_finite() {
                            continue;
                        }
                        if link_price[l.idx()] > 0.0 {
                            beyond.push((here + link_price[l.idx()], to));
                        } else {
                            dist[to.idx()] = here;
                            labelled.push(to);
                            level.push(to);
                        }
                    }
                    visited += graph.out_links(node).len();
                    if visited > budget {
                        stopped = Some(BoundVerdict::GaveUp);
                        break 'search;
                    }
                }
                if group.iter().all(|&(_, dst, ..)| dist[dst.idx()].is_finite()) {
                    break;
                }
                // The nearest node beyond a priced link opens the next level.
                beyond.retain(|&(_, to)| dist[to.idx()].is_infinite());
                let Some(&(next, to)) = beyond.iter().min_by(|a, b| a.0.total_cmp(&b.0)) else {
                    break;
                };
                dist[to.idx()] = next;
                labelled.push(to);
                level.push(to);
            }
            if stopped.is_none() {
                for &(_, dst, volume, held) in group {
                    // A held column is a live path, so its length bounds the
                    // label (`min`: the two are summed in different orders).
                    lower -= volume * (held - dist[dst.idx()].min(held));
                }
            }
            for node in labelled.drain(..) {
                dist[node.idx()] = f64::INFINITY;
            }
            level.clear();
            beyond.clear();
            if stopped.is_some() {
                break;
            }
        }
        for &(l, _) in prices {
            link_price[l.idx()] = 0.0;
        }
        match stopped {
            Some(verdict) => Err(verdict),
            None => Ok(lower),
        }
    }

    /// Growth targets by load: those of `links` (ascending, a posed LP's
    /// used links — every link a path with traffic crosses is among them)
    /// that the fractional path sets load to `level` times their effective
    /// capacity. The saturated links of a refinement round (`level` the
    /// capacity scale) and the links pinning `U` in MinMax's stage 1 (`level`
    /// that `U`). Sized by the LP, not by the graph.
    fn links_loaded_to(
        &mut self,
        level: f64,
        links: &[usize],
        path_sets: &[Vec<Path>],
        fractions: &[Vec<f64>],
    ) -> Vec<LinkId> {
        let LpData { volumes, caps, link_rank: ref mut rank, .. } = *self;
        for (oi, &l) in links.iter().enumerate() {
            rank[l] = oi as u32;
        }
        let mut loads = vec![0.0; links.len()];
        for ((paths, xs), &volume) in path_sets.iter().zip(fractions).zip(volumes) {
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
            .filter(|&(&l, load)| caps[l] > 0.0 && load >= caps[l] * level * (1.0 - 1e-6))
            .map(|(&l, _)| LinkId(l as u32))
            .collect()
    }

    /// The LP of `mode` over the given path sets, and where its variables
    /// and rows sit.
    fn pose(&mut self, path_sets: &[Vec<Path>], mode: &LpMode) -> (Problem, LpLayout) {
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

        // One pass over every path's links: the fixed load single-path
        // aggregates put on each used link, and the variables crossing it
        // with their 1/cap-scaled coefficients.
        let mut fixed_load = vec![0.0; num_o];
        let mut crossing: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_o];
        for (a, paths) in path_sets.iter().enumerate() {
            if paths.len() > 1 {
                let unit = if traffic_units { 1.0 } else { volumes[a] };
                for (pi, path) in paths.iter().enumerate() {
                    let var = col_base[a] + pi;
                    for &l in path.links() {
                        // One coefficient per (path, link), however often
                        // the path crosses it.
                        let coeffs = &mut crossing[rank[l.idx()] as usize];
                        if coeffs.last().is_none_or(|&(v, _)| v != var) {
                            coeffs.push((var, unit / caps[l.idx()]));
                        }
                    }
                }
            } else if volumes[a] > 0.0 {
                for &l in paths[0].links() {
                    fixed_load[rank[l.idx()] as usize] += volumes[a];
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
            let coeffs = &mut crossing[oi];
            if traffic_units {
                coeffs.push((o_var_base + oi, -1.0));
                p.add_row(Relation::Le, cap_scale - fixed_load[oi] / cap, coeffs);
            } else {
                coeffs.push((aux, -1.0));
                p.add_row(Relation::Le, -fixed_load[oi] / cap, coeffs);
            }
            coeffs.pop();
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
                let coeffs: Vec<(usize, f64)> = (cols[0]..cols[1]).map(|v| (v, 1.0)).collect();
                p.add_row(Relation::Eq, if traffic_units { volumes[a] } else { 1.0 }, &coeffs);
            }
        }

        // Objective per mode.
        match mode {
            LpMode::MinOverload | LpMode::MinUtilization => {
                p.set_objective(aux, 1.0);
                if matches!(mode, LpMode::MinOverload) {
                    for oi in 0..num_o {
                        p.set_objective(o_var_base + oi, 1e-6);
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
                    p.set_objective(o_var_base + oi, 1e-6);
                    p.set_upper_bound(o_var_base + oi, *omax_cap);
                }
                p.set_upper_bound(aux, *omax_cap);
                if util_cap.is_finite() {
                    // Utilization cap rows: Σ z / C_l + fixed / C_l <= util_cap.
                    for (oi, &l) in used_links.iter().enumerate() {
                        p.add_row(Relation::Le, util_cap - fixed_load[oi] / caps[l], &crossing[oi]);
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
            handed_over: false,
        };
        (p, layout)
    }

    /// Builds and solves one LP over the given path sets, warm-starting
    /// from (and refreshing) the context's basis for this mode and problem
    /// size. `grown_from` is the layout of the LP this one grew out of, when
    /// the caller holds that one's optimum: its basis is handed over first,
    /// so this LP restarts from there.
    fn solve(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        grown_from: Option<&LpLayout>,
        ctx: &mut SolveContext,
    ) -> Result<LpOutcome, LpError> {
        let (p, mut layout) = self.pose(path_sets, mode);
        let volumes = self.volumes;
        let traffic_units = layout.o_rows;
        let (o_var_base, num_o) = (layout.num_x(), layout.used_links.len());
        let aux = o_var_base + num_o;
        // The basis travels under the mode of the LP it came from: phase 2
        // takes over the vertex of a phase 1 that ended on a kept round
        // (`next_round`) this way, and starts its own chain with it.
        if let Some(from) = grown_from {
            layout.handed_over = ctx.hand_over(from, &layout, &p) && from.tag == layout.tag;
        }
        // Phase 2 shares phase 1's rows and columns; restart it from phase
        // 1's vertex when no previous phase-2 basis fits.
        if matches!(mode, LpMode::MinLatency { .. }) {
            ctx.seed_cross_mode(LpMode::MinOverload.tag(), mode.tag(), p.num_rows(), p.num_vars());
        }
        let basis = ctx.slot(mode.tag(), p.num_rows(), p.num_vars());
        let sol = p.solve_warm(basis)?;
        ctx.solves += 1;
        if sol.warm_started() {
            ctx.warm_hits += 1;
        }
        // Solves, warm hits, cold solves and pivots are `lp.*`'s to report
        // (`simplex.rs`); only what the simplex cannot see is recorded here.
        if telemetry::enabled() {
            if layout.handed_over && sol.warm_started() {
                telemetry::counter_add("pathgrow.lp_handed_over", 1);
            }
            telemetry::observe("pathgrow.lp_rows", p.num_rows() as f64);
            telemetry::gauge_set("pathgrow.basis_bytes", ctx.basis_bytes() as f64);
        }
        #[cfg(test)]
        tests::audit_against_cold(
            &p,
            &sol,
            (!matches!(mode, LpMode::MinLatency { .. })).then_some(aux),
        );

        // Extract fractions (z_ap / B_a in traffic units) and the critical
        // link set.
        let fractions: Vec<Vec<f64>> = layout
            .col_base
            .windows(2)
            .enumerate()
            .map(|(a, cols)| {
                if cols[1] == cols[0] {
                    vec![1.0]
                } else {
                    let b = if traffic_units { volumes[a].max(1e-12) } else { 1.0 };
                    normalize_fractions((cols[0]..cols[1]).map(|v| sol.value(v) / b).collect())
                }
            })
            .collect();

        // Growth targets of the overload modes: the links pinning `omax`.
        // (MinMax stage 1 finds the links pinning `U` from the loads.)
        let level = sol.value(aux);
        let mut critical_links = Vec::new();
        if traffic_units && level > 1e-7 {
            for (oi, &l) in layout.used_links.iter().enumerate() {
                if sol.value(o_var_base + oi) >= level - 1e-7 {
                    critical_links.push(LinkId(l as u32));
                }
            }
        }
        // The priced `o_l <= omax` rows (they follow the capacity rows); a
        // `<=` row's dual is non-positive, and anything inside the solver's
        // pricing tolerance of 0 is not a price.
        let mut overload_prices = Vec::new();
        if matches!(mode, LpMode::MinOverload) && level > 1e-7 {
            for (&l, &dual) in layout.used_links.iter().zip(&sol.duals()[num_o..2 * num_o]) {
                if -dual > 1e-9 {
                    overload_prices.push((LinkId(l as u32), -dual));
                }
            }
        }
        Ok(LpOutcome {
            fractions,
            level,
            pivots: sol.iterations(),
            critical_links,
            overload_prices,
            links: num_o,
            kept: false,
            layout,
            sol,
        })
    }

    /// The LP of the round after a growth step, priced before it is posed
    /// (module docs, "The pricing step"). `held` is the optimum of the last LP solved
    /// in `mode`, `path_sets` what [`grow_crossing`] has made of its column
    /// sets since. When no path beyond that LP's columns prices into its
    /// basis, `held` with the new paths at zero is an optimum of the grown LP
    /// — the vertex a restart would be handed and return without a pivot —
    /// and the round keeps it; otherwise the grown LP is posed, restarting
    /// from the basis `held` left. The only place that decides not to pose
    /// an LP.
    fn next_round(
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
        for (xs, paths) in held.fractions.iter_mut().zip(path_sets) {
            xs.resize(paths.len(), 0.0);
        }
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
fn normalize_fractions(mut xs: Vec<f64>) -> Vec<f64> {
    for x in xs.iter_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
    let total: f64 = xs.iter().sum();
    debug_assert!((total - 1.0).abs() < 1e-4, "fraction sum {total}");
    if total > 0.0 {
        for x in xs.iter_mut() {
            *x /= total;
        }
    }
    xs
}

/// Builds per-aggregate constants from a traffic matrix and the path sets
/// the source seeded for it: a set's first path is the pair's shortest.
fn agg_infos(tm: &TrafficMatrix, path_sets: &[Vec<Path>]) -> Vec<AggInfo> {
    tm.aggregates()
        .iter()
        .zip(path_sets)
        .map(|(a, paths)| {
            let sp = paths.first().expect("connected topology").delay_ms();
            AggInfo { flows: a.flow_count as f64, sp_delay: sp }
        })
        .collect()
}

fn to_placement(path_sets: &[Vec<Path>], fractions: &[Vec<f64>]) -> Placement {
    Placement::new(
        path_sets
            .iter()
            .zip(fractions)
            .map(|(paths, xs)| AggregatePlacement {
                splits: paths.iter().cloned().zip(xs.iter().cloned()).collect(),
            })
            .collect(),
    )
}

/// Per-pair pricing state of one solve: made when the solve seeds its path
/// sets, read and written only by [`grow_crossing`], dropped with the solve.
struct PricingState {
    /// Once the source returns fewer columns than asked, its
    /// [`PathSource::shortest_delay_bound`] is infinite — no further column
    /// can exist at all — or the pair's surplus has run dry, the pair is
    /// never priced again this solve.
    exhausted: Vec<bool>,
    /// The pair's delay bound (NaN = not yet asked): the failure mask is
    /// fixed for the duration of a solve, so the bound is solve-constant and
    /// each pair pays the source query at most once instead of once per
    /// round — and not at all while it holds a surplus.
    bounds: Vec<f64>,
    /// What [`PathSource::grow`] answered beyond what it was asked for,
    /// best-first: the rest of the pair's *complete* ranking (module docs,
    /// "The pricing oracle is abstract"). Non-empty means every column the
    /// source will ever price for the pair is either in its path set or
    /// here, and growth takes from here instead of asking.
    surplus: Vec<Vec<Path>>,
    /// Link-indexed scratch of [`grow_crossing`], all false between calls.
    target_mask: Vec<bool>,
    /// `grow` calls made (`pathgrow.source_asks`), seeding included.
    asks: u64,
    /// Columns served from a surplus (`pathgrow.columns_from_surplus`).
    from_surplus: u64,
}

impl PricingState {
    /// Seeds every aggregate's path set with its `k` best columns — through
    /// [`PathSource::grow`], so a source that answers with a complete
    /// ranking is never asked about that pair again.
    fn seed(source: &dyn PathSource, tm: &TrafficMatrix, k: usize) -> (Vec<Vec<Path>>, Self) {
        let pairs = tm.aggregates().len();
        let mut state = PricingState {
            exhausted: vec![false; pairs],
            bounds: vec![f64::NAN; pairs],
            surplus: vec![Vec::new(); pairs],
            target_mask: vec![false; source.graph().link_count()],
            asks: 0,
            from_surplus: 0,
        };
        let path_sets = tm
            .aggregates()
            .iter()
            .enumerate()
            .map(|(a, agg)| state.ask(source, a, agg, k))
            .collect();
        (path_sets, state)
    }

    /// The one call of [`PathSource::grow`]: the pair's `want` best columns,
    /// whatever the source answered beyond them kept as the pair's surplus.
    fn ask(
        &mut self,
        source: &dyn PathSource,
        a: usize,
        agg: &Aggregate,
        want: usize,
    ) -> Vec<Path> {
        self.asks += 1;
        let mut got = source.grow(agg.src, agg.dst, want);
        if got.len() > want {
            let rest = got.split_off(want);
            if surplus_kept() {
                self.surplus[a] = rest;
            }
        }
        got
    }

    /// Writes the solve's pricing counters — both in every traced growth
    /// call, so a reader can tell 0 from absent.
    fn report(&self) {
        telemetry::counter_add("pathgrow.source_asks", self.asks);
        telemetry::counter_add("pathgrow.columns_from_surplus", self.from_surplus);
    }
}

/// The column-generation pricing step: grows the path sets of every
/// aggregate whose current placement crosses one of `targets` by its `step`
/// next-cheapest columns — from the surplus the pair holds, else by asking
/// the source. Returns true if any set actually grew. The only caller of
/// [`PathSource::grow`] after seeding, and the only reader of a surplus.
fn grow_crossing(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    path_sets: &mut [Vec<Path>],
    fractions: &[Vec<f64>],
    targets: &[LinkId],
    step: usize,
    state: &mut PricingState,
) -> bool {
    for &l in targets {
        state.target_mask[l.idx()] = true;
    }
    let mut grew = false;
    let mut columns_grown = 0usize;
    let mut pricing_skips = 0usize;
    for (a, agg) in tm.aggregates().iter().enumerate() {
        if state.exhausted[a] {
            continue;
        }
        let crosses = path_sets[a].iter().enumerate().any(|(pi, p)| {
            fractions[a].get(pi).copied().unwrap_or(0.0) > 1e-9
                && p.links().iter().any(|&l| state.target_mask[l.idx()])
        });
        if !crosses {
            continue;
        }
        let held = &mut state.surplus[a];
        if !held.is_empty() {
            // A complete ranking: the next columns are here, and so is the
            // proof that the source can price the pair (its delay bound).
            let take = step.min(held.len());
            path_sets[a].extend(held.drain(..take));
            state.exhausted[a] = held.is_empty();
            state.from_surplus += take as u64;
            columns_grown += take;
            grew = true;
            continue;
        }
        if state.bounds[a].is_nan() {
            state.bounds[a] = source.shortest_delay_bound(agg.src, agg.dst);
        }
        if state.bounds[a].is_infinite() {
            // The source cannot price any column for this pair (for the
            // partitioned engine: no landmark connects it) — whatever the
            // initial query produced is all there will ever be.
            state.exhausted[a] = true;
            pricing_skips += 1;
            continue;
        }
        let want = path_sets[a].len() + step;
        let got = state.ask(source, a, agg, want);
        if got.len() < want {
            state.exhausted[a] = true;
        }
        if got.len() > path_sets[a].len() {
            columns_grown += got.len() - path_sets[a].len();
            path_sets[a] = got;
            grew = true;
        }
    }
    for &l in targets {
        state.target_mask[l.idx()] = false;
    }
    if columns_grown > 0 {
        telemetry::counter_add("pathgrow.columns_grown", columns_grown as u64);
    }
    if pricing_skips > 0 {
        telemetry::counter_add("pathgrow.pricing_skips", pricing_skips as u64);
    }
    grew
}

/// What a [`GrowRequest`] optimizes.
#[derive(Clone, Copy, Debug)]
enum GrowObjective {
    /// Figure 13's latency-optimal loop: phase 1 drives overload to zero,
    /// phase 2 minimizes delay at that overload level, refinement rounds
    /// rebalance across saturated links.
    LatencyOptimal,
    /// MinMax: minimize the maximum utilization, tie-broken by delay.
    /// `k_limit` caps every aggregate's path set (TeXCP's k = 10); `None`
    /// grows path sets until `U*` stops improving.
    MinMax { k_limit: Option<usize> },
}

/// Builder for one grow-and-solve run — the module's single entry point.
///
/// ```ignore
/// let out = GrowRequest::new(&cache, &tm)     // any &dyn PathSource
///     .volumes(&inflated)                      // optional (LDR headroom)
///     .config(&growth_config)                  // optional
///     .solve_with(&mut ctx)?;                  // or .solve() for cold
/// ```
///
/// Defaults: latency-optimal objective, volumes from the traffic matrix,
/// [`GrowthConfig::default`] (no headroom), a fresh (cold)
/// [`SolveContext`]. `.minmax(k_limit)` switches the objective.
pub struct GrowRequest<'a> {
    source: &'a dyn PathSource,
    tm: &'a TrafficMatrix,
    volumes: Option<&'a [f64]>,
    config: GrowthConfig,
    objective: GrowObjective,
}

impl<'a> GrowRequest<'a> {
    /// A latency-optimal request with all defaults; chain setters to adjust.
    pub fn new(source: &'a dyn PathSource, tm: &'a TrafficMatrix) -> Self {
        GrowRequest {
            source,
            tm,
            volumes: None,
            config: GrowthConfig::default(),
            objective: GrowObjective::LatencyOptimal,
        }
    }

    /// Overrides the per-aggregate volumes (LDR inflates them to buy
    /// per-aggregate headroom). Must match the matrix's aggregate count.
    pub fn volumes(mut self, volumes: &'a [f64]) -> Self {
        self.volumes = Some(volumes);
        self
    }

    /// The headroom dial.
    pub fn config(mut self, config: &GrowthConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Switches to the MinMax objective (§3 "MinMax based routing").
    pub fn minmax(mut self, k_limit: Option<usize>) -> Self {
        self.objective = GrowObjective::MinMax { k_limit };
        self
    }

    /// Solves cold (a fresh context every call).
    pub fn solve(self) -> Result<GrowOutcome, LpError> {
        self.solve_with(&mut SolveContext::new())
    }

    /// Solves warm-starting every LP from `ctx` — the deployment-cycle
    /// entry point: keep one context per scheme and successive calls
    /// (minutes) restart from each other's bases.
    pub fn solve_with(self, ctx: &mut SolveContext) -> Result<GrowOutcome, LpError> {
        let matrix_volumes: Vec<f64>;
        let volumes: &[f64] = match self.volumes {
            Some(v) => v,
            None => {
                matrix_volumes = self.tm.aggregates().iter().map(|a| a.volume_mbps).collect();
                &matrix_volumes
            }
        };
        assert_eq!(volumes.len(), self.tm.aggregates().len());
        if self.tm.is_empty() {
            return Ok(GrowOutcome {
                placement: Placement::new(Vec::new()),
                omax: 0.0,
                lp_pivots: 0,
                rounds: 0,
                ended: GrowthEnd::Fits,
            });
        }
        match self.objective {
            GrowObjective::LatencyOptimal => {
                run_latency_optimal(self.source, self.tm, volumes, self.config.headroom, ctx)
            }
            GrowObjective::MinMax { k_limit } => {
                run_minmax(self.source, self.tm, volumes, k_limit, ctx)
            }
        }
    }
}

/// The latency-optimal solve: Figure 13's loop around Figure 12's LP, with
/// the pricing step asking `source` only for the columns of overloaded /
/// saturated pairs.
fn run_latency_optimal(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    volumes: &[f64],
    headroom: f64,
    ctx: &mut SolveContext,
) -> Result<GrowOutcome, LpError> {
    assert!((0.0..1.0).contains(&headroom));
    let graph = source.graph();
    let (mut path_sets, mut pricing) = PricingState::seed(source, tm, 1);
    let aggs = agg_infos(tm, &path_sets);
    let caps = source.effective_capacities();
    let cap_scale = 1.0 - headroom;
    let mut lp = LpData::new(&aggs, volumes, &caps, cap_scale);

    let mut pivots = 0usize;
    let mut rounds = 0usize;
    let mut omax;
    // Phase 1: drive overload to zero, growing across overloaded links.
    // Every round's LP restarts from the optimum of the round before — or
    // is not posed, when its new columns cannot change that optimum.
    let phase1 = telemetry::span("pathgrow.phase1", "pathgrow");
    let mut out = lp.solve(&path_sets, &LpMode::MinOverload, None, ctx)?;
    // The overload of the round before, and the overload at which the
    // stopping test last ran: it runs after a round that did not lower
    // `omax`, once per level.
    let (mut before, mut tested_at) = (f64::INFINITY, f64::INFINITY);
    let ended = loop {
        rounds += 1;
        pivots += out.pivots;
        omax = out.level;
        if omax <= 1e-7 {
            break GrowthEnd::Fits;
        }
        if omax > before - BOUND_TOL && omax < tested_at - BOUND_TOL && bound_armed() {
            tested_at = omax;
            let verdict = lp.proves_final(graph, tm, &path_sets, &out);
            if telemetry::enabled() {
                telemetry::counter_add("pathgrow.bound_checks", 1);
                if verdict == BoundVerdict::GaveUp {
                    telemetry::counter_add("pathgrow.bound_gave_up", 1);
                }
            }
            #[cfg(test)]
            tests::note_verdict(verdict);
            if verdict == BoundVerdict::Final {
                break GrowthEnd::ProvedFinal;
            }
        }
        before = omax;
        if rounds >= MAX_ROUNDS {
            break GrowthEnd::RoundLimit;
        }
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &out.critical_links,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break GrowthEnd::Exhausted; // no alternative left to price
        }
        out = lp.next_round(&path_sets, &LpMode::MinOverload, out, ctx)?;
    };
    if telemetry::enabled() {
        // Both present in every traced run, so a reader can tell 0 from absent.
        telemetry::counter_add("pathgrow.proved_final", u64::from(ended == GrowthEnd::ProvedFinal));
        telemetry::counter_add(
            "pathgrow.round_limit_hits",
            u64::from(ended == GrowthEnd::RoundLimit),
        );
    }
    drop(phase1);

    // Phase 2: minimize delay subject to the achieved overload level (with
    // slack covering LP tolerance so phase 1's solution stays feasible). It
    // restarts from phase 1's vertex: the basis of an LP of its shape, or,
    // when phase 1 ended on a kept round, the last one solved, handed over.
    let phase2 = telemetry::span("pathgrow.phase2", "pathgrow");
    let mode = LpMode::MinLatency { omax_cap: omax * (1.0 + 1e-6) + 1e-7, util_cap: f64::INFINITY };
    let mut out = lp.solve(&path_sets, &mode, out.kept.then_some(&out.layout), ctx)?;
    pivots += out.pivots;
    drop(phase2);

    // Refinement: give the delay objective alternatives across *saturated*
    // links (Figure-6 rebalancing), as long as it keeps helping. Saturation
    // is judged against effective capacity, so a browned-out link at its
    // degraded limit is a growth target even when its raw-capacity slack
    // looks comfortable.
    for _ in 0..REFINE_ROUNDS {
        let _refine = telemetry::span("pathgrow.refine_round", "pathgrow");
        // A link no held path crosses carries nothing: the LP's links are
        // the candidates, not the graph's.
        let saturated =
            lp.links_loaded_to(cap_scale, &out.layout.used_links, &path_sets, &out.fractions);
        if saturated.is_empty() {
            break;
        }
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &saturated,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break;
        }
        out = lp.next_round(&path_sets, &mode, out, ctx)?;
        pivots += out.pivots;
        rounds += 1;
    }
    if telemetry::enabled() {
        telemetry::counter_add("pathgrow.lps_skipped", lp.lps_skipped);
    }
    pricing.report();

    Ok(GrowOutcome {
        placement: to_placement(&path_sets, &out.fractions),
        omax,
        lp_pivots: pivots,
        rounds,
        ended,
    })
}

/// Whether a solve keeps what its source answers beyond `want`: always,
/// outside the tests that drop it to compare against the loop that asked
/// again every round.
fn surplus_kept() -> bool {
    #[cfg(test)]
    return !tests::SURPLUS_OFF.get();
    #[cfg(not(test))]
    true
}

/// Whether phase 1 runs its stopping test: always, outside the tests that
/// switch it off to compare against the loop without it.
fn bound_armed() -> bool {
    #[cfg(test)]
    return !tests::BOUND_OFF.get();
    #[cfg(not(test))]
    true
}

/// MinMax: minimize the maximum link utilization, tie-broken by the delay
/// objective (§3 "MinMax based routing").
fn run_minmax(
    source: &dyn PathSource,
    tm: &TrafficMatrix,
    volumes: &[f64],
    k_limit: Option<usize>,
    ctx: &mut SolveContext,
) -> Result<GrowOutcome, LpError> {
    let (mut path_sets, mut pricing) = PricingState::seed(source, tm, k_limit.unwrap_or(1));
    let aggs = agg_infos(tm, &path_sets);
    let caps = source.effective_capacities();
    let mut lp = LpData::new(&aggs, volumes, &caps, 1.0);

    let mut pivots = 0usize;
    let mut rounds = 0usize;
    // Stage 1: minimize U; for pure MinMax, grow across the links pinning
    // U until U stops improving.
    let mut best_u = f64::INFINITY;
    let stage1 = telemetry::span("pathgrow.minmax_stage1", "pathgrow");
    let mut grown_from: Option<LpLayout> = None;
    loop {
        rounds += 1;
        let out = lp.solve(&path_sets, &LpMode::MinUtilization, grown_from.as_ref(), ctx)?;
        pivots += out.pivots;
        let improved = out.level < best_u * (1.0 - 1e-4);
        best_u = best_u.min(out.level);
        if k_limit.is_some() || rounds >= MAX_ROUNDS || (rounds > 1 && !improved) {
            break;
        }
        // The links pinning U, judged against effective (masked) capacity:
        // among the LP's links, as a link no held path crosses carries
        // nothing.
        let pinning =
            lp.links_loaded_to(out.level, &out.layout.used_links, &path_sets, &out.fractions);
        if !grow_crossing(
            source,
            tm,
            &mut path_sets,
            &out.fractions,
            &pinning,
            GROWTH_STEP,
            &mut pricing,
        ) {
            break;
        }
        grown_from = Some(out.layout);
    }
    drop(stage1);

    // Stage 2: minimize delay subject to utilization <= U*. When the
    // traffic genuinely exceeds capacity (U* > 1) the overload variables
    // must be allowed to absorb the excess.
    let _stage2 = telemetry::span("pathgrow.minmax_stage2", "pathgrow");
    let mode = LpMode::MinLatency {
        omax_cap: (best_u - 1.0).max(0.0) * (1.0 + 1e-6) + 1e-7,
        util_cap: best_u * (1.0 + 1e-5) + 1e-7,
    };
    let out = lp.solve(&path_sets, &mode, None, ctx)?;
    pivots += out.pivots;
    pricing.report();
    let omax = (best_u - 1.0).max(0.0);
    Ok(GrowOutcome {
        placement: to_placement(&path_sets, &out.fractions),
        omax,
        lp_pivots: pivots,
        rounds,
        ended: if omax > 0.0 { GrowthEnd::Exhausted } else { GrowthEnd::Fits },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hier::{EngineConfig, PartitionedPathEngine};
    use crate::scale::ScaleToLoad;
    use lowlat_linprog::Solution;
    use lowlat_netgraph::FailureMask;
    use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig};
    use lowlat_topology::zoo::named;
    use lowlat_topology::{generate, GeoPoint, SynthConfig, SynthModel, Topology, TopologyBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    thread_local! {
        /// `(LPs, pivots their cold solves took)` audited on this thread;
        /// `None` = audit off.
        static AUDITED: std::cell::Cell<Option<(usize, usize)>> =
            const { std::cell::Cell::new(None) };
    }

    thread_local! {
        /// Switches phase 1's stopping test off on this thread.
        pub(super) static BOUND_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        /// Verdicts of the stopping test on this thread, in order.
        static VERDICTS: std::cell::RefCell<Vec<BoundVerdict>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    thread_local! {
        /// Switches the pricing step off on this thread: every round poses
        /// its LP, as the loop did before it priced.
        pub(super) static PRICING_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        /// Rounds that kept their outcome on this thread.
        static KEPT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Makes a solve on this thread drop every surplus: it holds `want`
        /// columns of an answer and asks again next round, as the loop did
        /// before a source could answer long.
        pub(super) static SURPLUS_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Rounds that kept their outcome on this thread so far, each audited
    /// by [`audit_kept_round`].
    pub(crate) fn kept_rounds() -> usize {
        KEPT.get()
    }

    /// Runs `f` as the loop ran before it priced a column.
    fn without_pricing<T>(f: impl FnOnce() -> T) -> T {
        PRICING_OFF.set(true);
        let out = f();
        PRICING_OFF.set(false);
        out
    }

    /// Every kept round is checked by something that did not decide it. The
    /// LP the round skips is posed anyway — on a scratch context holding a
    /// copy of the basis, so the run under test goes on as if it had not
    /// been — and must restart warm, take no pivot and return the kept level
    /// and fractions. And the kept vertex with the kept duals — 0 on the rows
    /// of newly used links, the derived dual on a promoted aggregate's
    /// `Σ = B_a` row, worked out here from the grown LP's own layout — must
    /// pass [`lowlat_linprog::certify`] on the grown problem: the proof,
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
        let mut scratch = SolveContext::new();
        let basis = ctx.bases.get(&key).expect("the held LP left its basis");
        scratch.bases.insert(key, basis.clone());
        let posed = lp.solve(path_sets, mode, Some(from), &mut scratch).expect("the skipped LP");
        let rows = posed.layout.rows;
        assert!(posed.sol.warm_started(), "the skipped LP ({rows} rows) restarts warm");
        assert_eq!(posed.pivots, 0, "the skipped LP ({rows} rows) was not a no-op");
        assert!((posed.level - held.level).abs() <= 1e-12, "{} vs {}", posed.level, held.level);
        assert_eq!(posed.links, links, "links with rows in the grown LP");
        for (a, (kept, got)) in held.fractions.iter().zip(&posed.fractions).enumerate() {
            for (pi, &x) in got.iter().enumerate() {
                match kept.get(pi) {
                    Some(&k) => assert!((x - k).abs() <= 1e-12, "aggregate {a}: {x} vs {k}"),
                    None => assert_eq!(x, 0.0, "aggregate {a}, new path {pi}"),
                }
            }
        }

        let (p, grown) = lp.pose(path_sets, mode);
        let (columns, rows, _) = from.maps_into(&grown).expect("growth extends the held LP");
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

    pub(super) fn note_verdict(verdict: BoundVerdict) {
        VERDICTS.with_borrow_mut(|seen| seen.push(verdict));
    }

    /// Runs `f`; returns its result and the stopping test's verdicts in it.
    fn verdicts<T>(f: impl FnOnce() -> T) -> (T, Vec<BoundVerdict>) {
        VERDICTS.take();
        let out = f();
        (out, VERDICTS.take())
    }

    /// Runs `f` as the loop ran before it had a stopping test.
    fn without_bound<T>(f: impl FnOnce() -> T) -> T {
        BOUND_OFF.set(true);
        let out = f();
        BOUND_OFF.set(false);
        out
    }

    /// While a test has the audit on, every LP the growth loop solves —
    /// warm, handed over or cold — is solved again from scratch and must
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
    fn audited<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        AUDITED.set(Some((0, 0)));
        let out = f();
        let (lps, cold_pivots) = AUDITED.replace(None).expect("audit was on");
        (out, lps, cold_pivots)
    }

    /// Two-path network: fast path 2 ms (cap 100), slow path 6 ms (cap 100).
    fn two_path() -> Topology {
        let mut b = TopologyBuilder::new("two");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0);
        b.connect_with_delay(m, z, 1.0, 100.0);
        b.connect_with_delay(a, n, 3.0, 100.0);
        b.connect_with_delay(n, z, 3.0, 100.0);
        b.build()
    }

    fn tm_one(volume: f64) -> TrafficMatrix {
        one_aggregate(0, 3, volume)
    }

    #[test]
    fn fits_on_shortest_when_light() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(50.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[50.0]).solve().unwrap();
        assert_eq!(out.omax, 0.0);
        let pl = &out.placement.per_aggregate()[0];
        assert_eq!(pl.splits.len(), 1, "no growth needed");
        assert!((pl.mean_delay_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn splits_when_shortest_overflows() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[150.0]).solve().unwrap();
        assert!(out.omax <= 1e-7, "150 fits across both paths");
        let pl = out.placement.aggregate(0);
        // 100 on the fast path, 50 on the slow one.
        let mean = pl.mean_delay_ms();
        let expect = (100.0 / 150.0) * 2.0 + (50.0 / 150.0) * 6.0;
        assert!((mean - expect).abs() < 1e-6, "mean {mean} vs {expect}");
        assert!(out.rounds >= 2, "needed at least one growth round");
    }

    #[test]
    fn reports_overload_when_truly_infeasible() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(250.0);
        let out = GrowRequest::new(&cache, &tm).volumes(&[250.0]).solve().unwrap();
        assert!(out.omax > 0.2, "250 over 200 total: omax ~ 0.25, got {}", out.omax);
        // Placement still produced and structurally valid.
        assert!(out.placement.validate(topo.graph(), &tm).is_ok());
    }

    #[test]
    fn headroom_shrinks_effective_capacity() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let cfg = GrowthConfig { headroom: 0.4 };
        // Effective capacity 60 per link: 150 > 120 -> overload.
        let out = GrowRequest::new(&cache, &tm).volumes(&[150.0]).config(&cfg).solve().unwrap();
        assert!(out.omax > 0.1);
    }

    #[test]
    fn figure6_rebalancing() {
        // Two aggregates share a bottleneck on their shortest paths; the
        // cheap-detour aggregate should move, the expensive-detour one stay.
        let mut b = TopologyBuilder::new("fig6");
        let s1 = b.add_pop("S1", GeoPoint::new(40.0, -100.0));
        let s2 = b.add_pop("S2", GeoPoint::new(42.0, -100.0));
        let j1 = b.add_pop("J1", GeoPoint::new(41.0, -99.0));
        let j2 = b.add_pop("J2", GeoPoint::new(41.0, -96.0));
        let t1 = b.add_pop("T1", GeoPoint::new(40.0, -95.0));
        let t2 = b.add_pop("T2", GeoPoint::new(42.0, -95.0));
        // Shared bottleneck J1-J2.
        b.connect_with_delay(s1, j1, 1.0, 200.0);
        b.connect_with_delay(s2, j1, 1.0, 200.0);
        b.connect_with_delay(j1, j2, 1.0, 100.0);
        b.connect_with_delay(j2, t1, 1.0, 200.0);
        b.connect_with_delay(j2, t2, 1.0, 200.0);
        // Red detour (cheap): S1 -> T1 direct at 4 ms (stretch 4/3).
        b.connect_with_delay(s1, t1, 4.0, 200.0);
        // Blue detour (expensive): S2 -> T2 direct at 30 ms (stretch 10).
        b.connect_with_delay(s2, t2, 30.0, 200.0);
        let topo = b.build();
        let cache = PathCache::new(topo.graph());
        let tm = TrafficMatrix::new(vec![
            Aggregate { src: s1, dst: t1, volume_mbps: 80.0, flow_count: 16 },
            Aggregate { src: s2, dst: t2, volume_mbps: 80.0, flow_count: 16 },
        ]);
        let vols: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let out = GrowRequest::new(&cache, &tm).volumes(&vols).solve().unwrap();
        assert!(out.omax <= 1e-7, "fits: 100 through bottleneck + 60 detoured");
        // The optimum detours 60 of red (cost 1 ms extra per unit) and keeps
        // blue on the bottleneck (its detour costs 27 ms extra per unit).
        let blue = out.placement.aggregate(1);
        assert!(
            (blue.mean_delay_ms() - 3.0).abs() < 1e-3,
            "blue must stay on its shortest path, delay {}",
            blue.mean_delay_ms()
        );
        let red = out.placement.aggregate(0);
        assert!(red.mean_delay_ms() > 3.0 + 1e-6, "red takes the cheap detour");
    }

    #[test]
    fn minmax_spreads_and_tiebreaks_latency() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let out = GrowRequest::new(&cache, &tm).minmax(None).solve().unwrap();
        // MinMax halves utilization by splitting 50/50 even though latency
        // suffers — exactly the §3 critique.
        let pl = out.placement.aggregate(0);
        let mean = pl.mean_delay_ms();
        // Tolerance covers the deliberate slack on the U* cap.
        assert!((mean - 4.0).abs() < 1e-3, "50/50 split means 4 ms, got {mean}");
    }

    #[test]
    fn minmax_k1_is_shortest_path() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let out = GrowRequest::new(&cache, &tm).minmax(Some(1)).solve().unwrap();
        let pl = out.placement.aggregate(0);
        assert!((pl.mean_delay_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_context_warm_starts_successive_minutes() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(150.0);
        let mut ctx = SolveContext::new();
        // Minute 0 seeds the context (phase 2 may already restart from
        // phase 1's basis within the call).
        let first = GrowRequest::new(&cache, &tm).volumes(&[150.0]).solve_with(&mut ctx).unwrap();
        let solves_minute0 = ctx.solves();
        let hits_minute0 = ctx.warm_hits();
        // Minutes 1..: slightly drifted demand, same growth trajectory.
        for (minute, vol) in [152.0, 149.0, 155.0].into_iter().enumerate() {
            let warm = GrowRequest::new(&cache, &tm).volumes(&[vol]).solve_with(&mut ctx).unwrap();
            let cold = GrowRequest::new(&cache, &tm).volumes(&[vol]).solve().unwrap();
            assert!(
                (warm.placement.aggregate(0).mean_delay_ms()
                    - cold.placement.aggregate(0).mean_delay_ms())
                .abs()
                    < 1e-6,
                "minute {minute}: warm and cold placements must agree"
            );
            assert!((warm.omax - cold.omax).abs() < 1e-9);
        }
        assert!(
            ctx.warm_hits() - hits_minute0 >= ctx.solves() - solves_minute0 - 1,
            "successive minutes must restart warm: {} hits over {} post-seed solves",
            ctx.warm_hits() - hits_minute0,
            ctx.solves() - solves_minute0
        );
        let _ = first;
    }

    #[test]
    fn promotion_on_terabit_links_restarts_at_the_true_vertex() {
        // 2 Tb/s links: the promoted aggregate's `z_a0` column is its
        // `Σ = B_a` entry plus two capacity-row coefficients of 1/C = 5e-7 —
        // below any absolute tolerance that could tell it from the unit
        // column `relabel` put in that row, yet 3e6 Mbps of it is 1.5 link
        // capacities. Round 1 overloads the shortest path, round 2 promotes
        // the aggregate onto both; every LP must agree with its cold solve.
        let topo = two_path_scaled([2e4; 4]);
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(3e6);
        let mut ctx = SolveContext::new();
        let (out, lps, _) =
            audited(|| GrowRequest::new(&cache, &tm).volumes(&[3e6]).solve_with(&mut ctx).unwrap());
        assert!(lps >= 3 && out.rounds >= 2, "needs a growth round: {lps} LPs");
        assert!(ctx.warm_hits() >= 1, "the promoted round restarts warm");
        assert!(out.omax <= 1e-9, "3e6 fits across both paths, omax {}", out.omax);
        let cold = GrowRequest::new(&cache, &tm).volumes(&[3e6]).solve().unwrap();
        assert!((out.omax - cold.omax).abs() <= 1e-9);
        let (warm_ms, cold_ms) = (
            out.placement.aggregate(0).mean_delay_ms(),
            cold.placement.aggregate(0).mean_delay_ms(),
        );
        assert!((warm_ms - cold_ms).abs() <= 1e-9, "mean delay {warm_ms} vs cold {cold_ms}");
        assert!((warm_ms - (2.0 * 2.0 + 6.0) / 3.0).abs() <= 1e-6);
    }

    /// `two_path` with each cable's capacity pre-scaled by its factor — the
    /// physically rebuilt counterpart of a degradation-only mask.
    fn two_path_scaled(factors: [f64; 4]) -> Topology {
        let mut b = TopologyBuilder::new("two-scaled");
        let a = b.add_pop("A", GeoPoint::new(40.0, -100.0));
        let m = b.add_pop("M", GeoPoint::new(41.0, -97.0));
        let n = b.add_pop("N", GeoPoint::new(39.0, -97.0));
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(a, m, 1.0, 100.0 * factors[0]);
        b.connect_with_delay(m, z, 1.0, 100.0 * factors[1]);
        b.connect_with_delay(a, n, 3.0, 100.0 * factors[2]);
        b.connect_with_delay(n, z, 3.0, 100.0 * factors[3]);
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A degradation-only mask must constrain the LP exactly like a
        /// graph whose capacities are physically scaled down: same overload,
        /// same mean delay. This pins the masked capacity-provider path to
        /// the rebuilt-graph oracle.
        #[test]
        fn masked_lp_matches_physically_rebuilt_graph(
            (f0, f1, f2, f3) in (0.1f64..0.95, 0.1f64..0.95, 0.1f64..0.95, 0.1f64..0.95),
            volume in 20.0f64..250.0,
        ) {
            use proptest::prelude::prop_assert;
            let factors = [f0, f1, f2, f3];
            let topo = two_path();
            let cache = PathCache::new(topo.graph());
            let mut mask = lowlat_netgraph::FailureMask::new();
            for (c, &f) in topo.cables().iter().zip(&factors) {
                mask.degrade_cable(topo.graph(), *c, f);
            }
            let stats = cache.apply_failure(&mask);
            prop_assert!(stats.repaired_pairs == 0, "degradation-only repair is free");
            let tm = tm_one(volume);
            let masked = GrowRequest::new(&cache, &tm).volumes(&[volume]).solve().unwrap();

            let rebuilt = two_path_scaled(factors);
            let oracle_cache = PathCache::new(rebuilt.graph());
            let oracle = GrowRequest::new(&oracle_cache, &tm).volumes(&[volume]).solve().unwrap();

            prop_assert!(
                (masked.omax - oracle.omax).abs() < 1e-6,
                "omax: masked {} vs rebuilt {}", masked.omax, oracle.omax
            );
            let (md, od) = (
                masked.placement.aggregate(0).mean_delay_ms(),
                oracle.placement.aggregate(0).mean_delay_ms(),
            );
            prop_assert!((md - od).abs() < 1e-5, "mean delay: masked {md} vs rebuilt {od}");
        }
    }

    #[test]
    fn latopt_beats_minmax_on_latency() {
        let topo = two_path();
        let cache = PathCache::new(topo.graph());
        let tm = tm_one(100.0);
        let lat = GrowRequest::new(&cache, &tm).volumes(&[100.0]).solve().unwrap();
        let mm = GrowRequest::new(&cache, &tm).minmax(None).solve().unwrap();
        assert!(
            lat.placement.aggregate(0).mean_delay_ms()
                < mm.placement.aggregate(0).mean_delay_ms() - 1e-6
        );
    }

    /// Figure 12's delay term (un-normalized) of a fractional assignment.
    fn delay_term(aggs: &[AggInfo], path_sets: &[Vec<Path>], fractions: &[Vec<f64>]) -> f64 {
        aggs.iter()
            .zip(path_sets.iter().zip(fractions))
            .map(|(agg, (paths, xs))| {
                let mean: f64 = paths.iter().zip(xs).map(|(p, x)| x * p.delay_ms()).sum();
                agg.flows * mean * (1.0 + M1 / agg.sp_delay.max(1e-9))
            })
            .sum()
    }

    /// One chained solve under the cold audit, then the check that it
    /// stopped at an optimum *of the LP over the columns it ended with*: a
    /// cold re-solve over exactly the path sets it returned reaches the
    /// same overload and the same delay objective. Returns the outcome and
    /// the pivots an all-cold run of the same LPs takes.
    fn solve_audited(
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        volumes: &[f64],
        ctx: &mut SolveContext,
    ) -> (GrowOutcome, usize) {
        let (out, lps, cold_pivots) =
            audited(|| GrowRequest::new(source, tm).volumes(volumes).solve_with(ctx).unwrap());
        assert!(lps >= 2, "phase 1 and phase 2 at least");
        assert!(out.placement.validate(source.graph(), tm).is_ok());

        let path_sets: Vec<Vec<Path>> = out
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|(p, _)| p.clone()).collect())
            .collect();
        let chained: Vec<Vec<f64>> = out
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|&(_, x)| x).collect())
            .collect();
        let aggs = agg_infos(tm, &path_sets);
        let caps = source.effective_capacities();
        let mut lp = LpData::new(&aggs, volumes, &caps, 1.0);
        let phase1 =
            lp.solve(&path_sets, &LpMode::MinOverload, None, &mut SolveContext::new()).unwrap();
        assert!(
            (phase1.level - out.omax).abs() <= 1e-9,
            "omax {} vs cold {} over the same columns",
            out.omax,
            phase1.level
        );
        let mode = LpMode::MinLatency {
            omax_cap: out.omax * (1.0 + 1e-6) + 1e-7,
            util_cap: f64::INFINITY,
        };
        let phase2 = lp.solve(&path_sets, &mode, None, &mut SolveContext::new()).unwrap();
        let (got, want) = (
            delay_term(&aggs, &path_sets, &chained),
            delay_term(&aggs, &path_sets, &phase2.fractions),
        );
        // 1e-6 relative, or what the solver's pricing tolerance leaves open
        // (see `audit_against_cold`) where that is more.
        let norm: f64 = aggs.iter().map(|a| a.flows * a.sp_delay).sum();
        let slop = (1e-6 * want).max(2e-9 * volumes.iter().sum::<f64>() * norm);
        assert!((got - want).abs() <= slop, "delay objective {got} vs cold {want}");
        (out, cold_pivots)
    }

    #[test]
    fn chained_solve_is_optimal_over_its_own_columns_on_abilene() {
        let topo = named::abilene();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.35);
        let cache = PathCache::new(topo.graph());
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        solve_audited(&cache, &tm, &volumes, &mut SolveContext::new());
    }

    /// GTS-like at the benchmark load, demands inflated the way LDR's
    /// Figure-14 loop inflates them: x1.1 on a third of the aggregates, a
    /// different third each call, three calls through one context.
    fn gts_like_inflated_calls(mut each: impl FnMut(&PathCache, &TrafficMatrix, &[f64])) {
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let cache = PathCache::new(topo.graph());
        for call in 0..3 {
            let volumes: Vec<f64> = tm
                .aggregates()
                .iter()
                .enumerate()
                .map(|(a, agg)| agg.volume_mbps * if (a + call) % 3 == 0 { 1.1 } else { 1.0 })
                .collect();
            each(&cache, &tm, &volumes);
        }
    }

    #[test]
    fn chained_solves_are_optimal_over_their_own_columns_on_gts_like() {
        let mut ctx = SolveContext::new();
        gts_like_inflated_calls(|cache, tm, volumes| {
            solve_audited(cache, tm, volumes, &mut ctx);
        });
    }

    #[test]
    fn growth_rounds_restart_from_the_round_before() {
        // The work count the chain exists for: nearly every LP of a growth
        // sequence restarts warm, for a fraction of the pivots the same LPs
        // take cold. (Keyed by shape alone, without the hand-over, the share
        // reads 0.48 here: every round whose shape is new runs cold.)
        let mut ctx = SolveContext::new();
        let (mut pivots, mut cold_pivots) = (0, 0);
        gts_like_inflated_calls(|cache, tm, volumes| {
            let (out, cold) = solve_audited(cache, tm, volumes, &mut ctx);
            pivots += out.lp_pivots;
            cold_pivots += cold;
        });
        let share = ctx.warm_hits() as f64 / ctx.solves() as f64;
        assert!(share >= 0.85, "{} warm of {} solves", ctx.warm_hits(), ctx.solves());
        assert!(3 * pivots <= cold_pivots, "{pivots} pivots chained vs {cold_pivots} all cold");
    }

    /// An 8-pair batch at `overload`x shortest-path overload on a
    /// Barabasi-Albert graph of `nodes` nodes: every round adds links (rows)
    /// as well as paths.
    fn overloaded_batch(g: &Graph, source: &dyn PathSource, overload: f64) -> TrafficMatrix {
        let nodes = g.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        let mut aggs = Vec::new();
        while aggs.len() < 8 {
            let (s, d) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if s != d && seen.insert((s, d)) {
                aggs.push(Aggregate {
                    src: NodeId(s),
                    dst: NodeId(d),
                    volume_mbps: rng.gen_range(100.0..300.0),
                    flow_count: 10,
                });
            }
        }
        let tm = TrafficMatrix::new(aggs);
        let mut loads = vec![0.0; g.link_count()];
        for a in tm.aggregates() {
            let sp = source.shortest(a.src, a.dst).expect("Barabasi-Albert graphs are connected");
            sp.links().iter().for_each(|l| loads[l.idx()] += a.volume_mbps);
        }
        let worst =
            g.link_ids().map(|l| loads[l.idx()] / g.link(l).capacity_mbps).fold(0.0, f64::max);
        tm.scaled(overload / worst)
    }

    #[test]
    fn chained_solve_is_optimal_over_its_own_columns_through_the_partitioned_engine() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        // Through the hierarchical pricing oracle, on 1k nodes.
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let mut ctx = SolveContext::new();
        let (out, _) = solve_audited(&engine, &tm, &volumes, &mut ctx);
        assert!(out.rounds > 3, "the batch must need growth, got {} rounds", out.rounds);
        assert!(ctx.warm_hits() + 1 >= ctx.solves(), "only the first LP of the chain runs cold");
        // The stored bases carry their inverses by nonzeros: a dense inverse
        // alone would be 8·rows² bytes a basis.
        let dense: usize = ctx.bases.keys().map(|&(_, rows, _)| 8 * rows * rows).sum();
        assert!(dense > 0 && 4 * ctx.basis_bytes() < dense, "{} of {dense}", ctx.basis_bytes());
    }

    #[test]
    fn the_bound_gives_up_on_a_graph_the_lp_barely_touches() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        // 2k nodes, an unavoidable overload: the engine never prices most of
        // the detours the graph holds, so the bound cannot be tight, and the
        // search is cut short by its budget instead of flooding the graph —
        // leaving every number of the outcome where it was.
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 2000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 6.0);
        let solve = || GrowRequest::new(&engine, &tm).solve().unwrap();
        let (out, seen) = verdicts(solve);
        assert!(out.omax > 1e-7 && !seen.is_empty(), "omax {}, tested {seen:?}", out.omax);
        assert!(seen.iter().all(|&v| v == BoundVerdict::GaveUp), "{seen:?}");
        let blind = without_bound(solve);
        assert_eq!(fingerprint(&out), fingerprint(&blind));
    }

    /// Every number of an outcome, to the bit.
    fn fingerprint(o: &GrowOutcome) -> impl PartialEq + std::fmt::Debug {
        let splits: Vec<Vec<(Vec<LinkId>, u64)>> = o
            .placement
            .per_aggregate()
            .iter()
            .map(|pl| pl.splits.iter().map(|(p, x)| (p.links().to_vec(), x.to_bits())).collect())
            .collect();
        (o.rounds, o.lp_pivots, o.omax.to_bits(), o.ended, splits)
    }

    // ---- One ask per pair ("The pricing oracle is abstract", module docs) ----

    /// Forwards to the wrapped source and counts the calls that price:
    /// `grow`, `paths` and `shortest_delay_bound`.
    struct CountingSource<'a> {
        inner: &'a dyn PathSource,
        pricing_calls: std::sync::atomic::AtomicUsize,
    }

    impl CountingSource<'_> {
        fn count(&self) {
            self.pricing_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl PathSource for CountingSource<'_> {
        fn graph(&self) -> &Graph {
            self.inner.graph()
        }
        fn paths(&self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
            self.count();
            self.inner.paths(src, dst, k)
        }
        fn grow(&self, src: NodeId, dst: NodeId, want: usize) -> Vec<Path> {
            self.count();
            self.inner.grow(src, dst, want)
        }
        fn shortest_delay_bound(&self, src: NodeId, dst: NodeId) -> f64 {
            self.count();
            self.inner.shortest_delay_bound(src, dst)
        }
        fn failure_mask(&self) -> Option<std::sync::Arc<FailureMask>> {
            self.inner.failure_mask()
        }
        fn apply_failure(&self, mask: &FailureMask) -> crate::pathset::RepairStats {
            self.inner.apply_failure(mask)
        }
        fn cached_pairs(&self) -> usize {
            self.inner.cached_pairs()
        }
    }

    /// One cold call keeping every surplus and one dropping them (asking
    /// again every round, as the loop did before a source could answer
    /// long): the same outcome to the bit through the same LPs. Returns the
    /// pricing calls each made.
    fn surplus_only_removes_asks(
        source: &dyn PathSource,
        tm: &TrafficMatrix,
        volumes: &[f64],
    ) -> (usize, usize) {
        let run = || {
            let counting = CountingSource { inner: source, pricing_calls: Default::default() };
            let mut ctx = SolveContext::new();
            let out =
                GrowRequest::new(&counting, tm).volumes(volumes).solve_with(&mut ctx).unwrap();
            (out, ctx.solves(), counting.pricing_calls.into_inner())
        };
        let (on, on_solves, on_calls) = run();
        SURPLUS_OFF.set(true);
        let (off, off_solves, off_calls) = run();
        SURPLUS_OFF.set(false);
        assert!(on.rounds > 3, "the case must need growth, got {} rounds", on.rounds);
        assert_eq!(fingerprint(&on), fingerprint(&off));
        assert_eq!(on_solves, off_solves);
        (on_calls, off_calls)
    }

    #[test]
    fn a_surplus_only_removes_asks_through_the_partitioned_engine() {
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        let cross = tm.aggregates().iter().filter(|a| !engine.same_leaf(a.src, a.dst)).count();
        assert!(cross > 0, "the batch must hold cross-leaf pairs");
        let (on, off) = surplus_only_removes_asks(&engine, &tm, &volumes);
        assert!(on < off, "{on} pricing calls with the surplus kept, {off} without");
        assert_eq!(engine.cached_pairs(), tm.aggregates().len() - cross);

        // Both counters are written by a traced call (the registry is
        // process-wide, so other tests may add to them meanwhile: lower
        // bounds).
        let _traced = crate::telemetry_lock();
        let before = telemetry::snapshot();
        telemetry::set_enabled(true);
        GrowRequest::new(&engine, &tm).volumes(&volumes).solve().unwrap();
        telemetry::set_enabled(false);
        let after = telemetry::snapshot();
        let added = |name: &str| after.counter(name) - before.counter(name);
        assert!(added("pathgrow.source_asks") >= tm.aggregates().len() as u64);
        assert!(added("pathgrow.columns_from_surplus") >= 1);
        assert!(added("pathgrow.columns_grown") >= added("pathgrow.columns_from_surplus"));
    }

    #[test]
    fn the_flat_cache_never_answers_long_so_no_surplus_is_held() {
        // Twice the benchmark's demand on GTS-like: growth to an overload
        // proven final. The flat cache answers `want` or fewer, so keeping
        // or dropping the surplus is the same run, call for call.
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| 2.0 * a.volume_mbps).collect();
        let (on, off) = surplus_only_removes_asks(&PathCache::new(topo.graph()), &tm, &volumes);
        assert_eq!(on, off);
    }

    // ---- Pricing before posing ("The loop", module docs) ----

    /// One cold call with the pricing step on and one with it off: the step
    /// only removes LPs — one per kept round — and leaves every number of
    /// the outcome where it was.
    fn pricing_only_removes_lps(source: &dyn PathSource, tm: &TrafficMatrix, volumes: &[f64]) {
        let run = || {
            let mut ctx = SolveContext::new();
            let out = GrowRequest::new(source, tm).volumes(volumes).solve_with(&mut ctx).unwrap();
            (out, ctx.solves())
        };
        let kept_before = kept_rounds();
        let (on, on_solves) = run();
        let kept = kept_rounds() - kept_before;
        let (off, off_solves) = without_pricing(run);
        assert_eq!(kept_rounds() - kept_before, kept, "nothing is kept with the step off");
        assert!(kept >= 1, "no round kept its outcome");
        assert_eq!(on_solves + kept, off_solves);
        assert_eq!((on.rounds, on.lp_pivots, on.ended), (off.rounds, off.lp_pivots, off.ended));
        assert!((on.omax - off.omax).abs() <= 1e-12, "omax {} vs {}", on.omax, off.omax);
        for (a, (x, y)) in
            on.placement.per_aggregate().iter().zip(off.placement.per_aggregate()).enumerate()
        {
            assert_eq!(x.splits.len(), y.splits.len(), "aggregate {a}");
            for ((p, fx), (q, fy)) in x.splits.iter().zip(&y.splits) {
                assert_eq!(p.links(), q.links(), "aggregate {a}");
                assert!((fx - fy).abs() <= 1e-12, "aggregate {a}: {fx} vs {fy}");
            }
        }
    }

    #[test]
    fn pricing_only_removes_lps_through_the_partitioned_engine() {
        // Its solves end with counters a traced test compares.
        let _quiet = crate::telemetry_lock();
        let ingested = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 1000, seed: 42 });
        let g = ingested.graph();
        let engine = PartitionedPathEngine::build(g, &EngineConfig::default());
        let tm = overloaded_batch(g, &engine, 2.0);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps).collect();
        pricing_only_removes_lps(&engine, &tm, &volumes);
    }

    #[test]
    fn pricing_only_removes_lps_when_gts_like_cannot_carry_the_demand() {
        // Twice the benchmark's demand: phase 1 ends on an overload proven
        // final, a round after the columns stopped helping.
        let topo = named::gts_like();
        let tm = GravityTmGen::new(TmGenConfig::default())
            .generate(&topo, 0)
            .scaled_to_load(&topo, 0.55);
        let volumes: Vec<f64> = tm.aggregates().iter().map(|a| 2.0 * a.volume_mbps).collect();
        pricing_only_removes_lps(&PathCache::new(topo.graph()), &tm, &volumes);
    }

    // ---- The stopping test of phase 1 ("The loop", module docs) ----

    /// A cut cable of 100 Mbps from `S`, then a mesh of five fully connected
    /// relays (1 Gbps, 1 ms) to `Z`: 325 loopless paths, every one across
    /// the cut.
    fn mesh_behind_a_cut() -> Topology {
        let mut b = TopologyBuilder::new("cut-mesh");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let gate = b.add_pop("G", GeoPoint::new(40.0, -99.0));
        let relays: Vec<_> =
            (0..5).map(|i| b.add_pop(format!("R{i}"), GeoPoint::new(41.0, -98.0))).collect();
        let z = b.add_pop("Z", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(s, gate, 1.0, 100.0);
        for (i, &r) in relays.iter().enumerate() {
            b.connect_with_delay(gate, r, 1.0, 1000.0);
            b.connect_with_delay(r, z, 1.0, 1000.0);
            for &other in &relays[i + 1..] {
                b.connect_with_delay(r, other, 1.0, 1000.0);
            }
        }
        b.build()
    }

    fn one_aggregate(src: u32, dst: u32, volume: f64) -> TrafficMatrix {
        TrafficMatrix::new(vec![Aggregate {
            src: NodeId(src),
            dst: NodeId(dst),
            volume_mbps: volume,
            flow_count: 10,
        }])
    }

    #[test]
    fn an_unavoidable_overload_is_proven_on_the_first_round_that_fails_to_lower_it() {
        let topo = mesh_behind_a_cut();
        let cache = PathCache::new(topo.graph());
        let tm = one_aggregate(0, 6, 250.0);
        let (out, seen) = verdicts(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert_eq!(out.ended, GrowthEnd::ProvedFinal);
        assert_eq!(seen, [BoundVerdict::Final], "one test, on round 2");
        assert!((out.omax - 1.5).abs() < 1e-9, "250 over a 100 Mbps cut: {}", out.omax);
        // Round 1, the round that did not help, and the refinement rounds.
        assert_eq!(out.rounds, 2 + REFINE_ROUNDS);

        // Without the test the loop enumerates the mesh until the backstop.
        let blind = without_bound(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert_eq!(blind.ended, GrowthEnd::RoundLimit);
        assert_eq!(blind.rounds, MAX_ROUNDS + REFINE_ROUNDS);
        assert!((blind.omax - out.omax).abs() < 1e-9);
    }

    #[test]
    fn the_bound_waits_for_a_relief_column_deep_in_the_ranking() {
        // S -> A (100 Mbps) fans out over three fast relays to T: 15 paths
        // of at most 5 ms. The only relief, S -> B -> T (100 Mbps, 20 ms), is
        // the 16th shortest; a slow fourth relay supplies columns after it.
        let mut b = TopologyBuilder::new("late-relief");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let a = b.add_pop("A", GeoPoint::new(40.0, -99.0));
        let relays: Vec<_> =
            (0..4).map(|i| b.add_pop(format!("R{i}"), GeoPoint::new(41.0, -98.0))).collect();
        let t = b.add_pop("T", GeoPoint::new(40.0, -94.0));
        let relief = b.add_pop("B", GeoPoint::new(38.0, -97.0));
        b.connect_with_delay(s, a, 1.0, 100.0);
        for (i, &r) in relays.iter().enumerate() {
            let delay = if i == 3 { 30.0 } else { 1.0 };
            b.connect_with_delay(a, r, delay, 1000.0);
            b.connect_with_delay(r, t, delay, 1000.0);
            for &other in &relays[i + 1..] {
                let between = if other == relays[3] { 30.0 } else { 1.0 };
                b.connect_with_delay(r, other, between, 1000.0);
            }
        }
        b.connect_with_delay(s, relief, 10.0, 100.0);
        b.connect_with_delay(relief, t, 10.0, 100.0);
        let topo = b.build();
        let cache = PathCache::new(topo.graph());
        let (src, dst) = (NodeId(0), NodeId(6));
        let ranked = cache.paths(src, dst, 17);
        let k = 1 + ranked.iter().position(|p| p.hop_count() == 2).expect("the relief path");
        assert!(k == 16 && k > 2 * GROWTH_STEP && ranked.len() == 17);

        let tm = one_aggregate(0, 6, 250.0);
        let (out, seen) = verdicts(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        // Tested when round 2 leaves omax at 1.5 (the relief path is free
        // under the prices: open), not again on that plateau, and once more
        // on the round after the relief column took omax to 0.25.
        assert_eq!(seen, [BoundVerdict::Open, BoundVerdict::Final]);
        assert_eq!(out.ended, GrowthEnd::ProvedFinal);
        assert!((out.omax - 0.25).abs() < 1e-9, "250 over two 100 Mbps cuts: {}", out.omax);
        let blind = without_bound(|| GrowRequest::new(&cache, &tm).solve().unwrap());
        assert!((blind.omax - out.omax).abs() < 1e-9);
        assert!(out.rounds < blind.rounds, "{} vs {} rounds", out.rounds, blind.rounds);
    }

    #[test]
    fn the_bound_walks_the_masked_graph_at_effective_capacities() {
        // Direct S - T (100 Mbps) and a detour over D (100 Mbps); the LP
        // holds the direct path only, 150 Mbps on it.
        let mut b = TopologyBuilder::new("detour");
        let s = b.add_pop("S", GeoPoint::new(40.0, -100.0));
        let d = b.add_pop("D", GeoPoint::new(42.0, -97.0));
        let t = b.add_pop("T", GeoPoint::new(40.0, -94.0));
        b.connect_with_delay(s, t, 1.0, 100.0);
        b.connect_with_delay(s, d, 5.0, 100.0);
        b.connect_with_delay(d, t, 5.0, 100.0);
        let topo = b.build();
        let g = topo.graph();
        let cache = PathCache::new(g);
        let tm = one_aggregate(0, 2, 150.0);
        let direct = g.find_link(NodeId(0), NodeId(2)).unwrap();
        let detour = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let held = vec![vec![Path::new(g, vec![direct])]];
        let aggs = agg_infos(&tm, &held);
        let verdict_and_bound = |mask: &FailureMask| {
            cache.apply_failure(mask);
            let caps = cache.effective_capacities();
            let mut lp = LpData::new(&aggs, &[150.0], &caps, 1.0);
            let out =
                lp.solve(&held, &LpMode::MinOverload, None, &mut SolveContext::new()).unwrap();
            assert_eq!(out.overload_prices.len(), 1);
            let verdict = lp.proves_final(g, &tm, &held, &out);
            let bound = lp
                .flow_bound(g, &tm, &held, &out.overload_prices, f64::NEG_INFINITY, usize::MAX)
                .unwrap();
            (verdict, out.level, bound)
        };

        // Detour up: it is free under the prices, so nothing is proven.
        let (verdict, omax, bound) = verdict_and_bound(&FailureMask::new());
        assert_eq!((verdict, omax, bound), (BoundVerdict::Open, 0.5, -1.0));
        // Detour down: not walked, and 150 over 100 is final.
        let mut mask = FailureMask::new();
        mask.fail_cable(g, detour);
        let (verdict, omax, bound) = verdict_and_bound(&mask);
        assert_eq!(verdict, BoundVerdict::Final);
        assert!(omax == 0.5 && (bound - 0.5).abs() < 1e-12, "{omax} vs {bound}");
        // A brown-out of the direct cable enters as v_l / (factor · C_l).
        mask.degrade_cable(g, direct, 0.5);
        let (verdict, omax, bound) = verdict_and_bound(&mask);
        assert_eq!(verdict, BoundVerdict::Final);
        assert!((omax - 2.0).abs() < 1e-12 && (bound - 2.0).abs() < 1e-12, "{omax} vs {bound}");
    }

    /// Chords of a 7-node chain, in the order the soundness test's bit mask
    /// selects them.
    fn chords(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (i + 2..n).map(move |j| (i, j))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Soundness: whatever the link weights — an LP's duals or noise —
        /// the bound is the concurrent-flow expression over *all* loopless
        /// paths and never exceeds the overload of the LP that holds every
        /// one of them as a column. So no weights can stop a chain that
        /// could still improve.
        #[test]
        fn no_link_weights_push_the_bound_past_the_all_paths_optimum(
            n in 3usize..=7,
            chord_mask in 0u32..(1 << 15),
            capacities in proptest::collection::vec(1u32..=4, 21),
            demands in proptest::collection::vec((0usize..7, 0usize..6, 1u32..=8), 1..=3),
            weights in proptest::collection::vec(0u32..=6, 42),
            held_k in 1usize..=3,
            headroom in 0u32..=1,
        ) {
            use proptest::prelude::prop_assert;
            let mut b = lowlat_netgraph::GraphBuilder::new(n);
            let mut cables = (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>();
            cables.extend(chords(n).into_iter().enumerate().filter(|(c, _)| chord_mask >> c & 1 == 1).map(|(_, e)| e));
            for (c, &(i, j)) in cables.iter().enumerate() {
                b.add_duplex(NodeId(i as u32), NodeId(j as u32), 1.0 + c as f64, 50.0 * capacities[c] as f64);
            }
            let g = b.build();
            let mut pairs = std::collections::BTreeMap::new();
            for &(s, off, vol) in &demands {
                let (s, d) = (s % n, (s % n + 1 + off % (n - 1)) % n);
                pairs.insert((s, d), 50.0 * vol as f64);
            }
            let tm = TrafficMatrix::new(pairs.iter().map(|(&(s, d), &v)| Aggregate {
                src: NodeId(s as u32), dst: NodeId(d as u32), volume_mbps: v, flow_count: 10,
            }).collect());
            let volumes: Vec<f64> = pairs.values().copied().collect();
            // Weights on about a third of the links, zero on the rest.
            let prices: Vec<(LinkId, f64)> = g.link_ids()
                .filter(|l| weights[l.idx()] > 4)
                .map(|l| (l, (1 + l.idx() % 3) as f64))
                .collect();
            if prices.is_empty() {
                return Ok(());
            }

            let cache = PathCache::new(&g);
            let every_path: Vec<Vec<Path>> =
                tm.aggregates().iter().map(|a| cache.paths(a.src, a.dst, 100_000)).collect();
            let held: Vec<Vec<Path>> =
                every_path.iter().map(|ps| ps[..held_k.min(ps.len())].to_vec()).collect();
            let aggs = agg_infos(&tm, &every_path);
            let caps = cache.effective_capacities();
            let cap_scale = 1.0 - 0.1 * headroom as f64;
            let mut lp = LpData::new(&aggs, &volumes, &caps, cap_scale);
            let optimum = lp
                .solve(&every_path, &LpMode::MinOverload, None, &mut SolveContext::new())
                .unwrap()
                .level;
            let bound = lp
                .flow_bound(&g, &tm, &held, &prices, f64::NEG_INFINITY, usize::MAX)
                .expect("no floor, no budget: the search completes");

            let total: f64 = prices.iter().map(|&(_, v)| v).sum();
            let length = |p: &Path| -> f64 {
                p.links().iter().map(|l| {
                    prices.iter().find(|(pl, _)| pl == l).map_or(0.0, |&(_, v)| v / total / caps[l.idx()])
                }).sum()
            };
            let by_enumeration: f64 = every_path.iter().zip(&volumes)
                .map(|(ps, b)| b * ps.iter().map(length).fold(f64::INFINITY, f64::min))
                .sum::<f64>() - cap_scale;
            prop_assert!((bound - by_enumeration).abs() <= 1e-9, "search {bound} vs enumeration {by_enumeration}");
            prop_assert!(bound <= optimum + 1e-9, "bound {bound} above the optimum {optimum}");
        }
    }

    /// One cold call per volume scale on `topo` at `load`, the stopping test
    /// on (under the cold audit) and off: every call that ends overloaded is
    /// proven final within 8 rounds at `load × scale - 1` — `scaled_to_load`
    /// defines load by MinMax utilization, an answer the bound did not
    /// compute — with the pivots and the overload of the loop that runs to
    /// its backstop. Returns how many calls ended overloaded.
    fn overloads_are_proven(topo: &Topology, load: f64, scales: &[f64]) -> usize {
        let tm =
            GravityTmGen::new(TmGenConfig::default()).generate(topo, 0).scaled_to_load(topo, load);
        let cache = PathCache::new(topo.graph());
        let mut overloaded = 0;
        for &scale in scales {
            let volumes: Vec<f64> = tm.aggregates().iter().map(|a| a.volume_mbps * scale).collect();
            let (out, _, _) =
                audited(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve().unwrap());
            assert_ne!(out.ended, GrowthEnd::RoundLimit);
            if out.omax <= 1e-7 {
                assert!(load * scale < 1.0 + 1e-4 && out.ended == GrowthEnd::Fits);
                continue;
            }
            overloaded += 1;
            let blind =
                without_bound(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve().unwrap());
            let at = format!("{} load {load} x {scale}", topo.name());
            assert_eq!(out.ended, GrowthEnd::ProvedFinal, "{at}");
            assert!(out.rounds <= 8 && out.rounds < blind.rounds, "{at}: {} rounds", out.rounds);
            assert!((out.omax - (load * scale - 1.0)).abs() < 1e-4, "{at}: omax {}", out.omax);
            assert!((out.omax - blind.omax).abs() < 1e-5, "{at}: {} vs {}", out.omax, blind.omax);
            assert_eq!(out.lp_pivots, blind.lp_pivots, "{at}");
        }
        overloaded
    }

    #[test]
    fn every_overload_on_gts_like_is_proven_final_within_eight_rounds() {
        let topo = named::gts_like();
        let proven: usize = [0.55, 0.7, 0.9]
            .iter()
            .map(|&load| overloads_are_proven(&topo, load, &[1.6, 2.0, 2.5]))
            .sum();
        assert_eq!(proven, 8, "all but 0.55 x 1.6");
    }

    #[test]
    fn every_overload_on_abilene_is_proven_final_within_eight_rounds() {
        assert_eq!(overloads_are_proven(&named::abilene(), 0.7, &[1.6, 2.0]), 2);
    }
}
