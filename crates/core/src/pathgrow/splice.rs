//! Where a round's LP puts its variables and rows, and the one writer of
//! every LP of a chain: what growth splices into the LP the round before
//! solved.
//!
//! A growth step only adds: paths at the ends of their aggregates' sets,
//! and with them the rows of links no path used before and the `Σ = B_a`
//! rows of aggregates promoted from one path to several. So the grown LP
//! is the old one with columns and rows put in between, the right-hand
//! sides of the links a promotion unloads recomputed, and nothing else
//! changed; [`LpData::splice`] writes that difference as a
//! [`lowlat_linprog::Growth`], and the chain's [`lowlat_linprog::LiveLp`]
//! merges it into the standard form it holds. A chain's first LP is the
//! same splice from the LP with no rows ([`LpLayout::empty`]), so one
//! writer decides where every row and column goes and what it holds. The
//! unit tests hold every LP it writes, to the bit, to the standard form of
//! the same LP posed row by row from scratch.

use std::mem::take;

use lowlat_linprog::Relation;
use lowlat_netgraph::Path;

use super::lp::{LpData, LpMode, SpliceScratch, FRESH, SPREAD_WEIGHT, UNUSED};

/// Where the variables and rows of one LP sit. [`LpData::splice`] decides
/// it, and the column and row maps that renumber the chain's basis are
/// derived from the layouts of two LPs of a chain.
///
/// Columns: a block of split variables per aggregate with more than one
/// path (aggregate order), one `o_l` per used link (link-index order), the
/// aux variable (`omax`, or MinUtilization's `U`). Rows, scaled by `1/C_l`
/// for conditioning: a capacity row per used link, `Σ z_ap / C_l − o_l <=
/// cap_scale − fixed_l / C_l` (MinUtilization: `Σ B_a x_ap / C_l − U <=
/// −fixed_l / C_l`); in the overload modes an `o_l <= omax` row per used
/// link; a `Σ = B_a` row per multi-path aggregate; MinMax stage 2 appends
/// its utilization caps, `Σ z_ap / C_l <= util_cap − fixed_l / C_l`.
#[derive(Clone, Debug)]
pub(super) struct LpLayout {
    /// Links that have a capacity row, ascending.
    pub(super) used_links: Vec<usize>,
    /// Aggregate `a`'s split variables are `col_base[a]..col_base[a + 1]`
    /// (none for a single-path aggregate).
    pub(super) col_base: Vec<usize>,
    /// Whether the split variables are traffic, `z_ap = B_a x_ap`, and the
    /// `o_l <= omax` rows exist: in the overload modes, whose coefficients
    /// are then independent of the demands, so a minute's LP differs from
    /// the last only in right-hand sides and costs, which a warm restart
    /// absorbs. MinUtilization's fractions (`B_a / C_l`, O(1)-conditioned)
    /// are off the per-minute path and never share a basis.
    pub(super) o_rows: bool,
    /// Constraint rows of the LP.
    pub(super) rows: usize,
    /// [`LpMode::tag`] of the LP: the context key its basis is under.
    pub(super) tag: u8,
}

/// `(columns, rows, enter)` as [`lowlat_linprog::Basis::relabel`] takes them.
type BasisMaps = (Vec<usize>, Vec<usize>, Vec<Option<usize>>);

impl LpLayout {
    /// The LP of `mode` over `aggregates` aggregates that has no rows and
    /// no columns but its aux variable: what a chain's first LP is spliced
    /// from.
    pub(super) fn empty(aggregates: usize, mode: &LpMode) -> LpLayout {
        LpLayout {
            used_links: Vec::new(),
            col_base: vec![0; aggregates + 1],
            o_rows: !matches!(mode, LpMode::MinUtilization),
            rows: 0,
            tag: mode.tag(),
        }
    }

    pub(super) fn num_x(&self) -> usize {
        self.col_base[self.col_base.len() - 1]
    }

    pub(super) fn vars(&self) -> usize {
        self.num_x() + self.used_links.len() + 1
    }

    /// The maps that carry a basis of this LP to `grown`, the LP one growth
    /// step later: surviving paths, links and aggregates keep their
    /// variables and rows under new numbers; a newly used link adds a
    /// capacity row and an `o_l <= omax` row whose slacks enter the basis
    /// (no old path crosses it, so both are slack at the old vertex); an
    /// aggregate that went single→multi adds its `Σ = B_a` row, in which
    /// its old path's variable enters — basic at `B_a`, exactly the load it
    /// contributed as a fixed term before; utilization caps, which only the
    /// first LP of a chain has, enter with their slacks. `None` when
    /// `grown` does not extend this layout.
    pub(super) fn maps_into(&self, grown: &LpLayout) -> Option<BasisMaps> {
        if self.o_rows != grown.o_rows || self.col_base.len() != grown.col_base.len() {
            return None;
        }
        // Both link lists ascend: one walk ranks every old link among the
        // grown LP's.
        let mut rank = Vec::with_capacity(self.used_links.len());
        let mut at = 0;
        for &l in &self.used_links {
            at += grown.used_links[at..].iter().take_while(|&&g| g < l).count();
            if grown.used_links.get(at) != Some(&l) {
                return None;
            }
            rank.push(at);
        }
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
        enter.resize(grown.rows - self.rows, None);
        Some((columns, rows, enter))
    }
}

impl LpData<'_> {
    /// What the LP of `mode` over `path_sets` adds to the one laid out as
    /// `from`, in which every old path set is a prefix of the new one, into
    /// [`LpData::growth`] — and the grown LP's layout. Grown paths and
    /// promoted aggregates' `z_a0` are new columns; newly used links bring
    /// their rows and `o_l`, promoted aggregates their `Σ = B_a` rows. Only
    /// the capacity rows whose fixed load a promotion moved get a new
    /// right-hand side. From the [`LpLayout::empty`] LP, the first of a
    /// chain, the loaded single-path aggregates' links get rows too, and
    /// MinMax's stage 2 its utilization caps, which no other LP has.
    pub(super) fn splice(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        from: &LpLayout,
    ) -> LpLayout {
        let (volumes, caps, cap_scale) = (self.volumes, self.caps, self.cap_scale);
        let (mut rank, mut scratch) = (take(&mut self.link_rank), take(&mut self.scratch));
        let traffic_units = from.o_rows;
        let link_rows = if traffic_units { 2 } else { 1 };
        // Every LP but the empty one has a row for each link a loaded
        // single-path aggregate crosses.
        let first = from.used_links.is_empty();
        let util_cap = match mode {
            LpMode::MinLatency { util_cap, .. } if util_cap.is_finite() => Some(*util_cap),
            _ => None,
        };
        debug_assert!(util_cap.is_none() || first, "only a chain's first LP has utilization caps");
        // The grown layout's column blocks; the aggregates that grew, each
        // with its first new path (0 when promoted) and its `Σ = B_a` row
        // among the multi-path ones; the links that have no row yet.
        let SpliceScratch { grown, fresh, refixed, fixed_load, column } = &mut scratch;
        let mut col_base = Vec::with_capacity(path_sets.len() + 1);
        col_base.push(0usize);
        grown.clear();
        fresh.clear();
        for &l in &from.used_links {
            rank[l] = 0;
        }
        let mut mark_fresh = |path: &Path| {
            for l in path.links().iter().map(|l| l.idx()) {
                if rank[l] == UNUSED {
                    rank[l] = FRESH;
                    fresh.push(l);
                }
            }
        };
        let mut multi = 0;
        for (a, (paths, old)) in path_sets.iter().zip(from.col_base.windows(2)).enumerate() {
            assert!(!paths.is_empty(), "aggregate {a} has no candidate path");
            let held = old[1] - old[0];
            if paths.len() == 1 {
                col_base.push(col_base[a]);
                if first && volumes[a] > 0.0 {
                    mark_fresh(&paths[0]);
                }
                continue;
            }
            col_base.push(col_base[a] + paths.len());
            if paths.len() > held {
                grown.push((a, held, multi));
                paths[held..].iter().for_each(&mut mark_fresh);
            }
            multi += 1;
        }
        fresh.sort_unstable();
        let mut used_links = Vec::with_capacity(from.used_links.len() + fresh.len());
        let (mut old, mut new) = (from.used_links.iter().peekable(), fresh.iter().peekable());
        while let Some(&l) = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if b < a => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        } {
            rank[l] = used_links.len() as u32;
            used_links.push(l);
        }
        let num_o = used_links.len();
        let sum_base = link_rows * num_o;
        let util_base = util_cap.map(|_| sum_base + multi);
        let layout = LpLayout {
            used_links,
            col_base,
            o_rows: traffic_units,
            rows: sum_base + multi + util_base.map_or(0, |_| num_o),
            tag: mode.tag(),
        };
        let (columns, rows, enter) = from.maps_into(&layout).expect("growth only appends");

        // The fixed load of the capacity rows that need it: every row of
        // the first LP, and the rows of the links a promoted aggregate's
        // path crosses, whose volume leaves that load. Summed over the
        // single-path aggregates in aggregate order (every link such an
        // aggregate crosses has a row).
        refixed.clear();
        refixed.resize(num_o, first);
        let mut moved = first;
        for &(a, _, _) in grown.iter().filter(|&&(a, held, _)| held == 0 && volumes[a] > 0.0) {
            for l in path_sets[a][0].links() {
                refixed[rank[l.idx()] as usize] = true;
                moved = true;
            }
        }
        if moved {
            fixed_load.clear();
            fixed_load.resize(num_o, 0.0);
            for (a, paths) in path_sets.iter().enumerate() {
                if paths.len() == 1 && volumes[a] > 0.0 {
                    for l in paths[0].links() {
                        let oi = rank[l.idx()] as usize;
                        if refixed[oi] {
                            fixed_load[oi] += volumes[a];
                        }
                    }
                }
            }
        }

        // New rows in layout order: the new links' capacity rows and their
        // `o_l <= omax` rows, the promoted aggregates' sums, then the
        // utilization caps. A link that had no row carries a fixed load
        // only in the first LP.
        let load_of = |oi: usize| if first { fixed_load[oi] } else { 0.0 };
        let rhs = |load: f64, l: usize| {
            if traffic_units {
                cap_scale - load / caps[l]
            } else {
                -load / caps[l]
            }
        };
        let mut growth = take(&mut self.growth);
        growth.begin(columns, rows, enter);
        if first {
            // Every row and column of the LP is new: room for them at once.
            // A path's column has an entry per link and its sum row, twice
            // its links' under utilization caps; an `o_l`, two at most.
            let caps_too = usize::from(util_base.is_some());
            let new_paths = grown.iter().flat_map(|&(a, held, _)| &path_sets[a][held..]);
            let path_entries: usize =
                new_paths.map(|path| 1 + (1 + caps_too) * path.links().len()).sum();
            let columns = layout.num_x() + fresh.len();
            growth.reserve(layout.rows, columns, path_entries + 2 * fresh.len());
        }
        for &l in fresh.iter() {
            assert!(
                caps[l] > 0.0,
                "used link {l} has zero effective capacity (path crosses a downed link)"
            );
            growth.add_row(Relation::Le, rhs(load_of(rank[l] as usize), l));
        }
        if traffic_units {
            fresh.iter().for_each(|_| growth.add_row(Relation::Le, 0.0));
        }
        for &(a, _, _) in grown.iter().filter(|&&(_, held, _)| held == 0) {
            growth.add_row(Relation::Eq, if traffic_units { volumes[a] } else { 1.0 });
        }
        if let Some(util_cap) = util_cap {
            for (oi, &l) in layout.used_links.iter().enumerate() {
                growth.add_row(Relation::Le, util_cap - fixed_load[oi] / caps[l]);
            }
        }
        if !first {
            for (oi, &l) in layout.used_links.iter().enumerate().filter(|&(oi, _)| refixed[oi]) {
                growth.set_rhs(oi, rhs(fixed_load[oi], l));
            }
        }

        // New columns in index order: grown paths (capacity rows by link
        // rank, the `Σ = B_a` row, the utilization caps by link rank), then
        // the new links' `o_l`; the aux column gains an entry in each new
        // row that names it.
        let latency = matches!(mode, LpMode::MinLatency { .. });
        for &(a, held, sum) in grown.iter() {
            let unit = if traffic_units { 1.0 } else { volumes[a] };
            for path in &path_sets[a][held..] {
                column.clear();
                let links = path.links().iter().map(|l| l.idx());
                column.extend(links.map(|l| (rank[l] as usize, unit / caps[l])));
                column.sort_unstable_by_key(|&(row, _)| row);
                column.dedup_by_key(|&mut (row, _)| row);
                let on_links = column.len();
                column.push((sum_base + sum, 1.0));
                if let Some(base) = util_base {
                    column.extend_from_within(..on_links);
                    column[on_links + 1..].iter_mut().for_each(|(row, _)| *row += base);
                }
                let cost = if latency { self.delay_cost(a, path) } else { 0.0 };
                growth.add_column(cost, f64::INFINITY, column.iter().copied());
            }
        }
        let (spread, upper) = match mode {
            LpMode::MinOverload => (SPREAD_WEIGHT, f64::INFINITY),
            LpMode::MinUtilization => (0.0, f64::INFINITY),
            LpMode::MinLatency { omax_cap, .. } => (SPREAD_WEIGHT, *omax_cap),
        };
        let o_rows = usize::from(traffic_units);
        for &l in fresh.iter() {
            let oi = rank[l] as usize;
            let o_col = [(oi, -1.0), (num_o + oi, 1.0)];
            growth.add_column(spread, upper, o_col.into_iter().take(2 * o_rows));
        }
        let aux = layout.num_x() + num_o;
        for &l in fresh.iter() {
            growth.add_entry(aux, o_rows * num_o + rank[l] as usize, -1.0);
        }
        layout.used_links.iter().for_each(|&l| rank[l] = UNUSED);
        (self.link_rank, self.scratch, self.growth) = (rank, scratch, growth);
        layout
    }
}
