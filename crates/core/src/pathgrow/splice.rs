//! Where a round's LP puts its variables and rows, and what growth
//! splices into the LP the round before solved.
//!
//! A growth step only adds: paths at the ends of their aggregates' sets,
//! and with them the rows of links no path used before and the `Σ = B_a`
//! rows of aggregates promoted from one path to several. So the grown LP
//! is the old one with columns and rows put in between, the right-hand
//! sides of the links a promotion unloads recomputed, and nothing else
//! changed; [`LpData::splice`] writes that difference as a
//! [`lowlat_linprog::Growth`], and the chain's [`lowlat_linprog::LiveLp`]
//! merges it into the standard form it holds — what [`LpData::pose`] and
//! the conversion to standard form would build from scratch, to the bit.

use std::mem::take;

use lowlat_linprog::Relation;
use lowlat_netgraph::Path;

use super::lp::{LpData, LpMode, PoseScratch, FRESH, SPREAD_WEIGHT, UNUSED};

/// Where the variables and rows of one posed LP sit. [`LpData::pose`]
/// decides it, and [`LpData::splice`] gives a grown LP the layout `pose`
/// would (the unit tests hold every spliced round to it), with the column
/// and row maps that renumber the chain's basis derived from the two
/// layouts.
///
/// Columns: a block of split variables per aggregate with more than one
/// path (aggregate order), one `o_l` per used link (link-index order), the
/// aux variable. Rows: a capacity row per used link, (overload modes) an
/// `o_l <= omax` row per used link, a `Σ = B_a` row per multi-path
/// aggregate; MinMax stage 2 appends its utilization caps.
#[derive(Clone, Debug)]
pub(super) struct LpLayout {
    /// Links that have a capacity row, ascending.
    pub(super) used_links: Vec<usize>,
    /// Aggregate `a`'s split variables are `col_base[a]..col_base[a + 1]`
    /// (none for a single-path aggregate).
    pub(super) col_base: Vec<usize>,
    /// Whether the `o_l <= omax` rows exist.
    pub(super) o_rows: bool,
    /// Constraint rows of the posed LP.
    pub(super) rows: usize,
    /// [`LpMode::tag`] of the posed LP: the context key its basis is under.
    pub(super) tag: u8,
}

/// `(columns, rows, enter)` as [`lowlat_linprog::Basis::relabel`] takes them.
type BasisMaps = (Vec<usize>, Vec<usize>, Vec<Option<usize>>);

impl LpLayout {
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
    /// contributed as a fixed term before. `None` when `grown` does not
    /// extend this layout.
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
        Some((columns, rows, enter))
    }
}

impl LpData<'_> {
    /// What the LP of `mode` over `path_sets` adds to the one laid out as
    /// `from`, in which every old path set is a prefix of the new one, into
    /// [`LpData::growth`] — and the grown LP's layout, which is the one
    /// [`LpData::pose`] gives it.
    /// Grown paths and promoted aggregates' `z_a0` are new columns; newly
    /// used links bring their capacity and `o_l <= omax` rows and columns,
    /// promoted aggregates their `Σ = B_a` rows, each in the place `pose`
    /// puts it. Only the capacity rows whose fixed load a promotion moved
    /// get a new right-hand side, the fixed load summed again in aggregate
    /// order, as `pose` sums it.
    pub(super) fn splice(
        &mut self,
        path_sets: &[Vec<Path>],
        mode: &LpMode,
        from: &LpLayout,
    ) -> LpLayout {
        let (volumes, caps, cap_scale) = (self.volumes, self.caps, self.cap_scale);
        let (mut rank, mut scratch) = (take(&mut self.link_rank), take(&mut self.pose));
        let traffic_units = from.o_rows;
        let link_rows = if traffic_units { 2 } else { 1 };
        // The grown layout's column blocks; the aggregates that grew, each
        // with its first new path (0 when promoted) and its `Σ = B_a` row
        // among the multi-path ones; the links the new paths cross that
        // have no row yet.
        let PoseScratch { grown, fresh, refixed, fixed_load, sum_row: column, .. } = &mut scratch;
        let mut col_base = Vec::with_capacity(path_sets.len() + 1);
        col_base.push(0usize);
        grown.clear();
        fresh.clear();
        for &l in &from.used_links {
            rank[l] = 0;
        }
        let mut multi = 0;
        for (a, (paths, old)) in path_sets.iter().zip(from.col_base.windows(2)).enumerate() {
            let held = old[1] - old[0];
            if paths.len() == 1 {
                col_base.push(col_base[a]);
                continue;
            }
            col_base.push(col_base[a] + paths.len());
            if paths.len() > held {
                grown.push((a, held, multi));
                for l in paths[held..].iter().flat_map(|p| p.links()) {
                    if rank[l.idx()] == UNUSED {
                        rank[l.idx()] = FRESH;
                        fresh.push(l.idx());
                    }
                }
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
        let layout = LpLayout {
            used_links,
            col_base,
            o_rows: traffic_units,
            rows: link_rows * num_o + multi,
            tag: mode.tag(),
        };
        let (columns, rows, enter) = from.maps_into(&layout).expect("growth only appends");

        // New rows in the order `pose` puts them: the new links' capacity
        // rows (no fixed load crosses a link that had no row) and their
        // `o_l <= omax` rows, then the promoted aggregates' sums.
        let rhs = |load: f64, l: usize| {
            if traffic_units {
                cap_scale - load / caps[l]
            } else {
                -load / caps[l]
            }
        };
        let mut growth = take(&mut self.growth);
        growth.begin(columns, rows, enter);
        for &l in fresh.iter() {
            assert!(
                caps[l] > 0.0,
                "used link {l} has zero effective capacity (path crosses a downed link)"
            );
            growth.add_row(Relation::Le, rhs(0.0, l));
        }
        if traffic_units {
            fresh.iter().for_each(|_| growth.add_row(Relation::Le, 0.0));
        }
        for &(a, _, _) in grown.iter().filter(|&&(_, held, _)| held == 0) {
            growth.add_row(Relation::Eq, if traffic_units { volumes[a] } else { 1.0 });
        }

        // A promoted aggregate's volume leaves the fixed load of every link
        // of its path: those capacity rows get their fixed load summed again
        // over the single-path aggregates still crossing them, in aggregate
        // order, as `pose` sums it (every link such an aggregate crosses
        // has a row).
        refixed.clear();
        refixed.resize(num_o, false);
        let mut moved = false;
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
            for (oi, &l) in layout.used_links.iter().enumerate().filter(|&(oi, _)| refixed[oi]) {
                growth.set_rhs(oi, rhs(fixed_load[oi], l));
            }
        }

        // New columns in index order: grown paths (capacity rows by link
        // rank, then the `Σ = B_a` row), then the new links' `o_l`; the aux
        // column gains an entry in each new row that names it.
        let latency = matches!(mode, LpMode::MinLatency { .. });
        for &(a, held, sum) in grown.iter() {
            let unit = if traffic_units { 1.0 } else { volumes[a] };
            for path in &path_sets[a][held..] {
                column.clear();
                let links = path.links().iter().map(|l| l.idx());
                column.extend(links.map(|l| (rank[l] as usize, unit / caps[l])));
                column.sort_unstable_by_key(|&(row, _)| row);
                column.dedup_by_key(|&mut (row, _)| row);
                column.push((link_rows * num_o + sum, 1.0));
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
        (self.link_rank, self.pose, self.growth) = (rank, scratch, growth);
        layout
    }
}
