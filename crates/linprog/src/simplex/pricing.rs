//! Pricing: the duals `y = c_B B⁻¹` and the reduced costs
//! `d_j = c_j − y·A_j` the entering choice reads, kept across pivots.
//!
//! A pivot in position `r` rewrites only the columns of `B⁻¹` that hold
//! row `r` and changes only `c_B`'s entry `r`; every other `y_k` is the
//! same terms in the same order, so the same bits. Those columns' `y_k`
//! are re-derived by [`price_of`], the sum [`Engine::compute_y`] takes;
//! then only the columns crossing a row whose `y` changed bits, and the
//! column that left the basis, have their `d_j` recomputed — by the one
//! [`Engine::reduced_cost`] formula on the same `y`. Whatever is read is
//! what a recomputation from scratch would give, to the bit.
//!
//! The same row index prunes the scans that read one row of `B⁻¹ A`
//! (the dual repair's and the drive-out of artificials): a column that
//! crosses no nonzero of the row of `B⁻¹` has ±0 there, and is never
//! eligible.

use lowlat_telemetry as telemetry;

use super::engine::{Engine, Rest};
use super::inverse::price_of;
use super::tol::PRICING_TOL;

/// Which columns cross each row — the standard form's and the
/// artificials' — listed by increasing column: the transpose of the
/// column lists, built at a solve's first pivot.
#[derive(Default)]
struct RowIndex {
    /// Row `r`'s columns are `cols[start[r]..start[r + 1]]`; empty until
    /// built.
    start: Vec<usize>,
    cols: Vec<u32>,
}

impl RowIndex {
    fn build(eng: &Engine) -> RowIndex {
        let m = eng.m;
        let mut start = vec![0; m + 1];
        for j in 0..eng.total_n {
            eng.col(j).iter().for_each(|&(r, _)| start[r + 1] += 1);
        }
        for r in 0..m {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut cols = vec![0; start[m]];
        for j in 0..eng.total_n {
            for &(r, _) in eng.col(j) {
                cols[fill[r]] = j as u32;
                fill[r] += 1;
            }
        }
        RowIndex { start, cols }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.cols[self.start[r]..self.start[r + 1]]
    }
}

/// What pricing keeps between pivots of one solve.
#[derive(Default)]
pub(super) struct Pricing {
    /// Reduced cost per column: current for every nonbasic column below
    /// `enterable` in the phase [`Engine::price_all`] last priced for.
    d: Vec<f64>,
    /// Columns below this may enter in that phase.
    enterable: usize,
    index: RowIndex,
    /// Basis positions whose column of `B⁻¹` the last eta update rewrote.
    pub(super) rewritten: Vec<usize>,
    /// Positions whose `y` the last pivot changed, bit for bit.
    changed: Vec<usize>,
    /// Per column, the last `pass` that priced or listed it.
    seen: Vec<u32>,
    pass: u32,
    /// Scratch of [`Engine::crossing_row`]: the columns a row scan reads.
    candidates: Vec<usize>,
    /// Reduced costs computed since the solve began, full passes included.
    priced: u64,
}

impl Pricing {
    /// A pass number no column has seen yet.
    fn next_pass(&mut self, total_n: usize) -> u32 {
        self.seen.resize(total_n, 0);
        if self.pass == u32::MAX {
            self.seen.fill(0);
            self.pass = 0;
        }
        self.pass += 1;
        self.pass
    }
}

impl Engine<'_> {
    /// Reduced cost of column `j` given `scratch_y`.
    #[inline]
    pub(super) fn reduced_cost(&self, j: usize, cost: &[f64]) -> f64 {
        let mut dot = 0.0;
        for &(r, v) in self.col(j) {
            dot += v * self.scratch_y[r];
        }
        cost[j] - dot
    }

    /// Prices from scratch: `y` for `cost`, and `d` for every nonbasic
    /// column below `enterable`. At a phase's entry and after a
    /// refactorization.
    pub(super) fn price_all(&mut self, cost: &[f64], enterable: usize) {
        self.compute_y(cost);
        let mut p = std::mem::take(&mut self.pricing);
        p.d.resize(self.total_n, 0.0);
        p.enterable = enterable;
        for j in (0..enterable).filter(|&j| self.rest[j] != Rest::Basic) {
            p.d[j] = self.reduced_cost(j, cost);
            p.priced += 1;
        }
        self.pricing = p;
    }

    /// The column to enter: Dantzig's largest score, or under Bland's rule
    /// the first column with a positive one, from the kept `d`. A variable
    /// at its upper bound enters by *decreasing*, so it is attractive when
    /// its reduced cost is positive. `None` at the phase's optimum.
    pub(super) fn entering(&self, bland: bool) -> Option<usize> {
        let p = &self.pricing;
        let mut entering: Option<(usize, f64)> = None;
        for (j, &d) in p.d[..p.enterable].iter().enumerate() {
            let score = match self.rest[j] {
                Rest::Basic => continue,
                Rest::Lower => -d,
                Rest::Upper => d,
            };
            if score > PRICING_TOL {
                if bland {
                    return Some(j);
                }
                match entering {
                    Some((_, best)) if score <= best => {}
                    _ => entering = Some((j, score)),
                }
            }
        }
        entering.map(|(j, _)| j)
    }

    /// After a pivot in position `r`: `y` for the columns of `B⁻¹` it
    /// rewrote, with `c_B`'s entry `r` now the entering column's cost;
    /// the positions whose `y` changed bits go to `changed`.
    pub(super) fn update_y(&mut self, cost: &[f64], r: usize) {
        self.cost_at[r] = cost[self.basis[r]];
        let p = &mut self.pricing;
        p.changed.clear();
        for &k in &p.rewritten {
            let y = price_of(&self.binv.cols[k], &self.cost_at);
            if y.to_bits() != self.scratch_y[k].to_bits() {
                self.scratch_y[k] = y;
                p.changed.push(k);
            }
        }
    }

    /// After a pivot in position `r` that `leaving` left: `y` as
    /// [`Engine::update_y`] keeps it, then `d` for every nonbasic column
    /// crossing a row whose `y` changed, and for `leaving`, whose `d` was
    /// not kept while it was basic.
    pub(super) fn reprice(&mut self, cost: &[f64], r: usize, leaving: usize) {
        self.update_y(cost, r);
        self.build_index();
        let mut p = std::mem::take(&mut self.pricing);
        let pass = p.next_pass(self.total_n);
        let Pricing { d, enterable, index, changed, seen, priced, .. } = &mut p;
        let mut price = |j: usize| {
            if j < *enterable && self.rest[j] != Rest::Basic && seen[j] != pass {
                seen[j] = pass;
                d[j] = self.reduced_cost(j, cost);
                *priced += 1;
            }
        };
        for &k in changed.iter() {
            index.row(k).iter().for_each(|&j| price(j as usize));
        }
        price(leaving);
        self.pricing = p;
    }

    fn build_index(&mut self) {
        if self.pricing.index.start.is_empty() {
            self.pricing.index = RowIndex::build(self);
        }
    }

    /// The nonbasic columns below `below` that cross a nonzero of
    /// `scratch_row` (a row of `B⁻¹`), increasing: the only columns with a
    /// nonzero in that row of `B⁻¹ A`. Taken from the engine; hand them
    /// back with [`Engine::done_with`].
    pub(super) fn crossing_row(&mut self, below: usize) -> Vec<usize> {
        self.build_index();
        let mut p = std::mem::take(&mut self.pricing);
        let pass = p.next_pass(self.total_n);
        p.candidates.clear();
        for k in (0..self.m).filter(|&k| self.scratch_row[k] != 0.0) {
            for &j in p.index.row(k) {
                let j = j as usize;
                if j < below && self.rest[j] != Rest::Basic && p.seen[j] != pass {
                    p.seen[j] = pass;
                    p.candidates.push(j);
                }
            }
        }
        p.candidates.sort_unstable();
        let candidates = std::mem::take(&mut p.candidates);
        self.pricing = p;
        candidates
    }

    /// Returns [`Engine::crossing_row`]'s list, counting the reduced costs
    /// its scan computed.
    pub(super) fn done_with(&mut self, candidates: Vec<usize>, priced: u64) {
        self.pricing.candidates = candidates;
        self.pricing.priced += priced;
    }

    /// Adds this solve's reduced costs to `lp.priced_columns`, once; not
    /// while the thread unwinds (the engine's `Drop` calls it, and the
    /// registry's lock may panic).
    pub(super) fn report_pricing(&mut self) {
        if telemetry::enabled() && !std::thread::panicking() {
            telemetry::counter_add("lp.priced_columns", std::mem::take(&mut self.pricing.priced));
        }
    }

    /// The kept prices against the full ones, to the bit: every `y_k`
    /// against [`Engine::compute_y`] from scratch and, `with_d`, every
    /// nonbasic `d_j` below `enterable` against [`Engine::reduced_cost`].
    #[cfg(test)]
    pub(super) fn audit_prices(&mut self, cost: &[f64], with_d: bool) {
        let kept = self.scratch_y.clone();
        self.compute_y(cost);
        for (k, (&kept, &full)) in kept.iter().zip(&self.scratch_y).enumerate() {
            assert_eq!(kept.to_bits(), full.to_bits(), "y[{k}]: kept {kept:e}, full {full:e}");
        }
        if with_d {
            let p = &self.pricing;
            for j in (0..p.enterable).filter(|&j| self.rest[j] != Rest::Basic) {
                let (kept, full) = (p.d[j], self.reduced_cost(j, cost));
                assert_eq!(kept.to_bits(), full.to_bits(), "d[{j}]: kept {kept:e}, full {full:e}");
            }
        }
        tests::PRICE_AUDITS.set(tests::PRICE_AUDITS.get() + 1);
    }
}

#[cfg(test)]
pub(super) mod tests {
    thread_local! {
        /// Times this thread's engines compared their kept prices with the
        /// full ones ([`super::Engine::audit_prices`]).
        pub(crate) static PRICE_AUDITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
}
