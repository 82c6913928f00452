//! Every answer of the solver on a seeded family of LPs, to the bit.
//!
//! The other tests judge an answer within a tolerance; this one folds into
//! one `u64` the bits of `values()`, `duals()` and `objective()` and the
//! pivot count `iterations()` of every solve of a seeded family — transport
//! LPs (the §3 locality LP's shape, with and without a redundant equality
//! row), random upper-bounded LPs with degenerate vertices, some of them
//! infeasible or unbounded, and warm `solve_warm` chains that drift the
//! right-hand sides and grow the problem through [`Basis::relabel`] (the
//! Figure 13 growth loop's shape). A change to the engine that moves one
//! pivot or one bit of one answer fails here; its ledger row
//! (`solve_bits` in `tests/pinned.tsv`) is never re-recorded by a change
//! that claims the same bits.

#[path = "../../../tests/support/digest.rs"]
mod digest;
#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use digest::Digest;
use lowlat_linprog::{Basis, LpError, Problem, Relation, Solution};

impl Digest {
    fn solve(&mut self, solved: &Result<Solution, LpError>) {
        match solved {
            Ok(sol) => {
                self.word(sol.values().len() as u64);
                sol.values().iter().for_each(|v| self.word(v.to_bits()));
                self.word(sol.duals().len() as u64);
                sol.duals().iter().for_each(|y| self.word(y.to_bits()));
                self.word(sol.objective().to_bits());
                self.word(sol.iterations() as u64);
                self.word(u64::from(sol.warm_started()));
            }
            Err(e) => self.word(u64::MAX - *e as u64),
        }
    }
}

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[lo, hi)`, on a grid of 1/1024.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1024) as f64 / 1024.0
    }
}

/// Supplies capping `ns` rows, demands to meet on `nd`; integer costs, so
/// ties (and degenerate pivots) are common. `balanced` poses both sides as
/// equalities with equal totals: one row is redundant and its artificial
/// stays basic.
fn transport(rng: &mut Rng, ns: usize, nd: usize, balanced: bool) -> Problem {
    let mut p = Problem::minimize(ns * nd);
    for j in 0..ns * nd {
        p.set_objective(j, rng.int(1, 9) as f64);
    }
    let supply: Vec<f64> = (0..ns).map(|_| rng.real(20.0, 60.0)).collect();
    let total: f64 = supply.iter().sum();
    let mut share: Vec<f64> = (0..nd).map(|_| rng.real(1.0, 2.0)).collect();
    let sum: f64 = share.iter().sum();
    let scale = if balanced { 1.0 } else { 0.8 };
    share.iter_mut().for_each(|s| *s *= scale * total / sum);
    if balanced {
        let last: f64 = share[..nd - 1].iter().sum();
        share[nd - 1] = total - last;
    }
    let (supply_rel, demand_rel) =
        if balanced { (Relation::Eq, Relation::Eq) } else { (Relation::Le, Relation::Ge) };
    for (i, &s) in supply.iter().enumerate() {
        let row: Vec<(usize, f64)> = (0..nd).map(|j| (i * nd + j, 1.0)).collect();
        p.add_row(supply_rel, s, &row);
    }
    for (j, &d) in share.iter().enumerate() {
        let row: Vec<(usize, f64)> = (0..ns).map(|i| (i * nd + j, 1.0)).collect();
        p.add_row(demand_rel, d, &row);
    }
    p
}

/// Sparse rows with small integer coefficients through an integer witness,
/// a third of them tight there (a degenerate vertex), some variables
/// bounded. `loose` drops the bounding row, so some come out unbounded; a
/// row through a point outside the bounds makes others infeasible.
fn bounded(rng: &mut Rng, n: usize, m: usize, loose: bool) -> Problem {
    let mut p = Problem::minimize(n);
    let witness: Vec<i64> = (0..n).map(|_| rng.int(0, 3)).collect();
    for (j, &wj) in witness.iter().enumerate() {
        p.set_objective(j, rng.int(-6, 4) as f64);
        if rng.int(0, 2) == 0 {
            p.set_upper_bound(j, (wj + rng.int(-1, 3)).max(0) as f64);
        }
    }
    for _ in 0..m {
        let mut row = Vec::new();
        for j in 0..n {
            let a = rng.int(-4, 4) as f64;
            if a != 0.0 && rng.int(0, 3) == 0 {
                row.push((j, a));
            }
        }
        let at: f64 = row.iter().map(|&(j, a)| a * witness[j] as f64).sum();
        let slack = if rng.int(0, 2) == 0 { 0.0 } else { rng.int(1, 5) as f64 };
        match rng.int(0, 5) {
            0 => p.add_row(Relation::Eq, at, &row),
            1 | 2 => p.add_row(Relation::Ge, at - slack, &row),
            _ => p.add_row(Relation::Le, at + slack, &row),
        };
    }
    if !loose {
        let all: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
        p.add_row(Relation::Le, 4.0 * n as f64, &all);
    }
    p
}

/// Where each of `old`'s keys sits in `grown`.
fn moved_to<K: PartialEq>(old: &[K], grown: &[K]) -> Vec<usize> {
    old.iter().map(|key| grown.iter().position(|k| k == key).unwrap()).collect()
}

type Keys = (Vec<(u8, usize, usize)>, Vec<(u8, usize)>);

/// The path-growth LP: each aggregate's paths `(cost, links)` carry its
/// demand; per link `Σ z − cap·o_l <= cap` and `o_l − omax <= 0`; minimize
/// `1000·omax` plus path costs. Returns the problem with a key per column
/// and per row, for [`Basis::relabel`]'s maps.
fn growth_lp(
    links: &[(usize, f64)],
    paths: &[Vec<(f64, Vec<usize>)>],
    demand: &[f64],
) -> (Problem, Keys) {
    let mut col_keys = Vec::new();
    for (a, of_a) in paths.iter().enumerate() {
        col_keys.extend((0..of_a.len()).map(|p| (0u8, a, p)));
    }
    let first_o = col_keys.len();
    col_keys.extend(links.iter().map(|&(l, _)| (1u8, l, 0)));
    let omax = col_keys.len();
    col_keys.push((2, 0, 0));
    let mut p = Problem::minimize(col_keys.len());
    p.set_objective(omax, 1000.0);
    let mut row_keys = Vec::new();
    for (at, &(l, cap)) in links.iter().enumerate() {
        let mut row = Vec::new();
        for (j, &(_, a, path)) in col_keys[..first_o].iter().enumerate() {
            if paths[a][path].1.contains(&l) {
                row.push((j, 1.0));
            }
        }
        row.push((first_o + at, -cap));
        p.add_row(Relation::Le, cap, &row);
        p.add_row(Relation::Le, 0.0, &[(first_o + at, 1.0), (omax, -1.0)]);
        row_keys.extend([(0u8, l), (1, l)]);
    }
    let mut j = 0;
    for (a, of_a) in paths.iter().enumerate() {
        let row: Vec<(usize, f64)> = (j..j + of_a.len()).map(|j| (j, 1.0)).collect();
        for (&(cost, _), &(j, _)) in of_a.iter().zip(&row) {
            p.set_objective(j, cost);
        }
        p.add_row(Relation::Eq, demand[a], &row);
        row_keys.push((2, a));
        j += of_a.len();
    }
    (p, (col_keys, row_keys))
}

/// A warm chain over one handle: every other step drifts the demands on
/// the same matrix, the rest grow every aggregate a path over links (some
/// new, their rows spliced in among the old) and relabel the handle.
fn growth_chain(rng: &mut Rng, h: &mut Digest, aggregates: usize, steps: usize) {
    let mut links: Vec<(usize, f64)> = (0..24).map(|k| (4 * k, rng.real(60.0, 160.0))).collect();
    let pick = |rng: &mut Rng, links: &[(usize, f64)]| -> Vec<usize> {
        let len = rng.int(2, 5) as usize;
        let mut path: Vec<usize> =
            (0..len).map(|_| links[rng.int(0, links.len() as i64 - 1) as usize].0).collect();
        path.sort_unstable();
        path.dedup();
        path
    };
    let mut paths: Vec<Vec<(f64, Vec<usize>)>> = (0..aggregates)
        .map(|_| (0..2).map(|_| (rng.int(10, 30) as f64, pick(rng, &links))).collect())
        .collect();
    let mut demand: Vec<f64> = (0..aggregates).map(|_| rng.real(30.0, 120.0)).collect();
    let (lp, mut keys) = growth_lp(&links, &paths, &demand);
    let mut handle = Basis::new();
    h.solve(&lp.solve_warm(&mut handle));
    for step in 1..=steps {
        if step % 2 == 1 {
            demand.iter_mut().for_each(|d| *d *= rng.real(0.7, 1.4));
            let (lp, _) = growth_lp(&links, &paths, &demand);
            h.solve(&lp.solve_warm(&mut handle));
            continue;
        }
        for _ in 0..3 {
            links.push((4 * rng.int(0, 40) as usize + step % 4, rng.real(60.0, 160.0)));
        }
        links.sort_by_key(|&(l, _)| l);
        links.dedup_by_key(|&mut (l, _)| l);
        for of_a in paths.iter_mut() {
            of_a.push((rng.int(5, 30) as f64, pick(rng, &links)));
        }
        let (lp, grown) = growth_lp(&links, &paths, &demand);
        let columns = moved_to(&keys.0, &grown.0);
        let rows = moved_to(&keys.1, &grown.1);
        let enter = vec![None; lp.num_rows() - rows.len()];
        h.word(u64::from(handle.relabel(&lp, &columns, &rows, &enter)));
        h.solve(&lp.solve_warm(&mut handle));
        keys = grown;
    }
}

#[test]
fn a_seeded_family_of_lps_keeps_its_bits() {
    let mut rng = Rng(0x5e_ed0f_1a7e_5c11);
    let mut h = Digest::new();
    for &(ns, nd) in &[(4, 5), (8, 10), (12, 15), (20, 24)] {
        for balanced in [false, true] {
            h.solve(&transport(&mut rng, ns, nd, balanced).solve());
        }
    }
    for case in 0..120 {
        let (n, m) = (4 + case % 13, 3 + case % 11);
        h.solve(&bounded(&mut rng, n, m, case % 7 == 3).solve());
    }
    for (aggregates, steps) in [(4, 6), (10, 8), (24, 10)] {
        growth_chain(&mut rng, &mut h, aggregates, steps);
    }
    pinned::assert_pinned("solve_bits", &[h.0]);
}
