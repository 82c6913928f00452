//! The basis inverse is kept explicitly, as **sparse columns** (a row whose
//! slack is basic contributes the unit column, and in the path-growth LPs
//! most capacity rows are slack at every vertex visited: the inverse is
//! around 1% nonzero). The three hot operations — pricing vector
//! `y = c_B B⁻¹`, entering column `w = B⁻¹ A_j`, and the eta update after a
//! pivot — read and write its nonzeros only, each sum over the terms the
//! dense matrix would give it, in the same order, minus the ones with a zero
//! factor. Only refactorization (cold fallback, periodic hygiene) works on a
//! dense m×m scratch.

use super::engine::Engine;
use super::tol::SINGULAR_PIVOT;

/// An explicit basis inverse held by its nonzeros: one column per row of
/// the problem, each its own `(position, value)` list sorted by position
/// with exact zeros left out — a pivot rewrites the few columns it touches
/// and leaves the rest where they are.
#[derive(Clone, Default)]
pub(super) struct SparseInverse {
    pub(super) cols: Vec<Vec<(usize, f64)>>,
}

impl SparseInverse {
    /// Columns, i.e. rows of the problem inverted; 0 = no inverse held.
    pub(super) fn len(&self) -> usize {
        self.cols.len()
    }

    /// Entry `(row, k)`; zero where column `k` stores nothing.
    pub(super) fn get(&self, row: usize, k: usize) -> f64 {
        let col = &self.cols[k];
        col.binary_search_by_key(&row, |&(i, _)| i).map_or(0.0, |at| col[at].1)
    }

    pub(super) fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Machine words of heap behind the columns, their headers included.
    pub(super) fn heap_words(&self) -> usize {
        3 * self.cols.len() + 2 * self.nnz()
    }
}

// The kernels run inside the engine's pivot loops in `engine.rs`; `#[inline]`
// keeps them inlined there across the module boundary, as they were when both
// shared a file (without it a GTS-like decision ran 1–3% slower).
impl Engine<'_> {
    /// `w = B^-1 A_j` into `scratch_w`: the inverse's columns that `A_j`
    /// names, scaled and scattered in the order `A_j` lists them.
    #[inline]
    pub(super) fn compute_w(&mut self, j: usize) {
        let mut w = std::mem::take(&mut self.scratch_w);
        w.fill(0.0);
        for &(r, v) in self.col(j) {
            for &(i, bi) in &self.binv.cols[r] {
                w[i] += v * bi;
            }
        }
        self.scratch_w = w;
    }

    /// `y = c_B' B^-1` into `scratch_y` for the given phase costs (one per
    /// column, artificials included). Only basic variables with a nonzero
    /// cost have a term — phase 1 of the growth LPs costs `omax` and the
    /// `o_l` alone — and of those only the ones the inverse's column stores
    /// an entry for; the terms that remain are summed in basis order, so `y`
    /// is what the sum over all of `c_B` gives.
    #[inline]
    pub(super) fn compute_y(&mut self, cost: &[f64]) {
        self.cost_at.clear();
        self.cost_at.extend(self.basis.iter().map(|&j| cost[j]));
        for (yk, colk) in self.scratch_y.iter_mut().zip(&self.binv.cols) {
            *yk = price_of(colk, &self.cost_at);
        }
    }

    /// Row `r` of the inverse into `scratch_row`, dense.
    #[inline]
    pub(super) fn gather_row(&mut self, r: usize) {
        for (k, at) in self.scratch_row.iter_mut().enumerate() {
            *at = self.binv.get(r, k);
        }
    }

    /// Eta update of the inverse after the column whose `B^-1 A_j` sits in
    /// `scratch_w` replaced basis position `r`: for every column k with an
    /// entry t = (B^-1)_{r,k},
    ///   (B^-1)_{i,k} -= w_i * t / w_r  (i != r);  (B^-1)_{r,k} = t / w_r,
    /// which rewrites the union of the column's entries and `w`'s nonzeros;
    /// a column without that entry is not touched. The columns rewritten
    /// are listed in `pricing.rewritten`.
    #[inline]
    pub(super) fn eta_update(&mut self, r: usize) {
        self.age += 1;
        let w = &self.scratch_w;
        let wr = w[r];
        self.w_support.clear();
        self.w_support.extend((0..self.m).filter(|&i| w[i] != 0.0));
        let support = &self.w_support;
        let merged = &mut self.merged;
        let rewritten = &mut self.pricing.rewritten;
        rewritten.clear();
        for (k, col) in self.binv.cols.iter_mut().enumerate() {
            let Ok(at) = col.binary_search_by_key(&r, |&(i, _)| i) else {
                continue;
            };
            rewritten.push(k);
            let scale = col[at].1 / wr;
            // Written by index into a buffer sized for the whole union: an
            // entry that comes out zero is overwritten by the next one.
            merged.clear();
            merged.resize(col.len() + support.len(), (0, 0.0));
            let (mut c, mut n) = (0, 0);
            for &i in support {
                while c < col.len() && col[c].0 < i {
                    merged[n] = col[c];
                    n += 1;
                    c += 1;
                }
                let mut v = 0.0;
                if c < col.len() && col[c].0 == i {
                    v = col[c].1;
                    c += 1;
                }
                v = if i == r { scale } else { v - w[i] * scale };
                merged[n] = (i, v);
                n += usize::from(v != 0.0);
            }
            let rest = col.len() - c;
            merged[n..n + rest].copy_from_slice(&col[c..]);
            merged.truncate(n + rest);
            std::mem::swap(col, merged);
        }
    }
}

/// Entry `k` of `y = c_B' B^-1` from column `k` of the inverse and the cost
/// of the basic variable in each position: the terms with a nonzero cost,
/// in position order.
#[inline]
pub(super) fn price_of(colk: &[(usize, f64)], cost_at: &[f64]) -> f64 {
    let costed = colk.iter().filter(|&&(i, _)| cost_at[i] != 0.0);
    costed.map(|&(i, bik)| cost_at[i] * bik).sum()
}

/// Inverts an m*m column-major matrix by Gauss-Jordan with partial pivoting.
/// Returns `None` if (numerically) singular.
pub(super) fn invert_column_major(a: &[f64], m: usize) -> Option<Vec<f64>> {
    // Work row-major for the elimination, convert at the edges.
    let mut w = vec![0.0; m * m];
    for k in 0..m {
        for i in 0..m {
            w[i * m + k] = a[k * m + i];
        }
    }
    let mut inv = vec![0.0; m * m];
    for i in 0..m {
        inv[i * m + i] = 1.0;
    }
    for col in 0..m {
        let mut piv = col;
        let mut best = w[col * m + col].abs();
        for i in col + 1..m {
            let v = w[i * m + col].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best < SINGULAR_PIVOT {
            return None;
        }
        if piv != col {
            for k in 0..m {
                w.swap(col * m + k, piv * m + k);
                inv.swap(col * m + k, piv * m + k);
            }
        }
        let d = w[col * m + col];
        for k in 0..m {
            w[col * m + k] /= d;
            inv[col * m + k] /= d;
        }
        for i in 0..m {
            if i != col {
                let f = w[i * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        w[i * m + k] -= f * w[col * m + k];
                        inv[i * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
    }
    let mut out = vec![0.0; m * m];
    for i in 0..m {
        for k in 0..m {
            out[k * m + i] = inv[i * m + k];
        }
    }
    Some(out)
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::engine::{Engine, Rest};
    use super::super::standard_form::SparseCols;
    use super::super::tol::{snap_round_off, REPLACE_GUARD_REL};
    use super::{invert_column_major, SparseInverse};

    /// The dense column-major inverse this engine used to hold — element
    /// (i,k) at `binv[k*m + i]`, zeros stored — with its kernels as they
    /// were: the reference the sparse ones must agree with to the bit.
    #[derive(Clone)]
    pub(crate) struct DenseInverse {
        pub(crate) m: usize,
        pub(crate) binv: Vec<f64>,
    }

    impl DenseInverse {
        /// `sparse` scattered.
        pub(crate) fn of(sparse: &SparseInverse) -> Self {
            let m = sparse.len();
            let mut binv = vec![0.0; m * m];
            for (k, col) in sparse.cols.iter().enumerate() {
                for &(i, v) in col {
                    binv[k * m + i] = v;
                }
            }
            DenseInverse { m, binv }
        }

        pub(crate) fn compute_w(&self, eng: &Engine, j: usize) -> Vec<f64> {
            let m = self.m;
            let mut w = vec![0.0; m];
            for &(r, v) in eng.col(j) {
                let colr = &self.binv[r * m..r * m + m];
                for (wi, bi) in w.iter_mut().zip(colr) {
                    *wi += v * bi;
                }
            }
            w
        }

        pub(crate) fn compute_y(&self, basis: &[usize], cost: &[f64]) -> Vec<f64> {
            let m = self.m;
            let costed: Vec<(usize, f64)> = basis
                .iter()
                .enumerate()
                .filter(|&(_, &j)| cost[j] != 0.0)
                .map(|(i, &j)| (i, cost[j]))
                .collect();
            (0..m)
                .map(|k| {
                    let colk = &self.binv[k * m..k * m + m];
                    costed.iter().map(|&(i, c)| c * colk[i]).sum()
                })
                .collect()
        }

        pub(crate) fn eta_update(&mut self, r: usize, w: &[f64]) {
            let m = self.m;
            let wr = w[r];
            for k in 0..m {
                let colk = &mut self.binv[k * m..k * m + m];
                let t = colk[r];
                if t == 0.0 {
                    continue;
                }
                let scale = t / wr;
                for i in 0..m {
                    colk[i] -= w[i] * scale;
                }
                colk[r] = scale;
            }
        }

        pub(crate) fn refactorize(&mut self, eng: &Engine) {
            let m = self.m;
            let mut bmat = vec![0.0; m * m];
            for (k, &j) in eng.basis.iter().enumerate() {
                for &(r, v) in eng.col(j) {
                    bmat[k * m + r] = v;
                }
            }
            self.binv = invert_column_major(&bmat, m).expect("the engine inverted it");
        }

        pub(crate) fn recompute_xb(&self, eng: &Engine) -> Vec<f64> {
            let m = self.m;
            let mut rhs = eng.sf.b.clone();
            for j in 0..eng.art_start {
                if eng.rest[j] == Rest::Upper {
                    let u = eng.sf.upper[j];
                    for &(r, v) in eng.sf.col(j) {
                        rhs[r] -= v * u;
                    }
                }
            }
            let mut xb = vec![0.0; m];
            for (k, &rk) in rhs.iter().enumerate().filter(|&(_, &rk)| rk != 0.0) {
                for (x, bik) in xb.iter_mut().zip(&self.binv[k * m..k * m + m]) {
                    *x += bik * rk;
                }
            }
            for x in xb.iter_mut() {
                *x = snap_round_off(*x);
            }
            xb
        }

        pub(crate) fn extended(&self, rows: &[usize], new_m: usize) -> DenseInverse {
            let m = self.m;
            let mut binv = vec![0.0; new_m * new_m];
            for (k, &rk) in rows.iter().enumerate() {
                let to = &mut binv[rk * new_m..(rk + 1) * new_m];
                for (&ri, &v) in rows.iter().zip(&self.binv[k * m..(k + 1) * m]) {
                    to[ri] = v;
                }
            }
            for r in (0..new_m).filter(|r| !rows.contains(r)) {
                binv[r * new_m + r] = 1.0;
            }
            DenseInverse { m: new_m, binv }
        }

        /// [`Engine::bring_binv_current`]'s completion on this inverse, for
        /// the labels and problem of `eng`: one eta update per position whose
        /// basic column is not the one in `inverts`.
        pub(crate) fn complete(&mut self, eng: &Engine, inverts: &SparseCols) -> bool {
            let mut replaceable = 8 + self.m / 4;
            for i in 0..self.m {
                let j = eng.basis[i];
                if eng.sf.col(j) == inverts.col(i) {
                    continue;
                }
                let w = self.compute_w(eng, j);
                let largest = w.iter().fold(0.0, |a: f64, w| a.max(w.abs()));
                if replaceable == 0 || w[i].abs() <= REPLACE_GUARD_REL * largest {
                    return false;
                }
                replaceable -= 1;
                self.eta_update(i, &w);
            }
            true
        }
    }
}
