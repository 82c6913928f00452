//! A problem kept in standard form along a column-generation chain: the
//! chain's first round splices its rows into a form that holds only
//! columns, and each later round splices what it adds into the form the
//! round before solved and restarts from the basis that solve left,
//! renumbered alongside, instead of posing the grown problem row by row,
//! converting it again and relabelling the basis.

use lowlat_telemetry as telemetry;

use super::basis::Basis;
use super::engine::{solve_standard_form_warm, LpError, Solution, SolverOptions};
use super::standard_form::{SparseCols, StandardForm};
use crate::problem::{Problem, Relation};

/// What one round of column generation adds to a [`LiveLp`]: the maps
/// [`Basis::relabel`] takes, the new rows and columns, the entries old
/// columns gain in new rows, and the right-hand sides of old rows that
/// change. Old columns keep every coefficient, cost and bound they had,
/// and old rows every coefficient on old columns. Kept between rounds so
/// its buffers are reused; [`Growth::begin`] starts the next round.
#[derive(Default)]
pub struct Growth {
    columns: Vec<usize>,
    rows: Vec<usize>,
    enter: Vec<Option<usize>>,
    /// The new rows, in increasing order of their index in the grown
    /// problem.
    new_rows: Vec<(Relation, f64)>,
    /// `(row in the grown problem, rhs)` of old rows whose right-hand side
    /// changes.
    rhs: Vec<(usize, f64)>,
    /// The new structural columns, in increasing order of their index:
    /// entries, cost, upper bound.
    cols: SparseCols,
    costs: Vec<f64>,
    uppers: Vec<f64>,
    /// `(column, row, coefficient)` in the grown problem's numbering, of
    /// old columns' entries in new rows, by column then row.
    extra: Vec<(usize, usize, f64)>,
}

impl Growth {
    /// An empty description.
    pub fn new() -> Self {
        Growth::default()
    }

    /// Starts the next round's description: `columns[old] = new` for each
    /// old structural column and `rows[old] = new` for each old row, both
    /// strictly increasing, and per new row, in increasing order, the new
    /// structural column that becomes basic in it or `None` for its own
    /// slack — as [`Basis::relabel`] takes them.
    pub fn begin(&mut self, columns: Vec<usize>, rows: Vec<usize>, enter: Vec<Option<usize>>) {
        (self.columns, self.rows, self.enter) = (columns, rows, enter);
        self.new_rows.clear();
        self.rhs.clear();
        self.cols.ptr.clear();
        self.cols.entries.clear();
        self.costs.clear();
        self.uppers.clear();
        self.extra.clear();
    }

    /// Makes room for `rows` new rows and `columns` new structural columns
    /// holding `entries` entries between them, after [`Growth::begin`]: a
    /// round that writes a whole LP, as a chain's first does, then fills
    /// its buffers without growing them step by step.
    pub fn reserve(&mut self, rows: usize, columns: usize, entries: usize) {
        self.new_rows.reserve(rows);
        self.cols.ptr.reserve(columns + 1);
        self.cols.entries.reserve(entries);
        self.costs.reserve(columns);
        self.uppers.reserve(columns);
    }

    /// Adds the next new row, `rel rhs`.
    pub fn add_row(&mut self, rel: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "non-finite rhs");
        self.new_rows.push((rel, rhs));
    }

    /// Gives old row `row` (numbered in the grown problem) a new
    /// right-hand side.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(rhs.is_finite(), "non-finite rhs");
        self.rhs.push((row, rhs));
    }

    /// Adds the next new structural column: its objective coefficient, its
    /// upper bound (`f64::INFINITY` for none) and its `(row, coefficient)`
    /// entries, rows strictly increasing in the grown problem's numbering.
    /// Zero coefficients are dropped, as [`Problem::add_row`] drops them.
    pub fn add_column(
        &mut self,
        cost: f64,
        upper: f64,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) {
        assert!(cost.is_finite(), "non-finite objective coefficient");
        assert!(!upper.is_nan() && upper >= 0.0, "bad upper bound {upper}");
        let start = self.cols.entries.len();
        self.cols.push_col(entries.into_iter().filter(|&(_, v)| v != 0.0));
        let col = &self.cols.entries[start..];
        assert!(col.windows(2).all(|w| w[0].0 < w[1].0), "rows not strictly increasing");
        assert!(col.iter().all(|&(_, v)| v.is_finite()), "non-finite coefficient");
        self.costs.push(cost);
        self.uppers.push(upper);
    }

    /// Gives old column `column` the entry `coeff` in new row `row` (both
    /// in the grown problem's numbering), after any it was given before:
    /// by column, then by row.
    pub fn add_entry(&mut self, column: usize, row: usize, coeff: f64) {
        assert!(coeff.is_finite(), "non-finite coefficient");
        if let Some(&(c, r, _)) = self.extra.last() {
            assert!((c, r) < (column, row), "entries out of order");
        }
        if coeff != 0.0 {
            self.extra.push((column, row, coeff));
        }
    }
}

/// A problem held in standard form between the solves of a
/// column-generation chain.
///
/// [`LiveLp::with_columns`] holds a problem of columns and no rows; each
/// round, the first included, [`LiveLp::grow`]s it by a [`Growth`] — an
/// O(nonzeros) merge that renumbers what moved and writes what is new, the
/// same standard form the grown problem, posed as a [`Problem`],
/// would be solved in, to the bit ([`LiveLp::differs_from`] checks it) — and
/// renumbers the caller's basis with it, by the one renumbering
/// [`Basis::relabel`] applies. It holds no basis: [`LiveLp::solve`] takes
/// one as [`Problem::solve_warm`] does and runs the one restart that
/// runs.
#[derive(Default)]
pub struct LiveLp {
    pub(super) sf: StandardForm,
    /// The buffers the next splice writes the grown form into.
    spare: StandardForm,
    /// Per row of the grown form, its slack's coefficient (0 for none).
    slack: Vec<f64>,
}

impl std::fmt::Debug for LiveLp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveLp")
            .field("rows", &self.num_rows())
            .field("vars", &self.num_vars())
            .finish()
    }
}

impl LiveLp {
    /// Holds the problem of one structural column per entry of `costs`,
    /// with that objective coefficient and the upper bound at the same
    /// index of `uppers` (`f64::INFINITY` for none), and no rows: what a
    /// chain's first [`LiveLp::grow`] adds its rows to.
    ///
    /// # Panics
    /// As [`LiveLp::set_costs`] does.
    pub fn with_columns(costs: &[f64], uppers: &[f64]) -> Self {
        let n = costs.len();
        let mut live = LiveLp::default();
        live.sf.num_structural = n;
        live.sf.cols.ptr.resize(n + 1, 0);
        live.sf.c.resize(n, 0.0);
        live.sf.upper.resize(n, 0.0);
        live.set_costs(costs, uppers);
        live
    }

    /// Constraint rows.
    pub fn num_rows(&self) -> usize {
        self.sf.b.len()
    }

    /// Structural variables.
    pub fn num_vars(&self) -> usize {
        self.sf.num_structural
    }

    /// Solves warm from `basis` as [`Problem::solve_warm`] does the problem
    /// this holds, storing the new optimal basis back into `basis`; a cold
    /// handle, or one that does not fit, makes the solve cold.
    pub fn solve(&self, basis: &mut Basis) -> Result<Solution, LpError> {
        let _span = telemetry::span("lp.solve", "lp");
        solve_standard_form_warm(&self.sf, &SolverOptions::default(), basis)
    }

    /// Splices `growth` in and renumbers `basis` — exported by a solve of
    /// the problem this held — for the grown problem as [`Basis::relabel`]
    /// does. `false` when `basis` could not be renumbered (cold, or maps it
    /// does not fit): it is cleared, and a solve from it runs cold.
    ///
    /// # Panics
    /// On maps that are not strictly increasing or leave the grown problem.
    pub fn grow(&mut self, growth: &Growth, basis: &mut Basis) -> bool {
        let Growth { columns, rows, enter, new_rows, rhs, cols, costs, uppers, extra } = growth;
        let old = &self.sf;
        let (m0, n0) = (old.b.len(), old.num_structural);
        let (m1, n1) = (m0 + new_rows.len(), n0 + costs.len());
        assert!(rows.len() == m0 && columns.len() == n0, "maps of another problem");
        assert!(enter.len() == new_rows.len(), "an entering column per new row");
        for map in [&columns[..], &rows[..]] {
            assert!(map.windows(2).all(|w| w[0] < w[1]), "maps must be strictly increasing");
        }
        assert!(rows.last().is_none_or(|&r| r < m1) && columns.last().is_none_or(|&j| j < n1));

        // Rows: old ones where `rows` sends them, new ones in the gaps.
        let sf = &mut self.spare;
        let slack = &mut self.slack;
        sf.b.clear();
        sf.b.resize(m1, 0.0);
        slack.clear();
        slack.resize(m1, 0.0);
        for (i, &r) in rows.iter().enumerate() {
            sf.b[r] = old.b[i];
        }
        for j in n0..old.num_cols() {
            let (i, v) = old.col(j)[0];
            slack[rows[i]] = v;
        }
        let (mut added, mut kept) = (new_rows.iter(), rows.iter().peekable());
        for r in 0..m1 {
            if kept.next_if_eq(&&r).is_some() {
                continue;
            }
            let &(rel, b) = added.next().expect("a row per gap");
            sf.b[r] = b;
            slack[r] = match rel {
                Relation::Le => 1.0,
                Relation::Eq => 0.0,
                Relation::Ge => -1.0,
            };
        }
        for &(r, b) in rhs {
            assert!(rows.binary_search(&r).is_ok(), "set_rhs on a row that is not old");
            sf.b[r] = b;
        }

        // Structural columns: old ones renumbered and merged with what
        // they gain, new ones as given; then a slack per inequality row.
        let slacks = slack.iter().filter(|&&v| v != 0.0).count();
        let nnz = old.cols.entries.len() + cols.entries.len() + extra.len() + new_rows.len();
        sf.num_structural = n1;
        let SparseCols { ptr, entries } = &mut sf.cols;
        ptr.clear();
        entries.clear();
        sf.c.clear();
        sf.upper.clear();
        ptr.reserve(n1 + slacks + 1);
        entries.reserve(nnz);
        sf.c.reserve(n1 + slacks);
        sf.upper.reserve(n1 + slacks);
        ptr.push(0);
        let (mut next_old, mut next_new, mut gained) = (0, 0, &extra[..]);
        for j in 0..n1 {
            if columns.get(next_old) == Some(&j) {
                let moved = old.col(next_old);
                let (mine, rest) = gained.split_at(gained.iter().take_while(|e| e.0 == j).count());
                gained = rest;
                let mut k = 0;
                for &(_, r, v) in mine {
                    while k < moved.len() && rows[moved[k].0] < r {
                        entries.push((rows[moved[k].0], moved[k].1));
                        k += 1;
                    }
                    entries.push((r, v));
                }
                entries.extend(moved[k..].iter().map(|&(i, v)| (rows[i], v)));
                sf.c.push(old.c[next_old]);
                sf.upper.push(old.upper[next_old]);
                next_old += 1;
            } else {
                entries.extend_from_slice(cols.col(next_new));
                sf.c.push(costs[next_new]);
                sf.upper.push(uppers[next_new]);
                next_new += 1;
            }
            ptr.push(entries.len());
        }
        assert!(gained.is_empty(), "an entry for a column that is not old");
        for (r, &v) in slack.iter().enumerate().filter(|(_, &v)| v != 0.0) {
            entries.push((r, v));
            ptr.push(entries.len());
            sf.c.push(0.0);
            sf.upper.push(f64::INFINITY);
        }
        std::mem::swap(&mut self.sf, &mut self.spare);
        let slack = &self.slack;
        basis.renumber((m1, n1), |r| slack[r] != 0.0, columns, rows, enter)
    }

    /// Gives every structural column `j` the objective coefficient
    /// `costs[j]` and the upper bound `uppers[j]` (`f64::INFINITY` for
    /// none): the same rows posed under another objective, as a later
    /// stage of a lexicographic solve poses them.
    ///
    /// # Panics
    /// On a slice of another length, a non-finite cost or a negative or NaN
    /// bound.
    pub fn set_costs(&mut self, costs: &[f64], uppers: &[f64]) {
        let n = self.num_vars();
        assert!(costs.len() == n && uppers.len() == n, "a cost and a bound per variable");
        assert!(costs.iter().all(|c| c.is_finite()), "non-finite objective coefficient");
        assert!(uppers.iter().all(|&u| !u.is_nan() && u >= 0.0), "bad upper bound");
        self.sf.c[..n].copy_from_slice(costs);
        self.sf.upper[..n].copy_from_slice(uppers);
    }

    /// `None` when this holds, to the bit, the standard form `posed`
    /// converts to — columns and their coefficients, right-hand sides,
    /// costs, bounds and the slacks' order — else the first difference.
    pub fn differs_from(&self, posed: &Problem) -> Option<String> {
        let (a, b) = (&self.sf, &posed.to_standard_form());
        if (a.num_structural, a.num_cols(), a.b.len())
            != (b.num_structural, b.num_cols(), b.b.len())
        {
            return Some(format!(
                "shape (structural, columns, rows) {:?} vs {:?}",
                (a.num_structural, a.num_cols(), a.b.len()),
                (b.num_structural, b.num_cols(), b.b.len())
            ));
        }
        let entry_bits = |col: &[(usize, f64)]| -> Vec<(usize, u64)> {
            col.iter().map(|&(r, v)| (r, v.to_bits())).collect()
        };
        if let Some(j) = (0..a.num_cols()).find(|&j| entry_bits(a.col(j)) != entry_bits(b.col(j))) {
            return Some(format!("column {j}: {:?} vs {:?}", a.col(j), b.col(j)));
        }
        for (what, x, y) in
            [("rhs", &a.b, &b.b), ("cost", &a.c, &b.c), ("upper", &a.upper, &b.upper)]
        {
            if let Some(i) = (0..x.len()).find(|&i| x[i].to_bits() != y[i].to_bits()) {
                return Some(format!("{what} {i}: {:e} vs {:e}", x[i], y[i]));
            }
        }
        None
    }
}
