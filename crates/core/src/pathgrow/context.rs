//! Warm starts along a solve's chain of LPs and across calls.
//!
//! The growth step is classic column generation, and it keeps its basis:
//! within one solve every LP after the first restarts from the optimum of
//! the LP before it. The grown LP contains the one just solved — every path,
//! link and aggregate keeps its variable and its rows — so that optimum,
//! with the new columns at zero, is a vertex of the grown LP too: a newly
//! used link brings a capacity row and an `o_l <= omax` row that are slack
//! there, an aggregate that goes from one path to several brings its
//! `Σ = B_a` row with the old path's variable basic at `B_a`.
//!
//! The chain keeps one live LP ([`lowlat_linprog::LiveLp`], in the context's
//! `Chain`) — the standard form its last LP was solved in — and, from its
//! second LP on, the basis that LP left. A round splices what growth added
//! into that form (`splice` module docs) and [`lowlat_linprog::LiveLp::grow`]
//! renumbers the basis *and its inverse* with it (the maps come from the two
//! LPs' layouts, which only the LP builder decides; the inverse is held by
//! its nonzeros — most rows are slack and contribute a unit column — so
//! renumbering it costs those, not the square of the row count), exactly as
//! [`lowlat_linprog::Basis::relabel`] would. The restart is primal feasible
//! by construction and pays for the columns that changed — an eta update for
//! each old path that crosses a newly used link and each promoted
//! aggregate's `z_a0`, nothing for the rest of the inverse — and a round
//! typically needs a handful of pivots to price the new columns in. The
//! first LP of a chain is the same splice, from the LP with no rows into a
//! live LP that holds only the aux column (`LpData::begin_chain`), and it is
//! solved from scratch only when no previous call left a basis of its shape
//! in the [`SolveContext`]. Phase 2 re-costs the chain's standard form
//! instead of writing its LP again (`LpData::solve_again`); after a phase 1
//! that ended on a kept round it first splices the kept rounds' columns in,
//! in phase 1's mode, as the next round of phase 1 would have.
//!
//! ## The slot policy
//!
//! Within a chain the basis does not travel through the slots; the slots
//! hold the chain's ends. The chain's first LP is solved from its slot and
//! leaves its basis there, and the second round takes a copy along. Each
//! later round files its key with an empty placeholder stamped with the
//! solve count, so [`SolveContext::slot`]'s eviction counts it, and drops
//! the placeholder of the round before. [`SolveContext::end_chain`] writes
//! the basis, with the columns its inverse inverts, into the last round's
//! slot before anything reads the slots again — at the next LP that is not
//! the chain's, in any call. Phase 2 after a kept phase-1 end files the
//! grown phase-1 basis at the grown LP's phase-1 slot, stamped, before it
//! seeds its own slot from there and before the eviction that fetching
//! its slot runs.

use std::collections::HashMap;

use lowlat_linprog::{Basis, LiveLp};

use super::splice::LpLayout;

/// Warm-start state carried across LP solves — one per scheme instance in a
/// long-running controller (the §5 deployment cycle re-solves nearly
/// identical LPs every minute).
///
/// Stored bases are keyed by `(objective mode, rows, vars)`, and each
/// holds the basis an LP of that key last left, stamped with the solve
/// count at its last use. The growth loop runs a *chain* of LPs per call,
/// each extending the one before; the chain carries its basis from round
/// to round itself, so when a call returns the context holds, per mode, the
/// two ends of the trajectory — not one basis per shape ever seen — and the
/// next call starts its own chain warm from the first, and restarts from
/// the last wherever one of its LPs has that shape (phase 2 of a call that
/// needed no growth, say). [`lowlat_linprog::LiveLp::solve`] degrades stale
/// bases to cold solves on its own, so a context can never change *what*
/// is computed, only how fast.
#[derive(Debug, Default)]
pub struct SolveContext {
    pub(super) bases: HashMap<(u8, usize, usize), StoredBasis>,
    pub(super) warm_hits: usize,
    pub(super) solves: usize,
    /// The live LP of the chain the last LP solved belongs to.
    pub(super) chain: Option<Chain>,
}

/// One live LP per chain: the standard form the chain's last LP was
/// solved in, grown in place by the next round (`LpData::solve`).
#[derive(Debug)]
pub(super) struct Chain {
    pub(super) live: LiveLp,
    /// The key of the LP `live` holds.
    pub(super) key: (u8, usize, usize),
    /// The basis that LP left, from the chain's second LP on; `None` while
    /// it is the chain's first, whose basis stays in its slot at `key`.
    pub(super) basis: Option<Basis>,
}

/// A stored basis plus the solve count at its last use, for eviction.
#[derive(Clone, Debug, Default)]
pub(super) struct StoredBasis {
    pub(super) basis: Basis,
    pub(super) last_used: usize,
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

    /// Ends the live chain: the basis it holds, with the columns it
    /// inverts, goes to the slot of the chain's last LP. Returns the chain,
    /// whose live LP still holds its standard form.
    pub(super) fn end_chain(&mut self) -> Option<Chain> {
        let mut chain = self.chain.take()?;
        if let Some(basis) = chain.basis.take() {
            self.bases.entry(chain.key).or_default().basis = basis;
        }
        Some(chain)
    }

    /// The basis slot for an LP of the given mode and dimensions.
    pub(super) fn slot(&mut self, tag: u8, rows: usize, vars: usize) -> &mut Basis {
        if self.bases.len() > MAX_STORED_BASES {
            let now = self.solves;
            #[cfg(test)]
            let before = self.bases.len();
            self.bases.retain(|_, s| now - s.last_used < STALE_AFTER_SOLVES);
            #[cfg(test)]
            tests::EVICTED.set(tests::EVICTED.get() + before - self.bases.len());
        }
        let entry = self.bases.entry((tag, rows, vars)).or_default();
        entry.last_used = self.solves;
        &mut entry.basis
    }

    /// Seeds `to_tag`'s slot from `from_tag`'s basis of the same problem
    /// shape when the target has nothing stored yet. Phase 2 optimizes a
    /// different objective over phase 1's feasible region, so phase 1's
    /// optimal vertex is a valid primal-feasible restart for it.
    pub(super) fn seed_cross_mode(&mut self, from_tag: u8, to_tag: u8, rows: usize, vars: usize) {
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

    /// The live chain, taken out to grow from `from`, holding its basis:
    /// its own, when the slot at `from`'s key holds only a placeholder
    /// (which goes), or a copy of the one in that slot when `from` began
    /// the chain. `None`, and the chain stays, unless the chain ends at
    /// `from` with a warm basis.
    pub(super) fn continue_chain(&mut self, from: &LpLayout) -> Option<Chain> {
        let key = (from.tag, from.rows, from.vars());
        let chain = self.chain.as_ref().filter(|c| c.key == key)?;
        let warm = match &chain.basis {
            Some(basis) => basis.is_warm(),
            None => self.bases.get(&key).is_some_and(|s| s.basis.is_warm()),
        };
        if !warm {
            return None;
        }
        let mut chain = self.chain.take()?;
        match chain.basis {
            Some(_) => drop(self.bases.remove(&key)),
            None => chain.basis = Some(self.bases[&key].basis.clone()),
        }
        Some(chain)
    }

    /// Files the chain after a round grew it into the LP laid out as `to`:
    /// `to`'s slot gets a placeholder stamped with the solve count, and
    /// counts as used.
    pub(super) fn file_round(&mut self, mut chain: Chain, to: &LpLayout) {
        chain.key = (to.tag, to.rows, to.vars());
        self.file(to, Basis::new());
        self.slot(to.tag, to.rows, to.vars());
        self.chain = Some(chain);
    }

    /// Files `basis` at the slot of the LP laid out as `at`, stamped with
    /// the solve count, without the eviction [`SolveContext::slot`] runs.
    pub(super) fn file(&mut self, at: &LpLayout, basis: Basis) {
        let stored = StoredBasis { basis, last_used: self.solves };
        self.bases.insert((at.tag, at.rows, at.vars()), stored);
    }

    /// LP solves that actually restarted from a stored basis.
    pub fn warm_hits(&self) -> usize {
        self.warm_hits
    }

    /// Total LP solves routed through this context.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Heap bytes of every stored basis and the live chain's — the
    /// `pathgrow.basis_bytes` gauge.
    pub(super) fn basis_bytes(&self) -> usize {
        let live = self.chain.as_ref().and_then(|c| c.basis.as_ref()).map_or(0, Basis::heap_bytes);
        live + self.bases.values().map(|s| s.basis.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
pub(super) mod tests {
    thread_local! {
        /// Slots eviction dropped on this thread.
        pub(in super::super) static EVICTED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }
}
