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
//! Within a chain the basis does not travel through the slots at all. The
//! chain keeps one live LP ([`lowlat_linprog::LiveLp`], in the context's
//! `Chain`): the standard form its last LP was solved in and the basis
//! that solve left. A round splices what growth added into that form
//! (`splice` module docs) and renumbers the basis in place — the one
//! renumbering `relabel` applies, the one restart a stored basis gets —
//! so no LP is posed, converted, handed over or exported between the
//! chain's ends. The slots see only those ends, with the entries and
//! stamps handing the basis over round by round would have left: the
//! chain's first LP is solved from its slot and keeps its basis there; a
//! later round files its key with an empty placeholder carrying the stamp
//! (so eviction sees what it always saw); and [`SolveContext::end_chain`]
//! writes the basis into the last round's slot, with the columns its
//! inverse inverts, before anything reads the slots again — the next LP
//! that is not the chain's, in any call. Phase 2 after a phase 1 whose
//! last round was solved re-costs the chain's standard form instead of
//! posing its LP (`LpData::solve_again`).

use std::collections::HashMap;

use lowlat_linprog::{Basis, LiveLp, Problem};

use super::splice::LpLayout;

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
    pub(super) bases: HashMap<(u8, usize, usize), StoredBasis>,
    pub(super) warm_hits: usize,
    pub(super) solves: usize,
    /// The live LP of the chain the last LP solved belongs to.
    pub(super) chain: Option<Chain>,
}

/// One live LP per chain: the standard form the chain's last LP was
/// solved in, grown in place by the next round (`LpData::solve`), and —
/// from the chain's second LP on — the basis that LP left. The chain's
/// first LP is solved from, and stores its basis in, its slot as any LP
/// is; a later round files only its key, with an empty placeholder and the
/// stamp a stored basis would have, so [`SolveContext::slot`]'s eviction
/// sees the entries it always saw. [`SolveContext::end_chain`] writes the
/// basis, before anything reads the bases again.
#[derive(Debug)]
pub(super) struct Chain {
    pub(super) live: LiveLp,
    /// The key of the LP `live` holds.
    pub(super) key: (u8, usize, usize),
    /// Whether `live` holds the chain's basis; before the chain's second
    /// LP it is the one stored at `key`.
    pub(super) held: bool,
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

    /// Ends the live chain: its basis, with the columns it inverts, goes
    /// to the slot of the chain's last LP, which from then on holds what
    /// handing it over round by round through the slots would have left
    /// there. Returns the chain, whose live LP still holds its standard
    /// form.
    pub(super) fn end_chain(&mut self) -> Option<Chain> {
        let mut chain = self.chain.take()?;
        if chain.held {
            self.bases.entry(chain.key).or_default().basis = chain.live.release();
            chain.held = false;
        }
        Some(chain)
    }

    /// The basis slot for an LP of the given mode and dimensions.
    pub(super) fn slot(&mut self, tag: u8, rows: usize, vars: usize) -> &mut Basis {
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

    /// Carries the basis stored for the LP laid out as `from` to the key of
    /// `grown`, the LP (laid out as `to`) that growth turned it into — in
    /// `from`'s mode, whatever `grown` optimizes: the two modes of a
    /// latency-optimal call share rows and columns — re-labelled so it
    /// describes the same vertex there. The first LP of a chain keeps a
    /// copy, so the next call's chain starts warm; from then on the basis
    /// moves. Returns whether that slot now holds that vertex.
    pub(super) fn hand_over(&mut self, from: &LpLayout, to: &LpLayout, grown: &Problem) -> bool {
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

    /// Whether the live chain ends at the LP laid out as `from` and holds
    /// a warm basis there: its own, or the one at `from`'s slot.
    pub(super) fn chain_ends_warm_at(&self, from: &LpLayout) -> bool {
        let key = (from.tag, from.rows, from.vars());
        self.chain.as_ref().is_some_and(|c| {
            c.key == key
                && if c.held {
                    c.live.held().is_warm()
                } else {
                    self.bases.get(&key).is_some_and(|s| s.basis.is_warm())
                }
        })
    }

    /// The live chain, taken out to grow from `from`, holding the basis
    /// [`SolveContext::hand_over`] would carry: the chain's own, whose slot
    /// holds only a placeholder, or the one at `from`'s slot — moved out
    /// when it was handed over to `from`, copied when `from` began the
    /// chain and its slot keeps it. Only when
    /// [`SolveContext::chain_ends_warm_at`] `from`.
    pub(super) fn continue_chain(&mut self, from: &LpLayout) -> Chain {
        debug_assert!(self.chain_ends_warm_at(from), "the chain ends warm at `from`");
        let key = (from.tag, from.rows, from.vars());
        let mut chain = self.chain.take().expect("the chain ends at `from`");
        match (chain.held, from.handed_over) {
            (true, _) => drop(self.bases.remove(&key)),
            (false, true) => chain.live.hold(self.bases.remove(&key).expect("warm").basis),
            (false, false) => chain.live.hold(self.bases[&key].basis.clone()),
        }
        chain.held = true;
        chain
    }

    /// Files the chain after a round grew it into the LP laid out as `to`:
    /// `to`'s slot gets a placeholder with the stamp the basis handed over
    /// to it would carry, and counts as used, as that basis would.
    pub(super) fn file_round(&mut self, mut chain: Chain, to: &LpLayout) {
        chain.key = (to.tag, to.rows, to.vars());
        let placeholder = StoredBasis { basis: Basis::new(), last_used: self.solves };
        self.bases.insert(chain.key, placeholder);
        self.slot(to.tag, to.rows, to.vars());
        self.chain = Some(chain);
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
        let live = self.chain.as_ref().map_or(0, |c| c.live.held().heap_bytes());
        live + self.bases.values().map(|s| s.basis.heap_bytes()).sum::<usize>()
    }
}
