//! Heap allocations per posed LP of a warm growth call.
//!
//! A growth round poses and solves one Figure-12 LP, and its rows, its
//! fractions and its path sets are built in a handful of arrays an LP, not
//! one `Vec` per row, per aggregate or per path copied. A counting global
//! allocator holds the GTS-like chain the benchmark's LDR decision runs to
//! that: a second call on a warm cache and context, counted on this thread
//! only, so nothing another test thread does is charged to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use lowlat_core::pathgrow::{GrowRequest, SolveContext};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;

/// Counts every allocation and reallocation made while this thread's
/// [`COUNTING`] flag is up.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a posed LP may cost, the simplex's own included. A debug
/// build measures 987 an LP (4 934 over 5 LPs; 874 in a release build), and
/// 2 036 when every row, every aggregate's fractions and every path copy
/// allocated on its own: the bound sits 22% above the first.
const MAX_ALLOCATIONS_PER_LP: f64 = 1200.0;

#[test]
fn a_warm_growth_call_allocates_per_lp_not_per_row_path_or_aggregate() {
    let topo = named::gts_like();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.55);
    let cache = PathCache::new(topo.graph());
    let mut ctx = SolveContext::new();
    // The first call fills the path cache and leaves its bases in the
    // context; the second inflates a third of the demands by 1.1, as
    // LDR's Figure-14 loop does, and re-solves warm.
    GrowRequest::new(&cache, &tm).solve_with(&mut ctx).unwrap();
    let volumes: Vec<f64> = tm
        .aggregates()
        .iter()
        .enumerate()
        .map(|(a, agg)| agg.volume_mbps * if a % 3 == 0 { 1.1 } else { 1.0 })
        .collect();
    let solves = ctx.solves();

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.set(true);
    let out = GrowRequest::new(&cache, &tm).volumes(&volumes).solve_with(&mut ctx);
    COUNTING.set(false);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    let out = out.unwrap();
    let lps = ctx.solves() - solves;
    assert!(lps >= 2 && out.rounds >= 2, "{lps} LPs posed over {} rounds", out.rounds);
    let per_lp = allocations as f64 / lps as f64;
    assert!(
        per_lp <= MAX_ALLOCATIONS_PER_LP,
        "{allocations} allocations over {lps} posed LPs: {per_lp:.1} an LP, \
         bound {MAX_ALLOCATIONS_PER_LP}"
    );
}
