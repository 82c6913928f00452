//! Heap allocations per posed LP of a warm growth call, per matrix a
//! failure recovery builds, and per point query.
//!
//! A growth round solves one Figure-12 LP — a chain's first posed, the
//! later ones spliced into it — and its rows, its fractions and its path
//! sets are built in a handful of arrays an LP, not one `Vec` per row, per
//! aggregate or per path copied. A counting global
//! allocator holds the GTS-like chain the benchmark's LDR decision runs to
//! that: a second call on a warm cache and context, counted on this thread
//! only, so nothing another test thread does is charged to it; and a call
//! at twice that demand, whose phase 1 ends on a kept round, to a phase 2
//! that grows the chain instead of posing its LP again. The same
//! allocator holds a recovery's routable partition to a count that does
//! not grow with the aggregates (no error text is built for a check that
//! passes), a point query on a warm thread to its one path, and a warm
//! Yen generator's expansion to the candidates it keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lowlat_core::failure::{partition_routable, single_link_failures};
use lowlat_core::pathgrow::{GrowRequest, SolveContext};
use lowlat_core::pathset::PathCache;
use lowlat_core::scale::ScaleToLoad;
use lowlat_netgraph::{shortest_path, Graph, KspGenerator, NodeId};
use lowlat_tmgen::{GravityTmGen, TmGenConfig, TrafficMatrix};
use lowlat_topology::synth::{generate, SynthConfig, SynthModel};
use lowlat_topology::zoo::named;

/// Counts every allocation and reallocation made while this thread's
/// [`COUNTING`] flag is up, in this thread's [`ALLOCATIONS`]: the tests
/// run on parallel threads.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
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

/// What `f` returns and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.get())
}

/// Allocations a solved LP may cost, the simplex's own included. A debug
/// build measured 987 an LP when the bound was first set at 1 200 (4 934
/// over 5 LPs; 874 in a release build), and 2 036 when every row, every
/// aggregate's fractions and every path copy allocated on its own. Since
/// Yen's spur searches stopped allocating per spur node it measured 498.6
/// (2 493 over 5 LPs) while every round posed its LP from scratch, and
/// 484.8 (2 424) since a chain's later rounds are spliced into its live LP
/// — debug and release alike, the same count every run. The call's first
/// LP is posed; the other four grow out of it in place (spliced, or
/// re-costed for phase 2), and posing any one of them again adds 21 to 27
/// allocations: at least 2 445 over 5 LPs, 489.0 an LP, when the bound
/// was 487. Since Yen's expansions keep their spur buffers, the call's
/// path growth makes 197 fewer allocations: 445.4 an LP (2 227), and a
/// round posed again would read at least 449.6 (2 227 + 21 over 5). The
/// bound, 447 an LP (2 235 over 5), sits between: a single round that
/// poses its LP again fails it. The rest of an LP's allocations are its
/// pivots' and its growth step's.
const MAX_ALLOCATIONS_PER_LP: f64 = 447.0;

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

    let (out, allocations) =
        counted(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve_with(&mut ctx));

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

/// Allocations the counted call of
/// [`phase_2_after_a_kept_phase_1_end_grows_the_chain_instead_of_posing`]
/// may make. Its phase 1 ends on a kept round; it solves 9 LPs over 10
/// rounds. When phase 2 after such an end posed its LP and took the
/// phase-1 basis over through the slots, the call made 3 140 allocations;
/// since phase 2 splices the kept rounds' columns into the chain's live LP
/// and re-costs it, 3 111 — debug and release alike, the same count every
/// run — and 3 086 since Yen's expansions keep their spur buffers. The
/// bound, 3 095, sits between: posing phase 2's LP again costs 29 and
/// fails it by 20.
const MAX_KEPT_END_CALL_ALLOCATIONS: usize = 3_095;

#[test]
fn phase_2_after_a_kept_phase_1_end_grows_the_chain_instead_of_posing() {
    let topo = named::gts_like();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.55);
    let cache = PathCache::new(topo.graph());
    let mut ctx = SolveContext::new();
    // Twice the benchmark's demand: both calls end phase 1 on an overload
    // proven final, on a round that kept its outcome. The first fills the
    // path cache and the context; the second inflates a third of the
    // demands by 1.1, as LDR's Figure-14 loop does, and re-solves warm.
    let doubled: Vec<f64> = tm.aggregates().iter().map(|a| 2.0 * a.volume_mbps).collect();
    GrowRequest::new(&cache, &tm).volumes(&doubled).solve_with(&mut ctx).unwrap();
    let volumes: Vec<f64> = (doubled.iter().enumerate())
        .map(|(a, &v)| v * if a % 3 == 0 { 1.1 } else { 1.0 })
        .collect();
    let solves = ctx.solves();

    let (out, allocations) =
        counted(|| GrowRequest::new(&cache, &tm).volumes(&volumes).solve_with(&mut ctx));

    let out = out.unwrap();
    let lps = ctx.solves() - solves;
    assert!(out.omax > 0.0 && lps == 9, "{lps} LPs: twice the demand overloads GTS-like");
    assert!(
        allocations <= MAX_KEPT_END_CALL_ALLOCATIONS,
        "{allocations} allocations, bound {MAX_KEPT_END_CALL_ALLOCATIONS}"
    );
}

/// The allocations of building a matrix from `aggregates` and of
/// partitioning it under a cable failure.
fn matrix_and_partition_allocations(
    graph: &Graph,
    aggregates: &[lowlat_tmgen::Aggregate],
    mask: &lowlat_netgraph::FailureMask,
) -> (usize, usize) {
    let owned = aggregates.to_vec();
    let (tm, built) = counted(|| TrafficMatrix::new(owned));
    let (part, partitioned) = counted(|| partition_routable(graph, &tm, mask));
    assert_eq!(part.kept.len(), aggregates.len(), "a single cable strands no GTS-like PoP");
    (built, partitioned)
}

#[test]
fn a_matrix_and_its_routable_partition_allocate_the_same_for_338_aggregates_as_for_10() {
    let topo = named::gts_like();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
    let all = tm.aggregates();
    assert_eq!(all.len(), 338);
    // Every 34th aggregate: ten of them, from ten sources.
    let few: Vec<_> = all.iter().step_by(34).copied().collect();
    assert_eq!(few.len(), 10);
    let mask = single_link_failures(&topo)[0].mask(&topo);
    let many = matrix_and_partition_allocations(topo.graph(), all, &mask);
    let ten = matrix_and_partition_allocations(topo.graph(), &few, &mask);
    assert_eq!(many, ten, "(TrafficMatrix::new, partition_routable) allocations, 338 vs 10");
}

#[test]
fn a_point_query_on_a_warm_thread_allocates_its_path_and_nothing_else() {
    let ba = generate(SynthModel::BarabasiAlbert, &SynthConfig { nodes: 10_000, seed: 42 });
    let gts = named::gts_like();
    for g in [ba.graph(), gts.graph()] {
        let n = g.node_count() as u32;
        let queries: Vec<(NodeId, NodeId)> =
            (0..8u32).map(|i| (NodeId(i * 7 % n), NodeId((i * 7919 + n / 2) % n))).collect();
        // The first round sizes this thread's workspace to the graph.
        for &(s, t) in &queries {
            assert!(shortest_path(g, s, t, None, None).is_some());
        }
        for &(s, t) in &queries {
            let (path, allocations) = counted(|| shortest_path(g, s, t, None, None));
            assert!(path.is_some());
            assert_eq!(allocations, 1, "{s:?} to {t:?} on {} nodes", g.node_count());
        }
    }
}

/// Allocations the eight expansions of
/// [`a_warm_generators_expansion_allocates_the_candidates_it_keeps`] may
/// make. They keep 20 candidates, one allocation each (its links, shared
/// by `seen`, the heap and the accepted path), and 9 more as the
/// generator's arrays and buffers grow (accepted paths, the heap, `seen`):
/// 29, debug and release alike. While every expansion allocated its node
/// list, both masks and its link buffer, the same growth made 73. The
/// bound is the count, so an expansion that allocates one of its buffers
/// again fails it.
const MAX_EXPANSION_ALLOCATIONS: usize = 29;

#[test]
fn a_warm_generators_expansion_allocates_the_candidates_it_keeps() {
    let topo = named::gts_like();
    let g = topo.graph();
    let (src, dst) = (NodeId(0), NodeId(g.node_count() as u32 - 1));
    let mut gen = KspGenerator::new(g, src, dst);
    // Four paths: three expansions, which size the spur buffers and this
    // thread's point-query workspace.
    assert_eq!(gen.take_up_to(4).len(), 4);
    let (grown, allocations) = counted(|| gen.take_up_to(12).len());
    assert_eq!(grown, 12);
    assert!(
        allocations <= MAX_EXPANSION_ALLOCATIONS,
        "{allocations} allocations growing {src:?} to {dst:?} from 4 to 12 paths, \
         bound {MAX_EXPANSION_ALLOCATIONS}"
    );
}
