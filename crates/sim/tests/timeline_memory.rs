//! A timeline's memory does not grow with its length.
//!
//! A run keeps every minute's mean and peak, but the samples of only one
//! minute per aggregate (`lowlat_traffic::trace::SAMPLE_WINDOW`), and the
//! replay sums a minute's link loads into rows kept for the run. So the
//! buffers of one minute's samples — `bins_per_minute` `f64`s — are
//! allocated when the run starts and never again: a counting global
//! allocator sees as many of them in a 200-minute run as in a 20-minute
//! one. It counts on every thread, since the run synthesizes on helper
//! threads, and this file holds one test so that no other test's
//! allocations run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lowlat_core::scale::ScaleToLoad;
use lowlat_sim::timeline::{simulate, Controller, TimelineConfig};
use lowlat_tmgen::{GravityTmGen, TmGenConfig};
use lowlat_topology::zoo::named;
use lowlat_traffic::TraceGenConfig;

/// Counts, while [`COUNTING`] is up, the allocations and reallocations of
/// exactly [`TARGET`] bytes made on any thread.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TARGET: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) && size == TARGET.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_timeline_allocates_its_minute_buffers_once_whatever_its_length() {
    let topo = named::abilene();
    let tm =
        GravityTmGen::new(TmGenConfig::default()).generate(&topo, 0).scaled_to_load(&topo, 0.7);
    // The timeline synthesizes at the generator's default bin count.
    let minute_bytes = TraceGenConfig::default().bins_per_minute * std::mem::size_of::<f64>();
    TARGET.store(minute_bytes, Ordering::Relaxed);
    let controller = Controller::static_sp();
    let buffers = |minutes| {
        let config = TimelineConfig { minutes, ..Default::default() };
        ALLOCATIONS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let out = simulate(&topo, &tm, &controller, &config);
        COUNTING.store(false, Ordering::Relaxed);
        assert_eq!(out.minutes.len(), minutes);
        ALLOCATIONS.load(Ordering::Relaxed)
    };
    let (short, long) = (buffers(20), buffers(200));
    // Two sample buffers per aggregate (the window and the minute written
    // beside it), a load row per link and the replay's three weight rows.
    assert!(short >= 2 * tm.aggregates().len(), "{short} buffers");
    assert_eq!(short, long, "{minute_bytes}-byte buffers of a 20- and a 200-minute run");
}
