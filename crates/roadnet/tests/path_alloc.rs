//! Allocation guard for point-to-point routing.
//!
//! A counting global allocator (the idiom of `xar-core`'s
//! `tests/publish_alloc.rs`; one `#[global_allocator]` per test binary,
//! hence this file) measures the bytes one warmed query allocates. The
//! search state lives in a per-thread workspace that starts each query
//! in O(1), so a short query allocates only its result: the same bytes
//! on a city 8x larger in nodes. Per-query `dist`/`prev` arrays would
//! add 12 bytes per node of the city.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xar_geo::LocalProjection;
use xar_roadnet::{CityConfig, NodeId, NodeLocator, RoadGraph, ShortestPaths};

thread_local! {
    /// Per-thread allocated bytes (the libtest harness's main thread
    /// allocates concurrently; a process-global count would be flaky).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A trip of about six blocks near the city's south-west corner, which
/// both cities share.
fn short_trip(g: &RoadGraph) -> (NodeId, NodeId) {
    let proj = LocalProjection::new(CityConfig::manhattan(2, 2, 1).origin);
    let locator = NodeLocator::new(g, 200.0);
    let at = |x: f64, y: f64| locator.nearest(g, &proj.from_xy(x, y)).0;
    (at(500.0, 500.0), at(800.0, 800.0))
}

/// Bytes allocated by one `path` and one `cost` of the short trip, after
/// warm-up queries on the same graph.
fn warmed_bytes(g: &RoadGraph) -> (u64, u64, usize) {
    let sp = ShortestPaths::driving(g);
    let (a, b) = short_trip(g);
    for _ in 0..3 {
        let _ = sp.path(a, b);
    }
    let before = thread_bytes();
    let p = sp.path(a, b).expect("city is strongly connected");
    let path_bytes = thread_bytes() - before;
    let before = thread_bytes();
    let _ = sp.cost(a, b);
    let cost_bytes = thread_bytes() - before;
    (path_bytes, cost_bytes, p.nodes.len())
}

#[test]
fn warmed_path_allocates_for_the_path_not_the_city() {
    let small = CityConfig::manhattan(40, 40, 1).generate();
    let large = CityConfig::manhattan(113, 113, 1).generate();
    assert!(large.node_count() >= 7 * small.node_count());
    let (path_small, cost_small, hops_small) = warmed_bytes(&small);
    let (path_large, cost_large, hops_large) = warmed_bytes(&large);
    let ctx = format!(
        "bytes/path {path_small} -> {path_large} ({hops_small} -> {hops_large} nodes), \
         bytes/cost {cost_small} -> {cost_large} ({} -> {} city nodes)",
        small.node_count(),
        large.node_count()
    );
    eprintln!("{ctx}");
    // The node list grows by doubling, so paths a few nodes apart may
    // differ by one growth step.
    const SLACK: u64 = 128;
    assert!(path_large.abs_diff(path_small) <= SLACK, "path bytes followed the city: {ctx}");
    assert_eq!((cost_small, cost_large), (0, 0), "cost allocated: {ctx}");
}
